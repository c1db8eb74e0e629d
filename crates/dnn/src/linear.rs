//! Fully connected layer.

use cloudtrain_tensor::{init, Tensor};
use rand::rngs::StdRng;

use crate::layer::{Layer, Param};
use crate::math::{matmul_at_acc, matmul_bt};

/// `y = x W^T + b` over a batch: `x` is `[batch, in]`, `W` is `[out, in]`,
/// `y` is `[batch, out]`.
#[derive(Debug)]
pub struct Linear {
    w: Param,
    b: Param,
    in_dim: usize,
    out_dim: usize,
    /// The input of the last training forward, until backward consumes it.
    cached_x: Option<Tensor>,
}

impl Linear {
    /// Creates a Xavier-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        let mut w = vec![0.0; out_dim * in_dim];
        init::fill_xavier(&mut w, in_dim, out_dim, rng);
        Self {
            w: Param::new(format!("linear{in_dim}x{out_dim}.weight"), w),
            b: Param::new(format!("linear{in_dim}x{out_dim}.bias"), vec![0.0; out_dim]),
            in_dim,
            out_dim,
            cached_x: None,
        }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let batch = x.len() / self.in_dim;
        assert_eq!(x.len(), batch * self.in_dim, "Linear: ragged input");
        let mut y = Tensor::zeros(vec![batch, self.out_dim]);
        matmul_bt(
            x.as_slice(),
            &self.w.value,
            y.as_mut_slice(),
            batch,
            self.in_dim,
            self.out_dim,
        );
        for row in y.as_mut_slice().chunks_mut(self.out_dim) {
            for (v, b) in row.iter_mut().zip(&self.b.value) {
                *v += b;
            }
        }
        // Evaluation has no backward: record nothing.
        self.cached_x = train.then_some(x);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let x = self
            .cached_x
            .take()
            .expect("Linear: backward before forward");
        let batch = dy.len() / self.out_dim;

        // dW += dy^T @ x  (shape [out, in]).
        matmul_at_acc(
            dy.as_slice(),
            x.as_slice(),
            &mut self.w.grad,
            batch,
            self.out_dim,
            self.in_dim,
        );
        // db += column sums of dy.
        for row in dy.as_slice().chunks(self.out_dim) {
            for (g, v) in self.b.grad.iter_mut().zip(row) {
                *g += v;
            }
        }
        // dx = dy @ W  (shape [batch, in]).
        let mut dx = Tensor::zeros(vec![batch, self.in_dim]);
        crate::math::matmul(
            dy.as_slice(),
            &self.w.value,
            dx.as_mut_slice(),
            batch,
            self.out_dim,
            self.in_dim,
        );
        dx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "linear"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::param_count;

    fn layer(in_d: usize, out_d: usize) -> Linear {
        let mut rng = init::rng_from_seed(1);
        Linear::new(in_d, out_d, &mut rng)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut l = layer(3, 2);
        // Zero weights, known bias -> output equals bias.
        l.w.value.iter_mut().for_each(|v| *v = 0.0);
        l.b.value = vec![1.5, -0.5];
        let x = Tensor::from_vec(vec![1.0; 6], vec![2, 3]).unwrap();
        let y = l.forward(x, true);
        assert_eq!(y.shape(), &[2, 2]);
        assert_eq!(y.as_slice(), &[1.5, -0.5, 1.5, -0.5]);
    }

    #[test]
    fn gradcheck_weights_and_input() {
        // Finite-difference check of dL/dw and dL/dx with L = sum(y^2)/2.
        let mut l = layer(4, 3);
        let x =
            Tensor::from_vec(vec![0.3, -0.2, 0.5, 0.1, -0.4, 0.2, 0.0, 0.7], vec![2, 4]).unwrap();
        let y = l.forward(x.clone(), true);
        let dy = y.clone(); // dL/dy = y for L = sum(y^2)/2
        let dx = l.backward(dy);

        let eps = 1e-3;
        let loss = |l: &mut Linear, x: &Tensor| -> f32 {
            let y = l.forward(x.clone(), true);
            l.cached_x = None; // discard cache from probe
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };

        // Check a few weight coordinates.
        for idx in [0usize, 5, 11] {
            let analytic = l.w.grad[idx];
            l.w.value[idx] += eps;
            let lp = loss(&mut l, &x);
            l.w.value[idx] -= 2.0 * eps;
            let lm = loss(&mut l, &x);
            l.w.value[idx] += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 1e-2,
                "w[{idx}]: analytic {analytic} vs numeric {numeric}"
            );
        }
        // Check an input coordinate.
        let mut xp = x.clone();
        xp.as_mut_slice()[2] += eps;
        let lp = loss(&mut l, &xp);
        xp.as_mut_slice()[2] -= 2.0 * eps;
        let lm = loss(&mut l, &xp);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (dx.as_slice()[2] - numeric).abs() < 1e-2,
            "dx[2]: {} vs {}",
            dx.as_slice()[2],
            numeric
        );
    }

    #[test]
    fn param_count_matches() {
        let l = layer(10, 7);
        assert_eq!(param_count(&l), 10 * 7 + 7);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut l = layer(2, 2);
        l.backward(Tensor::zeros_1d(4));
    }

    /// An evaluation forward between a training forward and its backward
    /// used to replace the cached input silently, so the backward returned
    /// the gradient of the validation batch.
    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_an_evaluation_forward_panics() {
        let mut l = layer(2, 2);
        let _ = l.forward(Tensor::zeros(vec![1, 2]), true);
        let y = l.forward(Tensor::zeros(vec![3, 2]), false);
        l.backward(y);
    }
}
