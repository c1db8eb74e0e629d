//! Normalisation layers: per-channel batch norm (for the CNNs) and
//! per-position layer norm (for the Transformer).

use cloudtrain_tensor::Tensor;

use crate::layer::{Layer, Param};

const EPS: f32 = 1e-5;

/// Batch normalisation over `[b, c, h, w]`, normalising each channel
/// across the batch and spatial positions. Keeps running statistics for
/// evaluation mode.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    channels: usize,
    // Per-call statistics and the backward cache: buffers reused across
    // calls; `xhat` is written by training forwards only.
    means: Vec<f32>,
    inv_std: Vec<f32>,
    xhat: Vec<f32>,
    /// `[b, c, h, w]` of the last training forward, until backward
    /// consumes it.
    in_shape: Option<[usize; 4]>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(format!("bn{channels}.gamma"), vec![1.0; channels]),
            beta: Param::new(format!("bn{channels}.beta"), vec![0.0; channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            channels,
            means: Vec::new(),
            inv_std: Vec::new(),
            xhat: Vec::new(),
            in_shape: None,
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let &[b, c, h, w] = x.shape() else {
            panic!("BatchNorm2d: expected [b,c,h,w]");
        };
        assert_eq!(c, self.channels, "BatchNorm2d: channel mismatch");
        let plane = h * w;
        let count = (b * plane) as f32;

        self.inv_std.clear();
        self.inv_std.resize(c, 0.0);
        self.means.clear();
        self.means.resize(c, 0.0);
        let means = &mut self.means;
        if train {
            for (ch, mean) in means.iter_mut().enumerate() {
                let mut sum = 0.0;
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    sum += x.as_slice()[base..base + plane].iter().sum::<f32>();
                }
                *mean = sum / count;
            }
            for (ch, &mean) in means.iter().enumerate() {
                let mut var = 0.0;
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    var += x.as_slice()[base..base + plane]
                        .iter()
                        .map(|v| (v - mean).powi(2))
                        .sum::<f32>();
                }
                let var = var / count;
                self.inv_std[ch] = 1.0 / (var + EPS).sqrt();
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
            }
        } else {
            for (ch, mean) in means.iter_mut().enumerate() {
                *mean = self.running_mean[ch];
                self.inv_std[ch] = 1.0 / (self.running_var[ch] + EPS).sqrt();
            }
        }

        // Evaluation has no backward, so it keeps no `xhat`.
        self.xhat.resize(if train { x.len() } else { 0 }, 0.0);
        for bi in 0..b {
            for (ch, &mean) in means.iter().enumerate() {
                let base = (bi * c + ch) * plane;
                let (g, bta) = (self.gamma.value[ch], self.beta.value[ch]);
                for i in base..base + plane {
                    let xh = (x.as_slice()[i] - mean) * self.inv_std[ch];
                    if train {
                        self.xhat[i] = xh;
                    }
                    x.as_mut_slice()[i] = g * xh + bta;
                }
            }
        }
        self.in_shape = train.then_some([b, c, h, w]);
        x
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let [b, c, h, w] = self
            .in_shape
            .take()
            .expect("BatchNorm2d: backward before forward");
        let plane = h * w;
        let count = (b * plane) as f32;
        let mut dx = Tensor::zeros(vec![b, c, h, w]);

        for ch in 0..c {
            // Accumulate the channel sums needed by the batch-norm backward
            // formula: dxhat, sum(dxhat), sum(dxhat * xhat).
            let mut sum_dxh = 0.0f32;
            let mut sum_dxh_xh = 0.0f32;
            let g = self.gamma.value[ch];
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                for i in base..base + plane {
                    let dxh = dy.as_slice()[i] * g;
                    sum_dxh += dxh;
                    sum_dxh_xh += dxh * self.xhat[i];
                    self.gamma.grad[ch] += dy.as_slice()[i] * self.xhat[i];
                    self.beta.grad[ch] += dy.as_slice()[i];
                }
            }
            let inv_std = self.inv_std[ch];
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                for i in base..base + plane {
                    let dxh = dy.as_slice()[i] * g;
                    dx.as_mut_slice()[i] =
                        inv_std / count * (count * dxh - sum_dxh - self.xhat[i] * sum_dxh_xh);
                }
            }
        }
        dx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }
}

/// Layer normalisation over the last dimension of `[rows, dim]`.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    dim: usize,
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer-norm over feature dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(format!("ln{dim}.gamma"), vec![1.0; dim]),
            beta: Param::new(format!("ln{dim}.beta"), vec![0.0; dim]),
            dim,
            xhat: Vec::new(),
            inv_std: Vec::new(),
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, mut x: Tensor, _train: bool) -> Tensor {
        let d = self.dim;
        assert_eq!(x.len() % d, 0, "LayerNorm: ragged input");
        let rows = x.len() / d;
        self.xhat = vec![0.0; x.len()];
        self.inv_std = vec![0.0; rows];
        for (r, row) in x.as_mut_slice().chunks_mut(d).enumerate() {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            self.inv_std[r] = inv_std;
            for (i, v) in row.iter_mut().enumerate() {
                let xh = (*v - mean) * inv_std;
                self.xhat[r * d + i] = xh;
                *v = self.gamma.value[i] * xh + self.beta.value[i];
            }
        }
        x
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let d = self.dim;
        let rows = dy.len() / d;
        let mut dx = Tensor::zeros(dy.shape().to_vec());
        for r in 0..rows {
            let dy_row = &dy.as_slice()[r * d..(r + 1) * d];
            let xh_row = &self.xhat[r * d..(r + 1) * d];
            let mut sum_dxh = 0.0;
            let mut sum_dxh_xh = 0.0;
            for i in 0..d {
                let dxh = dy_row[i] * self.gamma.value[i];
                sum_dxh += dxh;
                sum_dxh_xh += dxh * xh_row[i];
                self.gamma.grad[i] += dy_row[i] * xh_row[i];
                self.beta.grad[i] += dy_row[i];
            }
            let inv_std = self.inv_std[r];
            let dx_row = &mut dx.as_mut_slice()[r * d..(r + 1) * d];
            for i in 0..d {
                let dxh = dy_row[i] * self.gamma.value[i];
                dx_row[i] =
                    inv_std / d as f32 * (d as f32 * dxh - sum_dxh - xh_row[i] * sum_dxh_xh);
            }
        }
        dx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "layernorm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtrain_tensor::init;

    #[test]
    fn batchnorm_normalises_channels_in_train_mode() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = init::rng_from_seed(1);
        let mut x = init::normal_tensor(4 * 2 * 3 * 3, 5.0, 2.0, &mut rng);
        x.reshape(vec![4, 2, 3, 3]).unwrap();
        let y = bn.forward(x, true);
        // Per-channel mean ~0, var ~1 after normalisation.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for bi in 0..4 {
                let base = (bi * 2 + ch) * 9;
                vals.extend_from_slice(&y.as_slice()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = init::rng_from_seed(2);
        // A few training steps to build running stats.
        for _ in 0..50 {
            let mut x = init::normal_tensor(8 * 9, 3.0, 1.5, &mut rng);
            x.reshape(vec![8, 1, 3, 3]).unwrap();
            let _ = bn.forward(x, true);
        }
        // In eval mode, an input at the running mean maps near beta (0).
        let x = Tensor::full(vec![1, 1, 3, 3], 3.0);
        let y = bn.forward(x, false);
        assert!(
            y.as_slice().iter().all(|v| v.abs() < 0.2),
            "{:?}",
            y.as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn batchnorm_backward_after_an_evaluation_forward_panics() {
        let mut bn = BatchNorm2d::new(1);
        let _ = bn.forward(Tensor::zeros(vec![1, 1, 2, 2]), true);
        let y = bn.forward(Tensor::zeros(vec![1, 1, 2, 2]), false);
        bn.backward(y);
    }

    #[test]
    fn batchnorm_reuses_its_buffers_and_keeps_no_xhat_in_evaluation() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = init::rng_from_seed(6);
        let mut batch = |b: usize| {
            let mut x = init::normal_tensor(b * 2 * 3 * 3, 1.0, 2.0, &mut rng);
            x.reshape(vec![b, 2, 3, 3]).unwrap();
            x
        };
        let _ = bn.forward(batch(4), true);
        let held = (bn.xhat.as_ptr(), bn.inv_std.as_ptr(), bn.means.as_ptr());
        let _ = bn.forward(batch(16), false);
        assert!(bn.xhat.is_empty());
        let _ = bn.forward(batch(4), true);
        assert_eq!(bn.xhat.len(), 4 * 2 * 3 * 3);
        assert_eq!(
            (bn.xhat.as_ptr(), bn.inv_std.as_ptr(), bn.means.as_ptr()),
            held
        );
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = init::rng_from_seed(3);
        let mut x = init::uniform_tensor(2 * 2 * 2 * 2, -1.0, 1.0, &mut rng);
        x.reshape(vec![2, 2, 2, 2]).unwrap();
        let y = bn.forward(x.clone(), true);
        let dx = bn.backward(y); // L = sum(y^2)/2

        let eps = 1e-3;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            // Fresh running stats don't matter for the loss value itself.
            let y = bn.forward(x.clone(), true);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for idx in [0usize, 5, 9] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut bn, &xp);
            xp.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut bn, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 0.05 * numeric.abs().max(0.5),
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn layernorm_rows_are_normalised() {
        let mut ln = LayerNorm::new(8);
        let mut rng = init::rng_from_seed(4);
        let mut x = init::normal_tensor(3 * 8, -2.0, 3.0, &mut rng);
        x.reshape(vec![3, 8]).unwrap();
        let y = ln.forward(x, true);
        for row in y.as_slice().chunks(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(4);
        let mut rng = init::rng_from_seed(5);
        let mut x = init::uniform_tensor(8, -1.0, 1.0, &mut rng);
        x.reshape(vec![2, 4]).unwrap();
        let y = ln.forward(x.clone(), true);
        let dx = ln.backward(y);

        let eps = 1e-3;
        let loss = |ln: &mut LayerNorm, x: &Tensor| -> f32 {
            let y = ln.forward(x.clone(), true);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for idx in 0..8 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut ln, &xp);
            xp.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut ln, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 0.05 * numeric.abs().max(0.5),
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }
}
