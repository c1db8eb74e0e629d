//! Activation and regularisation layers.

use cloudtrain_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layer::{Layer, Param};

/// Rectified linear unit, `y = max(x, 0)`.
#[derive(Debug, Default)]
pub struct Relu {
    /// Pass mask of the last training forward (a reused buffer).
    mask: Vec<bool>,
    /// `mask` belongs to a training forward whose backward is still due.
    recorded: bool,
}

impl Relu {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    // Both passes are selects, not branches: on activations that are
    // positive about half the time a data-dependent branch mispredicts on
    // every other element, and it keeps the loop from being vectorised
    // (DESIGN.md §6.4). A NaN and `-0.0` both fail `> 0.0` and come out
    // `+0.0`.
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        self.recorded = train;
        if train {
            self.mask.resize(x.len(), false);
            for (v, pass) in x.as_mut_slice().iter_mut().zip(&mut self.mask) {
                *pass = *v > 0.0;
                *v = if *pass { *v } else { 0.0 };
            }
        } else {
            // Evaluation has no backward: record nothing.
            for v in x.as_mut_slice() {
                *v = if *v > 0.0 { *v } else { 0.0 };
            }
        }
        x
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        assert!(
            std::mem::take(&mut self.recorded),
            "Relu: backward before forward"
        );
        assert_eq!(dy.len(), self.mask.len(), "Relu: backward shape mismatch");
        for (g, &pass) in dy.as_mut_slice().iter_mut().zip(&self.mask) {
            *g = if pass { *g } else { 0.0 };
        }
        dy
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// The branching loops the selects replaced, kept verbatim as the bitwise
/// oracle.
#[cfg(test)]
mod reference {
    /// Clamps `x` in place; the pass mask when `train`.
    pub fn relu_forward(x: &mut [f32], train: bool) -> Vec<bool> {
        // Clamps one activation; whether it passed.
        fn clamp(v: &mut f32) -> bool {
            let pass = *v > 0.0;
            if !pass {
                *v = 0.0;
            }
            pass
        }
        let mut mask = Vec::new();
        if train {
            mask.resize(x.len(), false);
            for (v, pass) in x.iter_mut().zip(&mut mask) {
                *pass = clamp(v);
            }
        } else {
            for v in x {
                clamp(v);
            }
        }
        mask
    }

    pub fn relu_backward(dy: &mut [f32], mask: &[bool]) {
        for (g, &pass) in dy.iter_mut().zip(mask) {
            if !pass {
                *g = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits_any_nan as bits, poison, tricky};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The selects equal the branches bit for bit — NaN, `±inf`, `±0.0`
        /// and subnormals included — in both modes, and the recorded mask
        /// is the same.
        #[test]
        fn relu_matches_reference_bitwise(len in 0usize..300, seed in 0u64..1_000_000) {
            let mut x = tricky(len, seed);
            poison(&mut x, seed, len / 5);
            let mut dy = tricky(len, seed + 1);
            poison(&mut dy, seed + 1, len / 7);
            for train in [true, false] {
                let mut relu = Relu::new();
                let mut y_ref = x.clone();
                let mask_ref = reference::relu_forward(&mut y_ref, train);
                let y = relu.forward(Tensor::from_vec_1d(x.clone()), train);
                prop_assert_eq!(bits(y.as_slice()), bits(&y_ref));
                if train {
                    prop_assert_eq!(&relu.mask, &mask_ref);
                    let mut dx_ref = dy.clone();
                    reference::relu_backward(&mut dx_ref, &mask_ref);
                    let dx = relu.backward(Tensor::from_vec_1d(dy.clone()));
                    prop_assert_eq!(bits(dx.as_slice()), bits(&dx_ref));
                }
            }
        }
    }

    #[test]
    fn nan_and_negative_zero_clamp_to_positive_zero() {
        let mut r = Relu::new();
        let x = vec![f32::NAN, -0.0, 0.0, f32::NEG_INFINITY, f32::INFINITY];
        let y = r.forward(Tensor::from_vec_1d(x), true);
        let inf = f32::INFINITY.to_bits();
        assert_eq!(bits(y.as_slice()), [0, 0, 0, 0, inf]);
        let dx = r.backward(Tensor::from_vec_1d(vec![f32::NAN; 5]));
        assert_eq!(bits(dx.as_slice()), [0, 0, 0, 0, 0x7fc0_0000]);
    }

    #[test]
    fn forward_clamps_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec_1d(vec![-1.0, 0.0, 2.0]);
        let y = r.forward(x, true);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = Relu::new();
        let _ = r.forward(Tensor::from_vec_1d(vec![-1.0, 0.5, 2.0]), true);
        let dx = r.backward(Tensor::from_vec_1d(vec![10.0, 10.0, 10.0]));
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_an_evaluation_forward_panics() {
        let mut r = Relu::new();
        let _ = r.forward(Tensor::from_vec_1d(vec![1.0]), true);
        let _ = r.forward(Tensor::from_vec_1d(vec![1.0]), false);
        r.backward(Tensor::from_vec_1d(vec![1.0]));
    }

    #[test]
    fn zero_input_has_zero_gradient() {
        // Subgradient convention: ReLU'(0) = 0.
        let mut r = Relu::new();
        let _ = r.forward(Tensor::from_vec_1d(vec![0.0]), true);
        let dx = r.backward(Tensor::from_vec_1d(vec![5.0]));
        assert_eq!(dx.as_slice(), &[0.0]);
    }
}

/// Gaussian error linear unit (tanh approximation), the Transformer's
/// standard activation.
#[derive(Debug, Default)]
pub struct Gelu {
    cached_x: Vec<f32>,
}

impl Gelu {
    /// Creates a GELU layer.
    pub fn new() -> Self {
        Self::default()
    }

    fn gelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6; // sqrt(2/pi)
        0.5 * x * (1.0 + (C * (x + 0.044715 * x * x * x)).tanh())
    }

    fn dgelu(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let u = C * (x + 0.044715 * x * x * x);
        let t = u.tanh();
        let du = C * (1.0 + 3.0 * 0.044715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    }
}

impl Layer for Gelu {
    fn forward(&mut self, mut x: Tensor, _train: bool) -> Tensor {
        self.cached_x = x.as_slice().to_vec();
        for v in x.as_mut_slice() {
            *v = Self::gelu(*v);
        }
        x
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        assert_eq!(
            dy.len(),
            self.cached_x.len(),
            "Gelu: backward shape mismatch"
        );
        for (g, &x) in dy.as_mut_slice().iter_mut().zip(&self.cached_x) {
            *g *= Self::dgelu(x);
        }
        dy
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "gelu"
    }
}

/// Inverted dropout: scales surviving activations by `1/(1-p)` in
/// training mode and is the identity in evaluation mode.
#[derive(Debug)]
pub struct Dropout {
    /// Drop probability.
    pub p: f32,
    rng: StdRng,
    mask: Vec<bool>,
}

impl Dropout {
    /// Creates dropout with probability `p` and a deterministic seed.
    ///
    /// # Panics
    /// Panics unless `0 <= p < 1`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "Dropout: p must be in [0, 1)");
        Self {
            p,
            rng: StdRng::seed_from_u64(seed),
            mask: Vec::new(),
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            // Identity: record a pass-through mask for a paired backward.
            self.mask = vec![true; x.len()];
            return x;
        }
        let scale = 1.0 / (1.0 - self.p);
        self.mask.clear();
        self.mask.reserve(x.len());
        for v in x.as_mut_slice() {
            let keep = self.rng.random::<f32>() >= self.p;
            self.mask.push(keep);
            *v = if keep { *v * scale } else { 0.0 };
        }
        x
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        assert_eq!(
            dy.len(),
            self.mask.len(),
            "Dropout: backward shape mismatch"
        );
        let scale = 1.0 / (1.0 - self.p);
        for (g, &keep) in dy.as_mut_slice().iter_mut().zip(&self.mask) {
            *g = if keep { *g * scale } else { 0.0 };
        }
        dy
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "dropout"
    }
}

#[cfg(test)]
mod gelu_dropout_tests {
    use super::*;

    #[test]
    fn gelu_matches_known_values() {
        // gelu(0) = 0; gelu(x) -> x for large x; gelu(-large) -> 0.
        let mut g = Gelu::new();
        let y = g.forward(Tensor::from_vec_1d(vec![0.0, 5.0, -5.0, 1.0]), true);
        assert_eq!(y.as_slice()[0], 0.0);
        assert!((y.as_slice()[1] - 5.0).abs() < 1e-3);
        assert!(y.as_slice()[2].abs() < 1e-3);
        assert!((y.as_slice()[3] - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_gradcheck() {
        let mut g = Gelu::new();
        let xs = [-2.0f32, -0.5, 0.0, 0.3, 1.7];
        let y = g.forward(Tensor::from_vec_1d(xs.to_vec()), true);
        let dx = g.backward(y.clone()); // L = sum(y^2)/2
        let eps = 1e-3;
        for (i, &x) in xs.iter().enumerate() {
            let lp = Gelu::gelu(x + eps).powi(2) / 2.0;
            let lm = Gelu::gelu(x - eps).powi(2) / 2.0;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[i] - numeric).abs() < 1e-2,
                "x={x}: {} vs {numeric}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn dropout_eval_is_identity() {
        let mut d = Dropout::new(0.5, 1);
        let x = Tensor::from_vec_1d(vec![1.0, 2.0, 3.0]);
        let y = d.forward(x.clone(), false);
        assert_eq!(y, x);
    }

    #[test]
    fn dropout_train_preserves_expectation() {
        let mut d = Dropout::new(0.3, 2);
        let n = 100_000;
        let x = Tensor::from_vec_1d(vec![1.0; n]);
        let y = d.forward(x, true);
        let mean: f32 = y.as_slice().iter().sum::<f32>() / n as f32;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        // Dropped fraction near p.
        let dropped = y.as_slice().iter().filter(|v| **v == 0.0).count() as f32 / n as f32;
        assert!((dropped - 0.3).abs() < 0.02, "dropped {dropped}");
    }

    #[test]
    fn dropout_backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 3);
        let y = d.forward(Tensor::from_vec_1d(vec![1.0; 64]), true);
        let dx = d.backward(Tensor::from_vec_1d(vec![1.0; 64]));
        // Gradient flows exactly where activations survived.
        for (yv, gv) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*yv == 0.0, *gv == 0.0);
            if *yv != 0.0 {
                assert_eq!(*gv, 2.0); // 1/(1-0.5)
            }
        }
    }

    #[test]
    #[should_panic(expected = "p must be")]
    fn invalid_probability_panics() {
        Dropout::new(1.0, 0);
    }
}
