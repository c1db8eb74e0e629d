//! Gradient compression operators for communication-efficient distributed
//! training.
//!
//! This crate implements the sparsification layer of the paper:
//!
//! * [`mstopk`] — **MSTopK** (§3.1, Algorithm 1): the paper's approximate
//!   top-k operator. Instead of a data-dependent selection it runs `N`
//!   iterations of a binary threshold search over `[mean|x|, max|x|]`,
//!   counting (in a branch-free streaming pass) how many elements exceed the
//!   candidate threshold, and finally assembles *exactly* `k` elements from
//!   the two best bracketing thresholds.
//! * [`exact`] — exact top-k selection, both the naive full-sort variant
//!   (the `nn.topk` baseline of Fig. 6) and an expected-linear-time
//!   quickselect.
//! * [`dgc`] — the double-sampling top-k of Deep Gradient Compression
//!   (Lin et al., 2018), the paper's stronger baseline in Fig. 6.
//! * [`randomk`] — random-k sparsification, a common convergence baseline.
//! * [`error_feedback`] — residual accumulation (Stich et al., 2018), which
//!   both TopK-SGD and MSTopK-SGD require for convergence.
//! * [`quantize`] — the *other* compression family the paper's related
//!   work surveys: QSGD, TernGrad and scaled-sign quantizers.
//! * [`gpu_cost`] — an analytic V100 memory-pass cost model used to
//!   reproduce the *GPU* timing shape of Fig. 6 on non-GPU hardware.
//!
//! All operators implement the [`Compressor`] trait and produce a
//! [`SparseGrad`] of `(values, indices)` pairs — the wire format aggregated
//! by the hierarchical top-k communication in `cloudtrain-collectives`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod dgc;
pub mod error_feedback;
pub mod exact;
pub mod gpu_cost;
pub mod mstopk;
pub mod quantize;
pub mod randomk;
mod sparse;

pub use error_feedback::ErrorFeedback;
pub use mstopk::{FusedCounts, MsTopK, MsTopKNaive};
pub use sparse::SparseGrad;

/// A top-k (or top-k-like) gradient compressor.
///
/// Implementations select `k` coordinates of the input and return them as a
/// [`SparseGrad`]. Exact operators return the `k` largest by magnitude;
/// approximate operators ([`MsTopK`], [`dgc::Dgc`]) trade exactness for
/// GPU-friendly access patterns, and [`randomk::RandomK`] ignores magnitudes
/// entirely.
pub trait Compressor {
    /// Selects `k` coordinates of `x`.
    ///
    /// Implementations must return exactly `min(k, x.len())` pairs with
    /// in-bounds indices, strictly ascending and therefore unique: the
    /// sparse collectives count an aggregated shard's nonzeros by merging
    /// the gathered selections as sorted runs.
    fn compress(&mut self, x: &[f32], k: usize) -> SparseGrad;

    /// Accumulates `grad` into `acc` (`acc[i] = grad[i] + acc[i]`) and
    /// selects `k` coordinates of the sum — the error-feedback entry, where
    /// `acc` is the residual ([`ErrorFeedback::select`]).
    ///
    /// The default stages the two steps. An operator whose first streaming
    /// pass can carry the addition overrides it ([`MsTopK`] does); the
    /// selection and the contents of `acc` afterwards must be those of the
    /// staged form, bit for bit.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    fn compress_accumulated(&mut self, acc: &mut [f32], grad: &[f32], k: usize) -> SparseGrad {
        cloudtrain_tensor::ops::add_assign(acc, grad);
        self.compress(acc, k)
    }

    /// A sink for the fold that is about to produce the `d`-element tensor
    /// the next [`Self::compress`] call selects from, so the operator can
    /// sweep each piece while the fold has it in cache (HiTopKComm's last
    /// ReduceScatter hop offers one). The default, for operators with
    /// nothing to gain, is none.
    ///
    /// The fold must hand the sink the pieces it writes, in order, and the
    /// next `compress` call must be on the whole folded slice as the fold
    /// left it. Whatever the sink gathers changes no bit of any result: it
    /// only spares the operator a pass.
    fn fold_sink(&mut self, d: usize) -> Option<&mut dyn FoldSink> {
        let _ = d;
        None
    }

    /// Short human-readable operator name (used in benchmark tables).
    fn name(&self) -> &'static str;
}

/// The last fold of a tensor that a [`Compressor`] asked to see
/// ([`Compressor::fold_sink`]).
pub trait FoldSink {
    /// Folds one piece — `acc[i] += x[i] + y[i]`, then `x[i] = 0.0`, bitwise
    /// as `ops::add_sum_drain(acc, x, y)` — where `acc` is the tensor's
    /// elements from offset `at` on.
    fn fold(&mut self, at: usize, acc: &mut [f32], x: &mut [f32], y: &[f32]);
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use cloudtrain_tensor::init;

    #[test]
    fn all_compressors_return_exactly_k_unique_indices() {
        let mut rng = init::rng_from_seed(123);
        let x = init::gradient_like_tensor(10_000, &mut rng);
        let k = 100;
        let mut ops: Vec<Box<dyn Compressor>> = vec![
            Box::new(exact::SortTopK),
            Box::new(exact::QuickTopK),
            Box::new(MsTopK::new(30, 7)),
            Box::new(dgc::Dgc::new(0.01, 9)),
            Box::new(randomk::RandomK::new(5)),
        ];
        for op in &mut ops {
            let s = op.compress(x.as_slice(), k);
            assert_eq!(s.len(), k, "{} returned {} elements", op.name(), s.len());
            let mut idx = s.indices.clone();
            idx.sort_unstable();
            idx.dedup();
            assert_eq!(idx.len(), k, "{} returned duplicate indices", op.name());
            assert!(
                s.indices.windows(2).all(|w| w[0] < w[1]),
                "{} returned indices out of ascending order",
                op.name()
            );
            assert!(
                idx.iter().all(|&i| (i as usize) < x.len()),
                "{} returned out-of-bounds index",
                op.name()
            );
        }
    }

    #[test]
    fn compressors_clamp_k_to_input_length() {
        let x = [1.0f32, -2.0, 3.0];
        let mut ops: Vec<Box<dyn Compressor>> = vec![
            Box::new(exact::SortTopK),
            Box::new(exact::QuickTopK),
            Box::new(MsTopK::new(10, 7)),
            Box::new(dgc::Dgc::new(0.5, 9)),
            Box::new(randomk::RandomK::new(5)),
        ];
        for op in &mut ops {
            let s = op.compress(&x, 10);
            assert_eq!(s.len(), 3, "{}", op.name());
        }
    }
}
