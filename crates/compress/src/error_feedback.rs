//! Error-feedback (residual accumulation) for sparsified SGD.
//!
//! Top-k sparsification discards most gradient coordinates each step. The
//! standard fix — used by DGC (Lin et al., 2018) and analysed by Stich et
//! al. (2018) and Karimireddy et al. (2019) — is to keep the discarded part
//! as a local *residual* and add it back into the next step's gradient
//! before compressing. The paper inherits this mechanism from its TopK-SGD
//! baseline; without it sparsified training at ρ = 0.001 does not converge.
//!
//! Usage per iteration — the residual is the accumulator, so the gradient
//! is read once and the residual written once:
//! 1. [`ErrorFeedback::select`] — `residual += g` and the compressor's
//!    selection from the sum, in one call
//!    ([`Compressor::compress_accumulated`]; MSTopK folds the addition into
//!    its first streaming pass);
//! 2. transmit the selection;
//! 3. [`ErrorFeedback::release`] — clear what was sent from the residual.
//!
//! Where the gradient is produced piece by piece, step 1 can fold each piece
//! into the residual as it arrives instead: write through
//! [`ErrorFeedback::residual_mut`] (`residual[i] = residual[i] + g[i]`),
//! then `compress` [`ErrorFeedback::residual`] — the same selection and
//! residual, and `g` is never materialised. HiTopKComm's last ReduceScatter
//! hop does this (`hitopk_all_reduce_ef_scratch`), so the node-local sum is
//! never written out and read back.
//!
//! A contribution that is not transmitted at all (a missed deadline, a
//! degraded member) is [`ErrorFeedback::withhold`]: `residual += g`, nothing
//! selected, nothing released.
//!
//! The staged form — [`ErrorFeedback::compensate`] (`g += residual`),
//! compress `g`, [`ErrorFeedback::absorb`] (`residual = g − sent`) — leaves
//! the same selection and residual bit for bit at one more read and write of
//! the tensor. It remains for callers that hand the compensated dense
//! gradient on (the trainer's NaiveAG and gTop-k arms) and as the reference
//! the tests hold the fused path to.

use cloudtrain_tensor::ops;

use crate::{Compressor, SparseGrad};

/// Per-worker residual memory for error-compensated compression.
#[derive(Debug, Clone)]
pub struct ErrorFeedback {
    residual: Vec<f32>,
}

impl ErrorFeedback {
    /// Creates a zeroed residual for gradients of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            residual: vec![0.0; dim],
        }
    }

    /// Gradient dimension this memory was created for.
    pub fn dim(&self) -> usize {
        self.residual.len()
    }

    /// Accumulates `grad` into the residual and selects `k` coordinates of
    /// the sum with `compressor` (step 1 above). The selected coordinates
    /// stay in the residual until [`Self::release`] clears them, so every
    /// `select` is followed by exactly one release of what was sent.
    ///
    /// # Panics
    /// Panics if `grad.len() != self.dim()`.
    pub fn select<C: Compressor + ?Sized>(
        &mut self,
        grad: &[f32],
        k: usize,
        compressor: &mut C,
    ) -> SparseGrad {
        assert_eq!(grad.len(), self.dim(), "select: dimension mismatch");
        compressor.compress_accumulated(&mut self.residual, grad, k)
    }

    /// Clears the transmitted coordinates from the residual (step 3 above).
    ///
    /// # Panics
    /// Panics if the selection's dimension differs or an index is out of
    /// range.
    pub fn release(&mut self, sent: &SparseGrad) {
        assert_eq!(
            sent.dim,
            self.dim(),
            "release: selection dimension mismatch"
        );
        ops::zero_at(&mut self.residual, &sent.indices);
    }

    /// Keeps a whole contribution back: `residual += grad`, nothing
    /// selected. What a member that misses its deadline or degrades does in
    /// place of [`Self::select`]; the mass is re-offered next iteration.
    ///
    /// # Panics
    /// Panics if `grad.len() != self.dim()`.
    pub fn withhold(&mut self, grad: &[f32]) {
        assert_eq!(grad.len(), self.dim(), "withhold: dimension mismatch");
        ops::add_assign(&mut self.residual, grad);
    }

    /// Adds the stored residual into `grad` (first step of the staged
    /// form).
    ///
    /// # Panics
    /// Panics if `grad.len() != self.dim()`.
    pub fn compensate(&self, grad: &mut [f32]) {
        assert_eq!(grad.len(), self.dim(), "compensate: dimension mismatch");
        ops::add_assign(grad, &self.residual);
    }

    /// Records the new residual: the compensated gradient minus what was
    /// actually transmitted (last step of the staged form).
    ///
    /// # Panics
    /// Panics if `grad.len() != self.dim()` or the selection's dimension
    /// differs.
    pub fn absorb(&mut self, grad: &[f32], transmitted: &SparseGrad) {
        assert_eq!(grad.len(), self.dim(), "absorb: dimension mismatch");
        self.residual.copy_from_slice(grad);
        self.release(transmitted);
    }

    /// Current residual L2 norm (a convergence diagnostic: bounded residual
    /// norm is the premise of the error-feedback convergence proofs).
    pub fn residual_norm(&self) -> f32 {
        ops::l2_norm(&self.residual)
    }

    /// Read-only view of the residual.
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }

    /// The residual as an accumulator, for a caller that folds the gradient
    /// in itself while it produces it (HiTopKComm's last ReduceScatter hop
    /// adds each arriving piece of the node sum straight into it). Selecting
    /// with `compress` on [`Self::residual`] afterwards is
    /// [`Self::select`]'s accumulate-then-select, bit for bit, when the fold
    /// computed `residual[i] = residual[i] + grad[i]`; [`Self::release`]
    /// follows as usual.
    pub fn residual_mut(&mut self) -> &mut [f32] {
        &mut self.residual
    }

    /// Restores a previously captured residual (the inverse of
    /// [`Self::residual`]), so a worker resuming from a sharded checkpoint
    /// continues bitwise-identically instead of restarting error feedback
    /// from zeros.
    ///
    /// # Panics
    /// Panics if `residual.len() != self.dim()`.
    pub fn set_residual(&mut self, residual: &[f32]) {
        assert_eq!(
            residual.len(),
            self.dim(),
            "set_residual: dimension mismatch"
        );
        self.residual.copy_from_slice(residual);
    }

    /// Clears the residual (e.g. when switching to dense aggregation, as the
    /// DAWNBench schedule does after epoch 13).
    pub fn reset(&mut self) {
        ops::fill(&mut self.residual, 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::topk_sort;

    #[test]
    fn compensate_then_absorb_conserves_mass() {
        // transmitted + residual must equal the compensated gradient.
        let mut ef = ErrorFeedback::new(6);
        let mut g = vec![5.0, -0.1, 0.2, -4.0, 0.05, 3.0];
        ef.compensate(&mut g);
        let s = topk_sort(&g, 2);
        ef.absorb(&g, &s);
        let mut recon = s.densify();
        ops::add_assign(&mut recon, ef.residual());
        assert_eq!(recon, g);
    }

    #[test]
    fn residual_carries_into_next_step() {
        let mut ef = ErrorFeedback::new(4);
        // Step 1: only the large coordinate is sent; small ones accumulate.
        let mut g1 = vec![10.0, 1.0, 1.0, 1.0];
        ef.compensate(&mut g1);
        let s1 = topk_sort(&g1, 1);
        assert_eq!(s1.indices, vec![0]);
        ef.absorb(&g1, &s1);
        assert_eq!(ef.residual(), &[0.0, 1.0, 1.0, 1.0]);

        // Step 2: the same small gradient again — compensation doubles it.
        let mut g2 = vec![0.0, 1.0, 1.0, 1.0];
        ef.compensate(&mut g2);
        assert_eq!(g2, vec![0.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn eventually_every_coordinate_is_transmitted() {
        // With constant gradients and error feedback, even coordinates
        // outside the top-k must eventually be sent (their residual grows).
        let mut ef = ErrorFeedback::new(3);
        let base = vec![3.0, 2.0, 1.0];
        let mut sent = [false; 3];
        for _ in 0..10 {
            let mut g = base.clone();
            ef.compensate(&mut g);
            let s = topk_sort(&g, 1);
            sent[s.indices[0] as usize] = true;
            ef.absorb(&g, &s);
        }
        assert_eq!(sent, [true, true, true]);
    }

    #[test]
    fn reset_clears_residual() {
        let mut ef = ErrorFeedback::new(2);
        let mut g = vec![1.0, 2.0];
        ef.compensate(&mut g);
        ef.absorb(&g, &topk_sort(&g, 1));
        assert!(ef.residual_norm() > 0.0);
        ef.reset();
        assert_eq!(ef.residual_norm(), 0.0);
    }

    #[test]
    fn set_residual_roundtrips_and_resumes_bitwise() {
        // Capture mid-stream residual, rebuild a fresh ErrorFeedback from
        // it, and check both instances stay bitwise-equal from then on —
        // the checkpoint-resume contract.
        let mut ef = ErrorFeedback::new(4);
        let mut g = vec![10.0, 1.0, -2.0, 1.0];
        ef.compensate(&mut g);
        ef.absorb(&g, &topk_sort(&g, 1));
        let captured: Vec<f32> = ef.residual().to_vec();

        let mut resumed = ErrorFeedback::new(4);
        resumed.set_residual(&captured);
        assert_eq!(resumed.residual(), ef.residual());

        let base = vec![0.5, -1.0, 2.0, 0.25];
        for e in [&mut ef, &mut resumed] {
            let mut g = base.clone();
            e.compensate(&mut g);
            let s = topk_sort(&g, 2);
            e.absorb(&g, &s);
        }
        assert_eq!(resumed.residual(), ef.residual());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn set_residual_dimension_mismatch_panics() {
        let mut ef = ErrorFeedback::new(3);
        ef.set_residual(&[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let ef = ErrorFeedback::new(3);
        let mut g = vec![0.0; 4];
        ef.compensate(&mut g);
    }

    /// The fused entry against the staged reference, round after round on
    /// carried state: selection and residual must agree bit for bit through
    /// plain rounds and a withheld contribution — for
    /// MSTopK's fused override above its sampling floor, for MSTopK below
    /// it, and for a generic compressor through the trait default.
    #[test]
    fn fused_rounds_match_the_staged_reference_bitwise() {
        use crate::exact::SortTopK;
        use crate::mstopk::SAMPLE_FLOOR;
        use crate::MsTopK;

        fn bits(x: &[f32]) -> Vec<u32> {
            x.iter().map(|v| v.to_bits()).collect()
        }
        fn rounds<C: Compressor>(d: usize, k: usize, mut fused_op: C, mut staged_op: C) {
            let mut fused = ErrorFeedback::new(d);
            let mut staged = ErrorFeedback::new(d);
            for round in 0..9u32 {
                // Heavy-tailed and different every round.
                let grad: Vec<f32> = (0..d as u32)
                    .map(|i| {
                        let h = (i ^ round.wrapping_mul(0x9E37_79B9)).wrapping_mul(2654435761);
                        let u = ((h >> 8) + 1) as f32 / (1u32 << 24) as f32;
                        let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
                        sign * (-u.ln()).powi(3)
                    })
                    .collect();
                let mut g = grad.clone();
                staged.compensate(&mut g);
                if round == 3 {
                    // A missed deadline: nothing selected, everything kept.
                    fused.withhold(&grad);
                    staged.absorb(&g, &SparseGrad::empty(d));
                } else {
                    let sent = fused.select(&grad, k, &mut fused_op);
                    let want = staged_op.compress(&g, k);
                    assert_eq!(sent.indices, want.indices, "round {round}");
                    assert_eq!(bits(&sent.values), bits(&want.values), "round {round}");
                    fused.release(&sent);
                    staged.absorb(&g, &want);
                }
                assert_eq!(
                    bits(fused.residual()),
                    bits(staged.residual()),
                    "residuals diverged in round {round}"
                );
            }
            assert!(fused.residual_norm() > 0.0);
        }

        let big = 4 * SAMPLE_FLOOR + 17;
        rounds(big, big / 100, MsTopK::new(30, 9), MsTopK::new(30, 9));
        rounds(10_007, 100, MsTopK::new(30, 9), MsTopK::new(30, 9));
        rounds(10_007, 100, SortTopK, SortTopK);
    }

    /// The error-feedback cycle rides entirely on the tensor kernels
    /// (`add_assign`, `zero_at`): a multi-round
    /// compensate→compress→absorb cycle must be bitwise identical to the
    /// same cycle staged by hand on the public kernels.
    #[test]
    fn cycle_matches_scalar_reference_bitwise() {
        let d = 4 * cloudtrain_tensor::ops::LANES + 5;
        let mut ef = ErrorFeedback::new(d);
        let mut ref_residual = vec![0.0f32; d];
        for round in 0..4u32 {
            let base: Vec<f32> = (0..d)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2654435761).wrapping_add(round);
                    ((h % 2001) as f32 - 1000.0) * 1e-3
                })
                .collect();

            let mut g = base.clone();
            ef.compensate(&mut g);
            let s = topk_sort(&g, d / 3);
            ef.absorb(&g, &s);

            let mut g_ref = base;
            ops::add_assign(&mut g_ref, &ref_residual);
            assert_eq!(g, g_ref, "compensated gradients diverged");
            ref_residual.copy_from_slice(&g_ref);
            ops::zero_at(&mut ref_residual, &s.indices);
            assert_eq!(ef.residual(), &ref_residual[..], "residuals diverged");
        }
    }
}
