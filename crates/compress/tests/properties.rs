//! Property-based tests for the compression operators.

use cloudtrain_compress::exact::{topk_quickselect, topk_sort};
use cloudtrain_compress::{Compressor, ErrorFeedback, MsTopK, MsTopKNaive, SparseGrad};
use cloudtrain_tensor::ops;
use proptest::prelude::*;

fn grad_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e3f32..1e3, 1..500)
}

proptest! {
    /// Quickselect and full-sort top-k agree on every input and k.
    #[test]
    fn quickselect_equals_sort(x in grad_vec(), k in 0usize..600) {
        prop_assert_eq!(topk_quickselect(&x, k), topk_sort(&x, k));
    }

    /// The exact top-k selection captures at least as much magnitude mass as
    /// any other k-subset — verified against MSTopK's selection.
    #[test]
    fn exact_topk_mass_dominates_mstopk(x in grad_vec(), seed in 0u64..1000) {
        let k = (x.len() / 4).max(1);
        let exact = topk_sort(&x, k);
        let approx = MsTopK::new(30, seed).compress(&x, k);
        prop_assert!(exact.abs_mass() >= approx.abs_mass() - 1e-3);
    }

    /// MSTopK returns exactly k unique in-bounds indices for any input.
    #[test]
    fn mstopk_exactly_k(x in grad_vec(), k_frac in 0.0f64..1.0, n in 1usize..40, seed in 0u64..100) {
        let k = ((x.len() as f64 * k_frac) as usize).min(x.len());
        let s = MsTopK::new(n, seed).compress(&x, k);
        prop_assert_eq!(s.len(), k);
        let mut idx = s.indices.clone();
        idx.sort_unstable();
        idx.dedup();
        prop_assert_eq!(idx.len(), k);
        for (v, &i) in s.values.iter().zip(&s.indices) {
            prop_assert_eq!(*v, x[i as usize]);
        }
    }

    /// Error feedback conserves gradient mass exactly:
    /// transmitted + new residual == compensated gradient.
    #[test]
    fn error_feedback_conserves_mass(x in grad_vec(), k in 1usize..50) {
        let mut ef = ErrorFeedback::new(x.len());
        let mut g = x.clone();
        ef.compensate(&mut g);
        let s = topk_sort(&g, k);
        ef.absorb(&g, &s);
        let mut recon = s.densify();
        ops::add_assign(&mut recon, ef.residual());
        prop_assert!(ops::approx_eq(&recon, &g, 1e-5));
    }

    /// densify/add_into agree.
    #[test]
    fn densify_equals_add_into(x in grad_vec(), k in 0usize..50) {
        let s = topk_sort(&x, k);
        let dense = s.densify();
        let mut acc = vec![0.0; x.len()];
        s.add_into(&mut acc);
        prop_assert_eq!(dense, acc);
    }

    /// The histogram MSTopK is bitwise identical to the paper-literal N-pass
    /// search: same SparseGrad, same MsTopKStats, same RNG consumption —
    /// across random dimensions, sampling counts, and k (including 0, 1, d).
    #[test]
    fn histogram_mstopk_equals_naive(
        x in grad_vec(),
        k_frac in 0.0f64..1.0,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let d = x.len();
        for k in [0usize, 1, ((d as f64) * k_frac) as usize, d] {
            let mut hist = MsTopK::new(n, seed);
            let mut naive = MsTopKNaive::new(n, seed);
            let (sh, th) = hist.select_with_stats(&x, k);
            let (sn, tn) = naive.select_with_stats(&x, k);
            prop_assert_eq!(&sh, &sn, "selection diverged at k={} n={}", k, n);
            prop_assert_eq!(th, tn, "stats diverged at k={} n={}", k, n);
            // Same RNG state afterwards: a second draw must also agree.
            let (sh2, _) = hist.select_with_stats(&x, k.min(d.saturating_sub(1)).max(1).min(d));
            let (sn2, _) = naive.select_with_stats(&x, k.min(d.saturating_sub(1)).max(1).min(d));
            prop_assert_eq!(sh2, sn2, "RNG state diverged at k={} n={}", k, n);
        }
    }

    /// Histogram/naive equivalence holds on all-equal-magnitude inputs,
    /// where no threshold ever under-selects and the band supplies all k.
    #[test]
    fn histogram_mstopk_equals_naive_all_equal(
        mag in 0.5f32..100.0,
        d in 1usize..400,
        k_frac in 0.0f64..1.0,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let x = vec![mag; d];
        let k = ((d as f64) * k_frac) as usize;
        let (sh, th) = MsTopK::new(n, seed).select_with_stats(&x, k);
        let (sn, tn) = MsTopKNaive::new(n, seed).select_with_stats(&x, k);
        prop_assert_eq!(sh, sn);
        prop_assert_eq!(th, tn);
    }

    /// The k-th largest magnitude of the exact selection is a true
    /// threshold: every unselected element is <= every selected one.
    #[test]
    fn exact_selection_is_a_magnitude_cut(x in grad_vec(), k in 1usize..100) {
        let k = k.min(x.len());
        let s: SparseGrad = topk_sort(&x, k);
        let min_sel = s.values.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        let sel: std::collections::BTreeSet<u32> = s.indices.iter().copied().collect();
        for (i, v) in x.iter().enumerate() {
            if !sel.contains(&(i as u32)) {
                prop_assert!(v.abs() <= min_sel);
            }
        }
    }
}
