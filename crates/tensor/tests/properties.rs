//! Property-based tests for the tensor kernels.

use cloudtrain_tensor::half::F16;
use cloudtrain_tensor::{ops, partition};
use proptest::prelude::*;

fn small_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e4f32..1e4, 0..200)
}

proptest! {
    #[test]
    fn count_ge_matches_filter(x in small_vec(), thres in 0.0f32..1e4) {
        let fast = ops::count_ge(&x, thres);
        let slow = x.iter().filter(|v| v.abs() >= thres).count();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn indices_ge_plus_band_is_disjoint_cover(x in small_vec(), a in 0.0f32..100.0, b in 0.0f32..100.0) {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let top = ops::indices_ge(&x, hi);
        let band = ops::indices_in_band(&x, lo, hi);
        // Disjoint.
        for i in &band {
            prop_assert!(!top.contains(i));
        }
        // Union equals indices >= lo.
        let mut union: Vec<u32> = top.iter().chain(band.iter()).copied().collect();
        union.sort_unstable();
        let mut expect = ops::indices_ge(&x, lo);
        expect.sort_unstable();
        prop_assert_eq!(union, expect);
    }

    #[test]
    fn scatter_add_inverts_gather_on_distinct_indices(x in prop::collection::vec(-100.0f32..100.0, 1..100)) {
        let idx: Vec<u32> = (0..x.len() as u32).step_by(2).collect();
        let vals = ops::gather(&x, &idx);
        let mut y = vec![0.0f32; x.len()];
        ops::scatter_add(&mut y, &idx, &vals);
        for (i, v) in y.iter().enumerate() {
            if i.is_multiple_of(2) {
                prop_assert_eq!(*v, x[i]);
            } else {
                prop_assert_eq!(*v, 0.0);
            }
        }
    }

    #[test]
    fn axpy_is_linear(a in -10.0f32..10.0, x in prop::collection::vec(-10.0f32..10.0, 1..50)) {
        let mut y = vec![0.0f32; x.len()];
        ops::axpy(a, &x, &mut y);
        for (yi, xi) in y.iter().zip(&x) {
            prop_assert!((yi - a * xi).abs() < 1e-4);
        }
    }

    #[test]
    fn shards_partition_any_vector(d in 0usize..10_000, p in 1usize..130) {
        let ss = partition::shards(d, p);
        prop_assert_eq!(ss.iter().map(|s| s.len()).sum::<usize>(), d);
        let mut pos = 0;
        for s in &ss {
            prop_assert_eq!(s.start, pos);
            pos = s.end;
        }
        prop_assert_eq!(pos, d);
        let min = ss.iter().map(|s| s.len()).min().unwrap();
        let max = ss.iter().map(|s| s.len()).max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn f16_roundtrip_error_is_relative(v in -60000.0f32..60000.0) {
        let r = F16::from_f32(v).to_f32();
        // Half precision has 11 significand bits: relative error <= 2^-11
        // for normal values, absolute error <= 2^-25 near zero.
        let tol = v.abs() * 2.0f32.powi(-10) + 2.0f32.powi(-24);
        prop_assert!((v - r).abs() <= tol, "v={} r={}", v, r);
    }

    #[test]
    fn f16_conversion_is_monotonic(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
    }
}
