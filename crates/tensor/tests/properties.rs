//! Property-based tests for the tensor kernels.

use cloudtrain_tensor::half::F16;
use cloudtrain_tensor::{ops, partition};
use proptest::prelude::*;

fn small_vec() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e4f32..1e4, 0..200)
}

/// Values that cancel to `+0.0` (`1 + -1`, `2 + -1 + -1`), keep a `-0.0`
/// start at `-0.0` (`-0.0 + -0.0`), and poison a slot for good (NaN).
const PALETTE: [f32; 8] = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5, f32::NAN];

/// Up to four strictly ascending `(indices, values)` blocks over
/// `codes.len()` coordinates, sharing coordinates wherever two blocks pick
/// the same one: nibble `t` of `codes[c]` puts coordinate `c` into block
/// `t` (bit 3) with value `PALETTE[low 3 bits]`.
fn sorted_blocks(codes: &[u16], m: usize) -> Vec<(Vec<u32>, Vec<f32>)> {
    (0..m)
        .map(|t| {
            codes
                .iter()
                .enumerate()
                .filter_map(|(c, code)| {
                    let nibble = (code >> (4 * t)) & 0xF;
                    (nibble & 0x8 != 0).then(|| (c as u32, PALETTE[usize::from(nibble & 0x7)]))
                })
                .unzip()
        })
        .collect()
}

fn nonzeros(y: &[f32]) -> usize {
    y.iter().filter(|v| **v != 0.0).count()
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
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
    fn scatter_add_counts_what_a_full_pass_would(
        codes in prop::collection::vec(any::<u16>(), 0..64),
        start in prop::collection::vec(0usize..8, 0..64),
        m in 1usize..5,
    ) {
        // From an all-`+0.0` start, as step (iv) scatters, and from a
        // drawn one (`-0.0`, NaN and non-zeros included): each call
        // returns how many non-zeros it added, net of those it cancelled,
        // and adds exactly as the plain loop does.
        let drawn = (0..codes.len()).map(|c| start.get(c).map_or(0.0, |&p| PALETTE[p]));
        for mut y in [vec![0.0f32; codes.len()], drawn.collect()] {
            let mut want = y.clone();
            for (idx, vals) in sorted_blocks(&codes, m) {
                let before = nonzeros(&y) as isize;
                let delta = ops::scatter_add(&mut y, &idx, &vals);
                prop_assert_eq!(delta, nonzeros(&y) as isize - before);
                for (&i, &v) in idx.iter().zip(&vals) {
                    want[i as usize] += v;
                }
            }
            prop_assert_eq!(bits(&y), bits(&want));
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
