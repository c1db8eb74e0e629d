//! Flat slice kernels shared by the compression operators, collectives, and
//! optimizers.
//!
//! The kernels are written as simple loops over contiguous slices: the
//! compiler auto-vectorises all of them, and the branch-free counting
//! kernels ([`count_ge`], [`mean_abs`], [`max_abs`]) are the CPU analogue of
//! the coalesced streaming passes that make MSTopK GPU-friendly in the
//! paper (§3.1).
//!
//! # Canonical reduction schedule
//!
//! Every kernel exists once, and the blocked floating-point reductions
//! ([`mean_abs`], [`max_abs`] and the fused `*_abs_stats_blocked` passes)
//! follow one fixed schedule, so a result never depends on how a caller
//! fuses or stages the pass. Across blocks, fixed-width blocks of
//! [`REDUCE_BLOCK`] elements are folded with per-block partials combined in
//! block-index order. Within a block, element `i` accumulates into lane
//! `i % LANES` in index order, the [`LANES`] lane partials are combined in
//! lane order, and the sub-lane tail is folded last. The loops are plain
//! `chunks_exact(LANES)` loops over a `[f32; LANES]` accumulator, which LLVM
//! already lowers onto vector registers (DESIGN.md §6.3 has the
//! measurement). Mutating kernels are position-wise (`axpy`, `add_assign`)
//! or apply their contributions in `idx` order (`scatter_add`). The
//! `#[cfg(test)]` `reference` module restates the schedule by index
//! arithmetic and the tests hold every kernel to it bit for bit.

/// Width of the fixed reduction blocks. Floating-point partials are
/// combined in block-index order, so fusing or staging a pass never changes
/// a result.
pub const REDUCE_BLOCK: usize = 1 << 16;

/// Lane width of the canonical in-block reduction schedule.
/// [`REDUCE_BLOCK`] is a multiple of `LANES`, so full blocks have no
/// sub-lane tail.
pub const LANES: usize = 8;

/// `Σ|v|` of one block under the canonical lane-striped schedule.
fn block_sum_abs(b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = b.chunks_exact(LANES);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c) {
            *a += v.abs();
        }
    }
    let mut total = 0.0f32;
    for a in acc {
        total += a;
    }
    for v in chunks.remainder() {
        total += v.abs();
    }
    total
}

/// `max|v|` of one block; 0 for an empty one.
///
/// The lane accumulators start at `0.0` and only ever take a magnitude
/// that compared greater, so they never hold NaN; under that invariant the
/// compare-and-keep below is bitwise `f32::max` (a NaN magnitude fails the
/// compare and is skipped, exactly as `max` ignores it) while lowering to a
/// plain compare + blend instead of `max`'s NaN-ordering sequence — ~2x
/// faster on the baseline SSE2 target.
fn block_max_abs(b: &[f32]) -> f32 {
    let mut acc = [0.0f32; LANES];
    let mut chunks = b.chunks_exact(LANES);
    for c in &mut chunks {
        for (a, v) in acc.iter_mut().zip(c) {
            let m = v.abs();
            *a = if m > *a { m } else { *a };
        }
    }
    let mut m = 0.0f32;
    for a in acc {
        m = m.max(a);
    }
    for v in chunks.remainder() {
        m = m.max(v.abs());
    }
    m
}

/// `y[i] += x[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "add_assign: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += xi;
    }
}

/// `y[i] -= x[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "sub_assign: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi -= xi;
    }
}

/// `y[i] = a * x[i] + y[i]` (BLAS `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x[i] *= a` for all `i`.
pub fn scale(x: &mut [f32], a: f32) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Fills `x` with `v`.
pub fn fill(x: &mut [f32], v: f32) {
    for xi in x.iter_mut() {
        *xi = v;
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
///
/// Squares are folded per [`REDUCE_BLOCK`]-wide block and the block
/// partials combined in block-index order, pinning the reduction tree to
/// the same shape as the other reductions (identical to the old flat fold
/// for inputs up to one block).
pub fn l2_norm(x: &[f32]) -> f32 {
    let mut total = 0.0f32;
    for b in x.chunks(REDUCE_BLOCK) {
        let mut part = 0.0f32;
        for v in b {
            part += v * v;
        }
        total += part;
    }
    total.sqrt()
}

/// Sum of all elements.
pub fn sum(x: &[f32]) -> f32 {
    x.iter().sum()
}

/// Arithmetic mean of the absolute values (the `mean(abs(x))` pass of
/// MSTopK, Algorithm 1 line 2). Returns 0 for an empty slice.
pub fn mean_abs(x: &[f32]) -> f32 {
    if x.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f32;
    for b in x.chunks(REDUCE_BLOCK) {
        total += block_sum_abs(b);
    }
    total / x.len() as f32
}

/// Maximum absolute value (Algorithm 1 line 3). Returns 0 for an empty slice.
pub fn max_abs(x: &[f32]) -> f32 {
    x.chunks(REDUCE_BLOCK)
        .map(block_max_abs)
        .fold(0.0f32, f32::max)
}

/// Block-ordered fold of `Σ|·|` and `max|·|`: the partials [`mean_abs`] and
/// [`max_abs`] combine, gathered together by the one-pass kernels below.
struct AbsFold {
    total: f32,
    max: f32,
}

impl AbsFold {
    const EMPTY: Self = Self {
        total: 0.0,
        max: 0.0,
    };

    fn push(&mut self, b: &[f32]) {
        self.total += block_sum_abs(b);
        self.max = self.max.max(block_max_abs(b));
    }

    /// `(mean_abs, max_abs)` of the `len` elements pushed.
    fn finish(self, len: usize) -> (f32, f32) {
        if len == 0 {
            (0.0, 0.0)
        } else {
            (self.total / len as f32, self.max)
        }
    }
}

/// `(mean_abs(x), max_abs(x))` in one blocked pass that also hands every
/// [`REDUCE_BLOCK`]-wide block to `visit(start, block)` while it is still
/// cache-resident (`start` is the block's offset in `x`).
///
/// The partials come from the per-block kernels of the standalone
/// reductions and are folded in block-index order, so both statistics are
/// bitwise those of [`mean_abs`] and [`max_abs`].
pub fn abs_stats_blocked(x: &[f32], mut visit: impl FnMut(usize, &[f32])) -> (f32, f32) {
    let mut fold = AbsFold::EMPTY;
    for (b, xb) in x.chunks(REDUCE_BLOCK).enumerate() {
        fold.push(xb);
        visit(b * REDUCE_BLOCK, xb);
    }
    fold.finish(x.len())
}

/// [`add_assign`] fused with [`abs_stats_blocked`]: block by block,
/// `y[i] += x[i]`, then the statistics and `visit` on the updated block —
/// one read of `x`, one read and one write of `y` for all three.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_assign_abs_stats_blocked(
    y: &mut [f32],
    x: &[f32],
    mut visit: impl FnMut(usize, &[f32]),
) -> (f32, f32) {
    assert_eq!(
        y.len(),
        x.len(),
        "add_assign_abs_stats_blocked: length mismatch"
    );
    let mut fold = AbsFold::EMPTY;
    for (b, (yb, xb)) in y
        .chunks_mut(REDUCE_BLOCK)
        .zip(x.chunks(REDUCE_BLOCK))
        .enumerate()
    {
        add_assign(yb, xb);
        fold.push(yb);
        visit(b * REDUCE_BLOCK, yb);
    }
    fold.finish(y.len())
}

/// Counts elements whose absolute value is `>= thres` (Algorithm 1 line 10's
/// `count_nonzero(a >= thres)` with `a = abs(x)`).
///
/// Branch-free streaming pass — this is the kernel MSTopK repeats `N` times
/// instead of performing a data-dependent selection. The lane counters are
/// `u32` — twice as many per vector register as `usize` ones — and are
/// flushed into the `usize` total every [`REDUCE_BLOCK`] elements, long
/// before one could wrap.
pub fn count_ge(x: &[f32], thres: f32) -> usize {
    let mut total = 0usize;
    for part in x.chunks(REDUCE_BLOCK) {
        let mut acc = [0u32; LANES];
        let mut chunks = part.chunks_exact(LANES);
        for c in &mut chunks {
            for (a, v) in acc.iter_mut().zip(c) {
                *a += u32::from(v.abs() >= thres);
            }
        }
        total += acc.iter().map(|&a| a as usize).sum::<usize>()
            + chunks
                .remainder()
                .iter()
                .map(|v| usize::from(v.abs() >= thres))
                .sum::<usize>();
    }
    total
}

/// Collects the indices of elements with `|x[i]| >= thres`, preserving order.
pub fn indices_ge(x: &[f32], thres: f32) -> Vec<u32> {
    x.iter()
        .enumerate()
        .filter(|(_, v)| v.abs() >= thres)
        .map(|(i, _)| i as u32)
        .collect()
}

/// Collects the indices of elements with `lo <= |x[i]| < hi`, preserving
/// order (Algorithm 1 line 26: the between-thresholds bracket).
pub fn indices_in_band(x: &[f32], lo: f32, hi: f32) -> Vec<u32> {
    x.iter()
        .enumerate()
        .filter(|(_, v)| {
            let a = v.abs();
            a >= lo && a < hi
        })
        .map(|(i, _)| i as u32)
        .collect()
}

/// Gathers `x[idx[i]]` into a new vector.
///
/// # Panics
/// Panics if any index is out of bounds.
pub fn gather(x: &[f32], idx: &[u32]) -> Vec<f32> {
    idx.iter().map(|&i| x[i as usize]).collect()
}

/// Scatter-add: `y[idx[i]] += vals[i]`, applied in `idx` order.
///
/// Used to accumulate sparse gradient contributions after an AllGather of
/// (values, indices) pairs (Algorithm 2 line 18).
///
/// # Panics
/// Panics if `idx` and `vals` have different lengths or an index is out of
/// bounds.
pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
    assert_eq!(idx.len(), vals.len(), "scatter_add: length mismatch");
    for (&i, &v) in idx.iter().zip(vals) {
        y[i as usize] += v;
    }
}

/// Zeros the elements of `x` at the given indices (used by error-feedback to
/// clear the transmitted coordinates from the residual).
///
/// # Panics
/// Panics if an index is out of bounds.
pub fn zero_at(x: &mut [f32], idx: &[u32]) {
    for &i in idx {
        x[i as usize] = 0.0;
    }
}

/// Returns `max(|a[i] - b[i]|)`, the L∞ distance; 0 for empty slices.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn linf_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "linf_distance: length mismatch");
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (x, y)| m.max((x - y).abs()))
}

/// Checks approximate element-wise equality with the given absolute
/// tolerance.
pub fn approx_eq(a: &[f32], b: &[f32], tol: f32) -> bool {
    a.len() == b.len() && linf_distance(a, b) <= tol
}

/// The canonical schedule restated by index arithmetic — no chunking, no
/// iterator adaptors, nothing shared with the kernels above — as the oracle
/// the tests compare `to_bits` against.
#[cfg(test)]
mod reference {
    use super::{LANES, REDUCE_BLOCK};

    /// Folds one block: element `i` into lane `i % LANES` in index order,
    /// lanes combined in lane order, the sub-lane tail last.
    fn fold_block(b: &[f32], mut acc: impl FnMut(f32, f32) -> f32) -> f32 {
        let full = b.len() / LANES * LANES;
        let mut lanes = [0.0f32; LANES];
        for (i, v) in b[..full].iter().enumerate() {
            lanes[i % LANES] = acc(lanes[i % LANES], v.abs());
        }
        let mut out = 0.0f32;
        for lane in lanes {
            out = acc(out, lane);
        }
        for v in &b[full..] {
            out = acc(out, v.abs());
        }
        out
    }

    /// Folds the block partials in block-index order.
    fn fold_blocks(x: &[f32], acc: impl Fn(f32, f32) -> f32) -> f32 {
        let mut out = 0.0f32;
        for b in 0..x.len().div_ceil(REDUCE_BLOCK) {
            let end = x.len().min((b + 1) * REDUCE_BLOCK);
            out = acc(out, fold_block(&x[b * REDUCE_BLOCK..end], &acc));
        }
        out
    }

    pub fn mean_abs(x: &[f32]) -> f32 {
        if x.is_empty() {
            return 0.0;
        }
        fold_blocks(x, |a, b| a + b) / x.len() as f32
    }

    /// The `f32::max` form of the schedule.
    pub fn max_abs(x: &[f32]) -> f32 {
        fold_blocks(x, f32::max)
    }

    pub fn count_ge(x: &[f32], thres: f32) -> usize {
        x.iter().filter(|v| v.abs() >= thres).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_matches_manual() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = [1.5, -2.5, 0.0, 4.0];
        let mut y = [1.0, 1.0, 1.0, 1.0];
        add_assign(&mut y, &x);
        sub_assign(&mut y, &x);
        assert_eq!(y, [1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn norms_and_dot() {
        let a = [3.0, 4.0];
        assert_eq!(l2_norm(&a), 5.0);
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(sum(&a), 7.0);
    }

    #[test]
    fn abs_stats() {
        let x = [-4.0, 1.0, -2.0, 3.0];
        assert_eq!(mean_abs(&x), 2.5);
        assert_eq!(max_abs(&x), 4.0);
        assert_eq!(mean_abs(&[]), 0.0);
        assert_eq!(max_abs(&[]), 0.0);
    }

    #[test]
    fn counting_and_band_selection() {
        let x = [-4.0, 1.0, -2.0, 3.0];
        assert_eq!(count_ge(&x, 2.0), 3);
        assert_eq!(indices_ge(&x, 3.0), vec![0, 3]);
        assert_eq!(indices_in_band(&x, 1.0, 3.0), vec![1, 2]);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let x = [10.0, 20.0, 30.0, 40.0];
        let idx = [3u32, 1];
        let vals = gather(&x, &idx);
        assert_eq!(vals, vec![40.0, 20.0]);
        let mut y = [0.0; 4];
        scatter_add(&mut y, &idx, &vals);
        assert_eq!(y, [0.0, 20.0, 0.0, 40.0]);
        let mut z = x;
        zero_at(&mut z, &idx);
        assert_eq!(z, [10.0, 0.0, 30.0, 0.0]);
    }

    #[test]
    fn distance_helpers() {
        let a = [1.0, 2.0];
        let b = [1.0, 2.5];
        assert_eq!(linf_distance(&a, &b), 0.5);
        assert!(approx_eq(&a, &b, 0.5));
        assert!(!approx_eq(&a, &b, 0.4));
        assert!(!approx_eq(&a, &[1.0], 1.0));
    }

    #[test]
    fn scale_and_fill() {
        let mut x = [1.0, -2.0];
        scale(&mut x, -2.0);
        assert_eq!(x, [-2.0, 4.0]);
        fill(&mut x, 7.0);
        assert_eq!(x, [7.0, 7.0]);
    }

    #[test]
    fn reductions_span_block_boundaries() {
        // Straddle several REDUCE_BLOCK boundaries so the block-ordered
        // combine path is exercised (not just the single-block fast case).
        let d = 2 * REDUCE_BLOCK + 17;
        let x: Vec<f32> = (0..d).map(|i| ((i % 101) as f32 - 50.0) * 0.25).collect();
        let linear_count = x.iter().filter(|v| v.abs() >= 6.0).count();
        assert_eq!(count_ge(&x, 6.0), linear_count);
        let max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert_eq!(max_abs(&x), max);
        // Mean over blocks stays within float noise of the linear mean.
        let linear_mean = x.iter().map(|v| v.abs() as f64).sum::<f64>() / d as f64;
        assert!((mean_abs(&x) as f64 - linear_mean).abs() < 1e-3);
    }

    /// The kernels must compute exactly the canonical schedule — lane-striped
    /// in-block partials combined in block-index order — on empty, sub-lane,
    /// ragged and multi-block inputs alike.
    #[test]
    fn dispatch_matches_canonical_schedule() {
        for d in [
            0,
            1,
            LANES - 1,
            LANES,
            3 * LANES + 5,
            REDUCE_BLOCK - 1,
            REDUCE_BLOCK,
            REDUCE_BLOCK + LANES + 3,
            3 * REDUCE_BLOCK + 19,
        ] {
            let x: Vec<f32> = (0..d)
                .map(|i| (((i * 2654435761) % 2001) as f32 - 1000.0) * 1e-3)
                .collect();
            assert_eq!(
                mean_abs(&x).to_bits(),
                reference::mean_abs(&x).to_bits(),
                "mean_abs, d = {d}"
            );
            assert_eq!(
                max_abs(&x).to_bits(),
                reference::max_abs(&x).to_bits(),
                "max_abs, d = {d}"
            );
            assert_eq!(
                count_ge(&x, 0.5),
                reference::count_ge(&x, 0.5),
                "count_ge, d = {d}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn scatter_add_rejects_an_out_of_bounds_index() {
        let mut y = [0.0f32; 4];
        scatter_add(&mut y, &[0, 4], &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "scatter_add: length mismatch")]
    fn scatter_add_rejects_unpaired_values() {
        let mut y = [0.0f32; 4];
        scatter_add(&mut y, &[0, 1], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn zero_at_rejects_an_out_of_bounds_index() {
        let mut x = [1.0f32; 4];
        zero_at(&mut x, &[4]);
    }

    #[test]
    #[should_panic(expected = "add_assign: length mismatch")]
    fn add_assign_rejects_a_length_mismatch() {
        add_assign(&mut [0.0; 3], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "sub_assign: length mismatch")]
    fn sub_assign_rejects_a_length_mismatch() {
        sub_assign(&mut [0.0; 3], &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "axpy: length mismatch")]
    fn axpy_rejects_a_length_mismatch() {
        axpy(1.0, &[0.0; 4], &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "add_assign_abs_stats_blocked: length mismatch")]
    fn fused_accumulate_rejects_a_length_mismatch() {
        add_assign_abs_stats_blocked(&mut [0.0; 3], &[0.0; 4], |_, _| {});
    }

    /// The one-pass kernels must reproduce the standalone reductions bit
    /// for bit (they share the block partials and the fold order), visit
    /// every block once in order, and accumulate exactly like `add_assign`.
    #[test]
    fn blocked_abs_stats_match_the_standalone_kernels_bitwise() {
        for d in [0usize, 5, REDUCE_BLOCK, 2 * REDUCE_BLOCK + 19] {
            let x: Vec<f32> = (0..d)
                .map(|i| (((i * 2654435761) % 2001) as f32 - 1000.0) * 1e-3)
                .collect();
            let mut seen = Vec::new();
            let (mean, max) = abs_stats_blocked(&x, |start, b| seen.push((start, b.len())));
            assert_eq!(mean.to_bits(), mean_abs(&x).to_bits());
            assert_eq!(max.to_bits(), max_abs(&x).to_bits());
            let want: Vec<(usize, usize)> = x
                .chunks(REDUCE_BLOCK)
                .enumerate()
                .map(|(b, c)| (b * REDUCE_BLOCK, c.len()))
                .collect();
            assert_eq!(seen, want);

            let base: Vec<f32> = (0..d).map(|i| ((i % 89) as f32 - 44.0) * 0.125).collect();
            let mut staged = base.clone();
            add_assign(&mut staged, &x);
            let mut fused = base;
            let mut visited = Vec::with_capacity(d);
            let (mean, max) =
                add_assign_abs_stats_blocked(&mut fused, &x, |_, b| visited.extend_from_slice(b));
            assert_eq!(fused, staged);
            assert_eq!(visited, staged, "visit must see the updated blocks");
            assert_eq!(mean.to_bits(), mean_abs(&staged).to_bits());
            assert_eq!(max.to_bits(), max_abs(&staged).to_bits());
        }
    }

    /// Property tests: every kernel family must be bitwise identical to the
    /// index-arithmetic `reference`, for arbitrary lengths (exercising full
    /// lane chunks and ragged tails).
    // The expected values are spelled as indexed loops on purpose: they must
    // not share an iterator shape with the kernels they check.
    #[allow(clippy::needless_range_loop)]
    mod lane_tier_properties {
        use super::super::*;
        use proptest::prelude::*;

        fn grad_vec() -> impl Strategy<Value = Vec<f32>> {
            prop::collection::vec(-1e3f32..1e3, 0..(8 * LANES + 7))
        }

        fn bit_vec(x: &[f32]) -> Vec<u32> {
            x.iter().map(|v| v.to_bits()).collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn reductions_bitwise_identical(x in grad_vec(), thres in 0.0f32..100.0) {
                prop_assert_eq!(
                    mean_abs(&x).to_bits(),
                    reference::mean_abs(&x).to_bits(),
                    "mean_abs diverged on {:?}", x
                );
                prop_assert_eq!(
                    max_abs(&x).to_bits(),
                    reference::max_abs(&x).to_bits(),
                    "max_abs diverged on {:?}", x
                );
                prop_assert_eq!(count_ge(&x, thres), reference::count_ge(&x, thres));
            }

            /// `max_abs` accumulates by compare-and-keep instead of
            /// `f32::max`; the two must agree bit for bit on the values
            /// where they could part ways: NaN, signed zeros, infinities
            /// and subnormals, wherever they fall in a lane.
            #[test]
            fn max_abs_matches_the_f32_max_form(
                bits in prop::collection::vec(any::<u32>(), 0..(8 * LANES + 7)),
            ) {
                let x: Vec<f32> = bits
                    .iter()
                    .map(|&b| match b % 11 {
                        0 => f32::NAN,
                        1 => -f32::NAN,
                        2 => 0.0,
                        3 => -0.0,
                        4 => f32::INFINITY,
                        5 => f32::NEG_INFINITY,
                        6 => f32::from_bits(b >> 9),              // subnormal or +0
                        7 => -f32::from_bits(b >> 9),
                        _ => f32::from_bits(b),                   // anything
                    })
                    .collect();
                let old = reference::max_abs(&x);
                prop_assert_eq!(max_abs(&x).to_bits(), old.to_bits(), "on {:?}", x);
                prop_assert!(!old.is_nan());
            }

            #[test]
            fn elementwise_bitwise_identical(x in grad_vec(), a in -8.0f32..8.0) {
                let mut y: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.0).collect();
                let mut want = y.clone();
                add_assign(&mut y, &x);
                for i in 0..x.len() {
                    want[i] += x[i];
                }
                prop_assert_eq!(bit_vec(&y), bit_vec(&want));
                axpy(a, &x, &mut y);
                for i in 0..x.len() {
                    want[i] += a * x[i];
                }
                prop_assert_eq!(bit_vec(&y), bit_vec(&want));
                sub_assign(&mut y, &x);
                for i in 0..x.len() {
                    want[i] -= x[i];
                }
                prop_assert_eq!(bit_vec(&y), bit_vec(&want));
                scale(&mut y, a);
                for w in want.iter_mut() {
                    *w *= a;
                }
                prop_assert_eq!(bit_vec(&y), bit_vec(&want));
            }

            #[test]
            fn scatter_kernels_bitwise_identical(
                vals in grad_vec(),
                d in 1usize..200,
                salt in 0u32..1000,
            ) {
                // Duplicate-heavy index stream: every position must
                // accumulate its contributions in `idx` order.
                let idx: Vec<u32> = (0..vals.len() as u32)
                    .map(|i| (i.wrapping_mul(2654435761).wrapping_add(salt)) % d as u32)
                    .collect();
                let mut y = vec![0.125f32; d];
                let mut want = y.clone();
                scatter_add(&mut y, &idx, &vals);
                for i in 0..idx.len() {
                    want[idx[i] as usize] += vals[i];
                }
                prop_assert_eq!(bit_vec(&y), bit_vec(&want));
                zero_at(&mut y, &idx);
                for p in 0..d {
                    if idx.contains(&(p as u32)) {
                        want[p] = 0.0;
                    }
                }
                prop_assert_eq!(bit_vec(&y), bit_vec(&want));
            }
        }
    }
}
