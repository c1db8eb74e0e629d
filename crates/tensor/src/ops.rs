//! Flat slice kernels shared by the compression operators, collectives, and
//! optimizers.
//!
//! The kernels are written as simple loops over contiguous slices: the
//! compiler auto-vectorises all of them, and the branch-free counting
//! kernels ([`count_ge`], [`mean_abs`], [`max_abs`]) are the CPU analogue of
//! the coalesced streaming passes that make MSTopK GPU-friendly in the
//! paper (§3.1).
//!
//! # Execution tiers
//!
//! Two independent tier axes compose, and every combination is **bitwise
//! identical** for every input:
//!
//! * **Lane tier** — [`scalar`] (per-element reference loops) vs [`simd`]
//!   (explicit fixed-width `[f32; LANES]` lane-array kernels the
//!   autovectorizer maps onto vector registers; safe, `forbid_unsafe`-clean).
//!   Both modules are always compiled; the `simd` cargo feature selects
//!   which one the dispatching kernels run.
//! * **Thread tier** — [`serial`] (always compiled; the default dispatch
//!   target) vs `parallel` (scoped-thread implementations behind the
//!   `parallel` feature, alias `rayon`).
//!
//! Determinism contract: every floating-point reduction — in *all* tiers —
//! follows one canonical schedule. Across blocks, fixed-width blocks of
//! [`REDUCE_BLOCK`] elements are folded with per-block partials combined in
//! block-index order. Within a block, partials accumulate into [`LANES`]
//! independent lanes striped across the block and are combined in lane
//! order (the *lane-striped schedule*), with the sub-lane tail folded last.
//! The [`scalar`] and [`simd`] modules implement this same schedule —
//! per-element vs lane-array form — so the feature choice never changes a
//! result, and the thread tier computes the same block partials on worker
//! threads and folds them in the same order. Mutating kernels partition
//! their output disjointly (element ranges for `axpy` / `add_assign`, index
//! ranges for `scatter_add`, preserving per-position accumulation order),
//! which makes them trivially deterministic. The property tests assert
//! bitwise identity across all tier combinations.

/// Width of the fixed reduction blocks shared by the serial and parallel
/// tiers. Floating-point partials are combined in block-index order, so the
/// tier choice (and the thread count) never changes a result.
pub const REDUCE_BLOCK: usize = 1 << 16;

/// Lane width of the canonical in-block reduction schedule and of the
/// [`simd`] tier's `[f32; LANES]` kernels. [`REDUCE_BLOCK`] is a multiple
/// of `LANES`, so full blocks have no sub-lane tail.
pub const LANES: usize = 8;

/// Per-element reference forms of the lane kernels (the *scalar* lane tier).
///
/// Every reduction implements the canonical lane-striped schedule (see the
/// module docs) in plain per-element loops, so the results are bitwise
/// identical to the [`simd`] twin for every input — the property tests
/// assert so. This module is always compiled: differential tests and the
/// micro-benches compare the two tiers regardless of the feature set.
pub mod scalar {
    use super::{LANES, REDUCE_BLOCK};

    /// Sum of absolute values under the canonical lane-striped schedule.
    pub fn sum_abs(x: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks = x.chunks_exact(LANES);
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

    /// Maximum absolute value; 0 for an empty slice.
    ///
    /// The lane accumulators start at `0.0` and only ever take a magnitude
    /// that compared greater, so they never hold NaN; under that invariant
    /// the compare-and-keep below is bitwise `f32::max` (a NaN magnitude
    /// fails the compare and is skipped, exactly as `max` ignores it) while
    /// lowering to a plain compare + blend instead of `max`'s NaN-ordering
    /// sequence — ~2x faster on the baseline SSE2 target.
    pub fn max_abs(x: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks = x.chunks_exact(LANES);
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

    /// Elements with `|v| >= thres` (exact — an integer reduction).
    ///
    /// The lane counters are `u32` — twice as many per vector register as
    /// `usize` ones — and are flushed into the `usize` total every
    /// [`REDUCE_BLOCK`] elements, long before one could wrap.
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

    /// Scatter-add: `y[idx[i]] += vals[i]`, applied in `idx` order.
    ///
    /// # Panics
    /// Panics if `idx` and `vals` have different lengths or an index is out
    /// of bounds.
    pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
        assert_eq!(idx.len(), vals.len(), "scatter_add: length mismatch");
        for (&i, &v) in idx.iter().zip(vals) {
            y[i as usize] += v;
        }
    }

    /// Zeros the elements of `x` at the given indices.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn zero_at(x: &mut [f32], idx: &[u32]) {
        for &i in idx {
            x[i as usize] = 0.0;
        }
    }
}

/// Fixed-width lane-array kernels (the *simd* lane tier).
///
/// Each kernel loads `[f32; LANES]` value blocks and applies whole-array
/// arithmetic — the shape LLVM reliably lowers onto vector registers
/// without any `unsafe` or intrinsics. Reductions keep [`LANES`]
/// independent accumulator lanes and combine them in lane order: the
/// canonical lane-striped schedule, identical to [`scalar`], so results are
/// bitwise equal to the scalar tier for every input.
pub mod simd {
    use super::{LANES, REDUCE_BLOCK};

    /// Loads one lane array from a slice of at least `LANES` elements.
    #[inline]
    fn load(c: &[f32]) -> [f32; LANES] {
        std::array::from_fn(|j| c[j])
    }

    /// Element-wise absolute value of one lane array.
    #[inline]
    fn abs_lanes(v: [f32; LANES]) -> [f32; LANES] {
        let mut out = v;
        for o in out.iter_mut() {
            *o = o.abs();
        }
        out
    }

    /// Element-wise sum of two lane arrays.
    #[inline]
    fn add_lanes(a: [f32; LANES], b: [f32; LANES]) -> [f32; LANES] {
        let mut out = a;
        for (o, v) in out.iter_mut().zip(b) {
            *o += v;
        }
        out
    }

    /// Element-wise maximum of a NaN-free accumulator `a` and new values
    /// `b`: compare-and-keep, bitwise `f32::max` while `a` holds no NaN
    /// (see [`super::scalar::max_abs`]).
    #[inline]
    fn max_lanes(a: [f32; LANES], b: [f32; LANES]) -> [f32; LANES] {
        let mut out = a;
        for (o, v) in out.iter_mut().zip(b) {
            *o = if v > *o { v } else { *o };
        }
        out
    }

    /// Sum of absolute values under the canonical lane-striped schedule.
    pub fn sum_abs(x: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks = x.chunks_exact(LANES);
        for c in &mut chunks {
            acc = add_lanes(acc, abs_lanes(load(c)));
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

    /// Maximum absolute value; 0 for an empty slice.
    pub fn max_abs(x: &[f32]) -> f32 {
        let mut acc = [0.0f32; LANES];
        let mut chunks = x.chunks_exact(LANES);
        for c in &mut chunks {
            acc = max_lanes(acc, abs_lanes(load(c)));
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

    /// Elements with `|v| >= thres` (exact — an integer reduction), with
    /// `u32` lane counters flushed every [`REDUCE_BLOCK`] elements (see
    /// [`super::scalar::count_ge`]).
    pub fn count_ge(x: &[f32], thres: f32) -> usize {
        let mut total = 0usize;
        for part in x.chunks(REDUCE_BLOCK) {
            let mut acc = [0u32; LANES];
            let mut chunks = part.chunks_exact(LANES);
            for c in &mut chunks {
                let lane = abs_lanes(load(c));
                for (a, v) in acc.iter_mut().zip(lane) {
                    *a += u32::from(v >= thres);
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

    /// `y[i] += x[i]` for all `i`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn add_assign(y: &mut [f32], x: &[f32]) {
        assert_eq!(y.len(), x.len(), "add_assign: length mismatch");
        let mut yc = y.chunks_exact_mut(LANES);
        let mut xc = x.chunks_exact(LANES);
        for (yl, xl) in (&mut yc).zip(&mut xc) {
            let out = add_lanes(load(yl), load(xl));
            yl.copy_from_slice(&out);
        }
        for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
            *yi += xi;
        }
    }

    /// `y[i] -= x[i]` for all `i`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn sub_assign(y: &mut [f32], x: &[f32]) {
        assert_eq!(y.len(), x.len(), "sub_assign: length mismatch");
        let mut yc = y.chunks_exact_mut(LANES);
        let mut xc = x.chunks_exact(LANES);
        for (yl, xl) in (&mut yc).zip(&mut xc) {
            let mut out = load(yl);
            for (o, v) in out.iter_mut().zip(load(xl)) {
                *o -= v;
            }
            yl.copy_from_slice(&out);
        }
        for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
            *yi -= xi;
        }
    }

    /// `y[i] = a * x[i] + y[i]` (BLAS `axpy`).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(y.len(), x.len(), "axpy: length mismatch");
        let mut yc = y.chunks_exact_mut(LANES);
        let mut xc = x.chunks_exact(LANES);
        for (yl, xl) in (&mut yc).zip(&mut xc) {
            let mut out = load(yl);
            for (o, v) in out.iter_mut().zip(load(xl)) {
                *o += a * v;
            }
            yl.copy_from_slice(&out);
        }
        for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
            *yi += a * xi;
        }
    }

    /// `x[i] *= a` for all `i`.
    pub fn scale(x: &mut [f32], a: f32) {
        let mut xc = x.chunks_exact_mut(LANES);
        for xl in &mut xc {
            let mut out = load(xl);
            for o in out.iter_mut() {
                *o *= a;
            }
            xl.copy_from_slice(&out);
        }
        for xi in xc.into_remainder() {
            *xi *= a;
        }
    }

    /// Scatter-add: `y[idx[i]] += vals[i]`, applied in `idx` order.
    ///
    /// The index/value streams are walked in lane-wide chunks (gathered
    /// into `[f32; LANES]` registers) but contributions land in the exact
    /// global `idx` order, so duplicate indices accumulate identically to
    /// the scalar tier.
    ///
    /// # Panics
    /// Panics if `idx` and `vals` have different lengths or an index is out
    /// of bounds.
    pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
        assert_eq!(idx.len(), vals.len(), "scatter_add: length mismatch");
        let mut ic = idx.chunks_exact(LANES);
        let mut vc = vals.chunks_exact(LANES);
        for (il, vl) in (&mut ic).zip(&mut vc) {
            let lane = load(vl);
            for (j, &i) in il.iter().enumerate() {
                y[i as usize] += lane[j];
            }
        }
        for (&i, &v) in ic.remainder().iter().zip(vc.remainder()) {
            y[i as usize] += v;
        }
    }

    /// Zeros the elements of `x` at the given indices.
    ///
    /// # Panics
    /// Panics if an index is out of bounds.
    pub fn zero_at(x: &mut [f32], idx: &[u32]) {
        let mut ic = idx.chunks_exact(LANES);
        for il in &mut ic {
            for &i in il {
                x[i as usize] = 0.0;
            }
        }
        for &i in ic.remainder() {
            x[i as usize] = 0.0;
        }
    }
}

/// Per-block inner kernels shared verbatim by both thread tiers; each
/// dispatches to the lane tier selected by the `simd` feature. Both lane
/// tiers implement the canonical lane-striped schedule, so the feature
/// never changes a result.
mod block {
    #[cfg(feature = "simd")]
    use super::simd as lane;

    #[cfg(not(feature = "simd"))]
    use super::scalar as lane;

    /// Sum of absolute values of one block.
    pub(super) fn sum_abs(b: &[f32]) -> f32 {
        lane::sum_abs(b)
    }

    /// Maximum absolute value of one block.
    pub(super) fn max_abs(b: &[f32]) -> f32 {
        lane::max_abs(b)
    }

    /// Elements of one block with `|v| >= thres`.
    pub(super) fn count_ge(b: &[f32], thres: f32) -> usize {
        lane::count_ge(b, thres)
    }

    /// `y[i] += a * x[i]` over one block pair.
    pub(super) fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        lane::axpy(a, x, y);
    }

    /// `y[i] += x[i]` over one block pair.
    pub(super) fn add_assign(y: &mut [f32], x: &[f32]) {
        lane::add_assign(y, x);
    }

    /// Scatter-add over the full index stream.
    pub(super) fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
        lane::scatter_add(y, idx, vals);
    }

    /// `x[i] *= a` over one block.
    pub(super) fn scale(x: &mut [f32], a: f32) {
        lane::scale(x, a);
    }

    /// `y[i] -= x[i]` over one block pair.
    pub(super) fn sub_assign(y: &mut [f32], x: &[f32]) {
        lane::sub_assign(y, x);
    }

    /// Zeros the indexed elements.
    pub(super) fn zero_at(x: &mut [f32], idx: &[u32]) {
        lane::zero_at(x, idx);
    }
}

/// Sequential reference tier of the hot kernels.
///
/// Reductions fold [`REDUCE_BLOCK`]-wide blocks in block-index order — the
/// exact combine schedule of the `parallel` tier — so the two are bitwise
/// interchangeable.
pub mod serial {
    use super::{block, REDUCE_BLOCK};

    /// Counts elements whose absolute value is `>= thres`.
    pub fn count_ge(x: &[f32], thres: f32) -> usize {
        x.chunks(REDUCE_BLOCK)
            .map(|b| block::count_ge(b, thres))
            .sum()
    }

    /// Arithmetic mean of absolute values; 0 for an empty slice.
    ///
    /// Per-block partials follow the canonical lane-striped schedule and
    /// are combined in block-index order (see the module docs), so all tier
    /// combinations agree bitwise.
    pub fn mean_abs(x: &[f32]) -> f32 {
        if x.is_empty() {
            return 0.0;
        }
        let mut total = 0.0f32;
        for b in x.chunks(REDUCE_BLOCK) {
            total += block::sum_abs(b);
        }
        total / x.len() as f32
    }

    /// Maximum absolute value; 0 for an empty slice.
    pub fn max_abs(x: &[f32]) -> f32 {
        x.chunks(REDUCE_BLOCK)
            .map(block::max_abs)
            .fold(0.0f32, f32::max)
    }

    /// `y[i] = a * x[i] + y[i]` (BLAS `axpy`).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(y.len(), x.len(), "axpy: length mismatch");
        block::axpy(a, x, y);
    }

    /// `y[i] += x[i]` for all `i`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn add_assign(y: &mut [f32], x: &[f32]) {
        assert_eq!(y.len(), x.len(), "add_assign: length mismatch");
        block::add_assign(y, x);
    }

    /// Scatter-add: `y[idx[i]] += vals[i]`, applied in `idx` order.
    ///
    /// # Panics
    /// Panics if `idx` and `vals` have different lengths or an index is out
    /// of bounds.
    pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
        block::scatter_add(y, idx, vals);
    }
}

/// Deterministic scoped-thread tier of the hot kernels (feature
/// `parallel`, alias `rayon`).
///
/// Reductions map the same [`REDUCE_BLOCK`]-wide blocks as [`serial`] on
/// worker threads and fold the partials in block-index order; mutating
/// kernels partition their output into disjoint ranges. Results are
/// bitwise identical to the serial tier for every input, thread count, and
/// schedule — the property tests assert so.
///
/// Inputs below [`parallel::PAR_THRESHOLD`] run the serial code directly:
/// thread spawns cost more than the kernels save there, and the identical
/// combine order makes the switch invisible.
#[cfg(feature = "parallel")]
pub mod parallel {
    use super::{block, serial, REDUCE_BLOCK};

    /// Minimum element count before a kernel spawns worker threads.
    pub const PAR_THRESHOLD: usize = 1 << 17;

    /// Worker threads for a `len`-element kernel: the machine's available
    /// parallelism, capped by the number of blocks.
    fn threads_for(len: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        hw.clamp(1, len.div_ceil(REDUCE_BLOCK).max(1))
    }

    /// Maps every block and folds the partials in block-index order —
    /// the serial tier's exact combine schedule.
    fn reduce_blocks<T, M, F>(x: &[f32], identity: T, map: M, fold: F) -> T
    where
        T: Send,
        M: Fn(&[f32]) -> T + Sync,
        F: FnMut(T, T) -> T,
    {
        let threads = threads_for(x.len());
        if threads <= 1 || x.len() < PAR_THRESHOLD {
            return x.chunks(REDUCE_BLOCK).map(&map).fold(identity, fold);
        }
        let blocks: Vec<&[f32]> = x.chunks(REDUCE_BLOCK).collect();
        let per_thread = blocks.len().div_ceil(threads);
        let map = &map;
        let partials: Vec<Vec<T>> = std::thread::scope(|s| {
            let handles: Vec<_> = blocks
                .chunks(per_thread)
                .map(|range| s.spawn(move || range.iter().map(|b| map(b)).collect()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("parallel reduce worker panicked"))
                .collect()
        });
        partials.into_iter().flatten().fold(identity, fold)
    }

    /// Applies `f` to disjoint `(y, x)` range pairs on worker threads.
    fn zip_ranges_mut<F>(y: &mut [f32], x: &[f32], f: F)
    where
        F: Fn(&mut [f32], &[f32]) + Sync,
    {
        let threads = threads_for(y.len());
        if threads <= 1 || y.len() < PAR_THRESHOLD {
            f(y, x);
            return;
        }
        let per_thread = y.len().div_ceil(threads);
        let f = &f;
        std::thread::scope(|s| {
            for (yc, xc) in y.chunks_mut(per_thread).zip(x.chunks(per_thread)) {
                s.spawn(move || f(yc, xc));
            }
        });
    }

    /// Counts elements whose absolute value is `>= thres`.
    pub fn count_ge(x: &[f32], thres: f32) -> usize {
        reduce_blocks(x, 0usize, |b| block::count_ge(b, thres), |a, b| a + b)
    }

    /// Arithmetic mean of absolute values; 0 for an empty slice.
    pub fn mean_abs(x: &[f32]) -> f32 {
        if x.is_empty() {
            return 0.0;
        }
        reduce_blocks(x, 0.0f32, block::sum_abs, |a, b| a + b) / x.len() as f32
    }

    /// Maximum absolute value; 0 for an empty slice.
    pub fn max_abs(x: &[f32]) -> f32 {
        reduce_blocks(x, 0.0f32, block::max_abs, f32::max)
    }

    /// `y[i] = a * x[i] + y[i]` (BLAS `axpy`).
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
        assert_eq!(y.len(), x.len(), "axpy: length mismatch");
        zip_ranges_mut(y, x, |yc, xc| block::axpy(a, xc, yc));
    }

    /// `y[i] += x[i]` for all `i`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn add_assign(y: &mut [f32], x: &[f32]) {
        assert_eq!(y.len(), x.len(), "add_assign: length mismatch");
        zip_ranges_mut(y, x, block::add_assign);
    }

    /// Scatter-add: `y[idx[i]] += vals[i]`.
    ///
    /// Each worker owns a disjoint output range and applies, in `idx`
    /// order, exactly the contributions that land in its range — the same
    /// per-position accumulation order as the serial tier.
    ///
    /// # Panics
    /// Panics if `idx` and `vals` have different lengths or an index is
    /// out of bounds.
    pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
        assert_eq!(idx.len(), vals.len(), "scatter_add: length mismatch");
        let threads = threads_for(y.len());
        if threads <= 1 || y.len() < PAR_THRESHOLD || idx.len() < threads {
            serial::scatter_add(y, idx, vals);
            return;
        }
        // The bounds check the serial loop performs implicitly, hoisted so
        // out-of-range indices panic instead of being silently dropped by
        // the range partition below.
        let d = y.len();
        assert!(
            idx.iter().all(|&i| (i as usize) < d),
            "scatter_add: index out of bounds"
        );
        let per_thread = d.div_ceil(threads);
        std::thread::scope(|s| {
            for (part, yc) in y.chunks_mut(per_thread).enumerate() {
                let lo = part * per_thread;
                s.spawn(move || {
                    for (&i, &v) in idx.iter().zip(vals) {
                        let i = i as usize;
                        if i >= lo && i < lo + yc.len() {
                            yc[i - lo] += v;
                        }
                    }
                });
            }
        });
    }
}

/// `y[i] += x[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_assign(y: &mut [f32], x: &[f32]) {
    #[cfg(feature = "parallel")]
    {
        parallel::add_assign(y, x)
    }
    #[cfg(not(feature = "parallel"))]
    {
        serial::add_assign(y, x)
    }
}

/// `y[i] -= x[i]` for all `i`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn sub_assign(y: &mut [f32], x: &[f32]) {
    assert_eq!(y.len(), x.len(), "sub_assign: length mismatch");
    block::sub_assign(y, x);
}

/// `y[i] = a * x[i] + y[i]` (BLAS `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(feature = "parallel")]
    {
        parallel::axpy(a, x, y)
    }
    #[cfg(not(feature = "parallel"))]
    {
        serial::axpy(a, x, y)
    }
}

/// `x[i] *= a` for all `i`.
pub fn scale(x: &mut [f32], a: f32) {
    block::scale(x, a);
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
    #[cfg(feature = "parallel")]
    {
        parallel::mean_abs(x)
    }
    #[cfg(not(feature = "parallel"))]
    {
        serial::mean_abs(x)
    }
}

/// Maximum absolute value (Algorithm 1 line 3). Returns 0 for an empty slice.
pub fn max_abs(x: &[f32]) -> f32 {
    #[cfg(feature = "parallel")]
    {
        parallel::max_abs(x)
    }
    #[cfg(not(feature = "parallel"))]
    {
        serial::max_abs(x)
    }
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
        self.total += block::sum_abs(b);
        self.max = self.max.max(block::max_abs(b));
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
/// bitwise those of [`mean_abs`] and [`max_abs`] in every lane × thread
/// tier.
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
        block::add_assign(yb, xb);
        fold.push(yb);
        visit(b * REDUCE_BLOCK, yb);
    }
    fold.finish(y.len())
}

/// Counts elements whose absolute value is `>= thres` (Algorithm 1 line 10's
/// `count_nonzero(a >= thres)` with `a = abs(x)`).
///
/// Branch-free streaming pass — this is the kernel MSTopK repeats `N` times
/// instead of performing a data-dependent selection.
pub fn count_ge(x: &[f32], thres: f32) -> usize {
    #[cfg(feature = "parallel")]
    {
        parallel::count_ge(x, thres)
    }
    #[cfg(not(feature = "parallel"))]
    {
        serial::count_ge(x, thres)
    }
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

/// Scatter-add: `y[idx[i]] += vals[i]`.
///
/// Used to accumulate sparse gradient contributions after an AllGather of
/// (values, indices) pairs (Algorithm 2 line 18).
///
/// # Panics
/// Panics if `idx` and `vals` have different lengths or an index is out of
/// bounds.
pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) {
    #[cfg(feature = "parallel")]
    {
        parallel::scatter_add(y, idx, vals)
    }
    #[cfg(not(feature = "parallel"))]
    {
        serial::scatter_add(y, idx, vals)
    }
}

/// Zeros the elements of `x` at the given indices (used by error-feedback to
/// clear the transmitted coordinates from the residual).
pub fn zero_at(x: &mut [f32], idx: &[u32]) {
    block::zero_at(x, idx);
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

    /// The dispatching kernels must compute exactly the canonical schedule:
    /// lane-striped in-block partials combined in block-index order. This
    /// runs under every feature combination, pinning all tiers to the same
    /// bits.
    #[test]
    fn dispatch_matches_canonical_schedule() {
        let d = 2 * REDUCE_BLOCK + 19;
        let x: Vec<f32> = (0..d)
            .map(|i| (((i * 2654435761) % 2001) as f32 - 1000.0) * 1e-3)
            .collect();
        let mut total = 0.0f32;
        for b in x.chunks(REDUCE_BLOCK) {
            total += scalar::sum_abs(b);
        }
        assert_eq!(mean_abs(&x).to_bits(), (total / d as f32).to_bits());
        assert_eq!(max_abs(&x).to_bits(), scalar::max_abs(&x).to_bits());
        assert_eq!(count_ge(&x, 0.5), scalar::count_ge(&x, 0.5));
    }

    #[cfg(feature = "parallel")]
    #[test]
    fn parallel_tier_matches_serial_bitwise() {
        let d = parallel::PAR_THRESHOLD + 3 * REDUCE_BLOCK + 11;
        let x: Vec<f32> = (0..d)
            .map(|i| (((i * 2654435761) % 1000) as f32 - 500.0) * 1e-3)
            .collect();
        assert_eq!(parallel::count_ge(&x, 0.25), serial::count_ge(&x, 0.25));
        assert_eq!(parallel::mean_abs(&x), serial::mean_abs(&x));
        assert_eq!(parallel::max_abs(&x), serial::max_abs(&x));

        let mut ya = vec![1.0f32; d];
        let mut yb = ya.clone();
        parallel::axpy(0.5, &x, &mut ya);
        serial::axpy(0.5, &x, &mut yb);
        assert_eq!(ya, yb);
        parallel::add_assign(&mut ya, &x);
        serial::add_assign(&mut yb, &x);
        assert_eq!(ya, yb);

        // Duplicate indices: accumulation order per position must match.
        let idx: Vec<u32> = (0..4096u32).map(|i| (i * 37) % (d as u32)).collect();
        let vals: Vec<f32> = idx.iter().map(|&i| (i as f32).sin()).collect();
        let mut sa = vec![0.0f32; d];
        let mut sb = sa.clone();
        parallel::scatter_add(&mut sa, &idx, &vals);
        serial::scatter_add(&mut sb, &idx, &vals);
        assert_eq!(sa, sb);
    }

    #[cfg(feature = "parallel")]
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn parallel_scatter_add_rejects_out_of_bounds() {
        let mut y = vec![0.0f32; parallel::PAR_THRESHOLD + 1];
        let idx: Vec<u32> = (0..64)
            .map(|i| if i == 63 { y.len() as u32 } else { i })
            .collect();
        let vals = vec![1.0; idx.len()];
        parallel::scatter_add(&mut y, &idx, &vals);
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

    /// Differential property tests: the simd lane tier must be bitwise
    /// identical to the scalar reference on every kernel family, for
    /// arbitrary lengths (exercising full lane chunks and ragged tails).
    mod lane_tier_properties {
        use super::super::{scalar, simd, LANES};
        use proptest::prelude::*;

        fn grad_vec() -> impl Strategy<Value = Vec<f32>> {
            prop::collection::vec(-1e3f32..1e3, 0..(8 * LANES + 7))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn reductions_bitwise_identical(x in grad_vec(), thres in 0.0f32..100.0) {
                prop_assert_eq!(
                    simd::sum_abs(&x).to_bits(),
                    scalar::sum_abs(&x).to_bits(),
                    "sum_abs diverged on {:?}", x
                );
                prop_assert_eq!(
                    simd::max_abs(&x).to_bits(),
                    scalar::max_abs(&x).to_bits(),
                    "max_abs diverged on {:?}", x
                );
                prop_assert_eq!(simd::count_ge(&x, thres), scalar::count_ge(&x, thres));
            }

            /// `max_abs` accumulates by compare-and-keep instead of
            /// `f32::max`; the two must agree bit for bit — across both
            /// lane tiers and against the `f32::max` form — on the values
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
                // The pre-change form: `f32::max` in the same lane-striped
                // schedule.
                let mut acc = [0.0f32; LANES];
                let mut chunks = x.chunks_exact(LANES);
                for c in &mut chunks {
                    for (a, v) in acc.iter_mut().zip(c) {
                        *a = a.max(v.abs());
                    }
                }
                let mut old = 0.0f32;
                for a in acc {
                    old = old.max(a);
                }
                for v in chunks.remainder() {
                    old = old.max(v.abs());
                }
                prop_assert_eq!(scalar::max_abs(&x).to_bits(), old.to_bits(), "scalar on {:?}", x);
                prop_assert_eq!(simd::max_abs(&x).to_bits(), old.to_bits(), "simd on {:?}", x);
                prop_assert!(!old.is_nan());
            }

            #[test]
            fn elementwise_bitwise_identical(x in grad_vec(), a in -8.0f32..8.0) {
                let mut ys: Vec<f32> = x.iter().map(|v| v * 0.5 + 1.0).collect();
                let mut yv = ys.clone();
                scalar::add_assign(&mut ys, &x);
                simd::add_assign(&mut yv, &x);
                prop_assert_eq!(&ys, &yv);
                scalar::axpy(a, &x, &mut ys);
                simd::axpy(a, &x, &mut yv);
                prop_assert_eq!(&ys, &yv);
                scalar::sub_assign(&mut ys, &x);
                simd::sub_assign(&mut yv, &x);
                prop_assert_eq!(&ys, &yv);
                scalar::scale(&mut ys, a);
                simd::scale(&mut yv, a);
                prop_assert_eq!(&ys, &yv);
            }

            #[test]
            fn scatter_kernels_bitwise_identical(
                vals in grad_vec(),
                d in 1usize..200,
                salt in 0u32..1000,
            ) {
                // Duplicate-heavy index stream: per-position accumulation
                // order must match across tiers.
                let idx: Vec<u32> = (0..vals.len() as u32)
                    .map(|i| (i.wrapping_mul(2654435761).wrapping_add(salt)) % d as u32)
                    .collect();
                let mut ys = vec![0.125f32; d];
                let mut yv = ys.clone();
                scalar::scatter_add(&mut ys, &idx, &vals);
                simd::scatter_add(&mut yv, &idx, &vals);
                prop_assert_eq!(&ys, &yv);
                scalar::zero_at(&mut ys, &idx);
                simd::zero_at(&mut yv, &idx);
                prop_assert_eq!(&ys, &yv);
            }
        }
    }
}
