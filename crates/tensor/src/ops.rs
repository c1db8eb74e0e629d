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
//! ([`mean_abs`], [`max_abs`] and the fused statistics-and-compaction
//! sweeps [`abs_stats_compact`] / [`add_assign_abs_stats_compact`], and
//! [`add_sum_drain_abs_stats_compact`] one block at a time) follow one
//! fixed schedule, so a result never depends on how a caller fuses or
//! stages the pass. Across blocks, fixed-width blocks of
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

/// `acc[i] += x[i] + y[i]`, then `x[i] = 0.0`, for all `i`: the sum lands in
/// `acc` without being stored anywhere else, and `x` comes back zeroed. The
/// additions are those of `add_assign(x, y)` followed by
/// `add_assign(acc, x)`, in that order, so `acc` ends bitwise as that staged
/// form leaves it.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_sum_drain(acc: &mut [f32], x: &mut [f32], y: &[f32]) {
    assert!(
        acc.len() == x.len() && x.len() == y.len(),
        "add_sum_drain: length mismatch"
    );
    for ((a, xi), yi) in acc.iter_mut().zip(x).zip(y) {
        *a += *xi + yi;
        *xi = 0.0;
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

/// Elements per membership word of the fused sweep: one `u64` of survivor
/// bits, eight lane rows of the canonical schedule.
const WORD: usize = 64;

/// What a fused sweep reads: a tensor as given, or one it accumulates into
/// word by word as it goes.
trait SweepSource {
    fn len(&self) -> usize;
    /// Elements `range` of the tensor swept — accumulated first, if this
    /// source accumulates.
    fn word(&mut self, range: std::ops::Range<usize>) -> &[f32];
}

impl SweepSource for &[f32] {
    fn len(&self) -> usize {
        <[f32]>::len(self)
    }

    fn word(&mut self, range: std::ops::Range<usize>) -> &[f32] {
        &self[range]
    }
}

/// `y[i] += x[i]`, applied one word ahead of the sweep.
struct Accumulating<'a> {
    y: &'a mut [f32],
    x: &'a [f32],
}

impl SweepSource for Accumulating<'_> {
    fn len(&self) -> usize {
        self.y.len()
    }

    fn word(&mut self, range: std::ops::Range<usize>) -> &[f32] {
        let y = &mut self.y[range.clone()];
        add_assign(y, &self.x[range]);
        y
    }
}

/// [`add_sum_drain`]'s `acc[i] += x[i] + y[i]`, `x[i] = 0.0`, applied one
/// word ahead of the sweep, which reads `acc`.
struct Draining<'a> {
    acc: &'a mut [f32],
    x: &'a mut [f32],
    y: &'a [f32],
}

impl SweepSource for Draining<'_> {
    fn len(&self) -> usize {
        self.acc.len()
    }

    fn word(&mut self, range: std::ops::Range<usize>) -> &[f32] {
        let acc = &mut self.acc[range.clone()];
        add_sum_drain(acc, &mut self.x[range.clone()], &self.y[range]);
        acc
    }
}

/// Survivors a sweep holds back before appending them to the caller's
/// vectors: the four-slot copy below writes past the last survivor, which
/// only a buffer of its own can allow, and appending a few hundred at a time
/// keeps the vectors' growth checks off the per-word path.
const STAGE: usize = 4 * WORD;

/// Copies out the elements of `word` whose `member` byte is set — their
/// values to `vals`, their indices (`base` + offset) to `idx`, from
/// position `kept` on, which must leave at least a word of room — and
/// returns the new count.
///
/// The bytes are squeezed into one `u64` eight at a time by a multiply: the
/// constant's set bits, 7 apart, carry byte `i`'s low bit to bit `56 + i`
/// with no two partial products meeting (`8i - 7j` is one-to-one on
/// 0..8 x 0..8), so the top byte of the product is the octet's mask. The
/// first four survivors are then copied without a data-dependent branch: a
/// slot is written at `kept` whether or not a survivor is left, and `kept`
/// only advances past a real one, so a spare write lands where the next
/// survivor will. At a few percent density nearly every word has at most
/// four, so the copy loop after them is almost never entered and its exit
/// never mispredicted.
fn keep_members(
    word: &[f32],
    base: usize,
    member: &[u8; WORD],
    vals: &mut [f32; STAGE],
    idx: &mut [u32; STAGE],
    mut kept: usize,
) -> usize {
    let mut bits = 0u64;
    for (o, oct) in member.chunks_exact(8).enumerate() {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = oct else {
            unreachable!("chunks_exact(8) yields exactly 8 elements")
        };
        let bytes = u64::from_le_bytes([b0, b1, b2, b3, b4, b5, b6, b7]);
        bits |= (bytes.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * o);
    }
    for _ in 0..4 {
        // With no bit left this is word[0]: `word` is never empty.
        let b = bits.trailing_zeros() as usize % WORD;
        vals[kept] = word[b];
        idx[kept] = (base + b) as u32;
        kept += usize::from(bits != 0);
        bits &= bits.wrapping_sub(1);
    }
    while bits != 0 {
        let b = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        vals[kept] = word[b];
        idx[kept] = (base + b) as u32;
        kept += 1;
    }
    kept
}

/// The fused sweep behind [`abs_stats_compact`],
/// [`add_assign_abs_stats_compact`], [`add_sum_drain_abs_stats_compact`]
/// and [`compact_ge`]: each [`REDUCE_BLOCK`] is read once, [`WORD`]
/// elements at a time, and each word feeds the block's canonical lane
/// partials of `Σ|v|` and `max|v|` (when `STATS`; otherwise the result is
/// `(0, 0)`) and is compacted while it is in registers and L1, element `i`
/// recorded as index `first + i`. Returns the block partials of `Σ|v|`
/// combined in block order, and `max|v|`.
fn sweep<const STATS: bool>(
    mut src: impl SweepSource,
    first: usize,
    cutoff: f32,
    vals: &mut Vec<f32>,
    idx: &mut Vec<u32>,
) -> (f32, f32) {
    let d = src.len();
    debug_assert!(first + d <= u32::MAX as usize, "indices are u32 repo-wide");
    let mut total = 0.0f32;
    let mut top = 0.0f32;
    let mut staged_vals = [0.0f32; STAGE];
    let mut staged_idx = [0u32; STAGE];
    let mut staged = 0usize;
    for start in (0..d).step_by(REDUCE_BLOCK) {
        let end = d.min(start + REDUCE_BLOCK);
        let mut sum = [0.0f32; LANES];
        let mut max = [0.0f32; LANES];
        // The block's sub-lane tail; only its last word can have one.
        let mut tail = [0.0f32; LANES];
        let mut tail_len = 0;
        for base in (start..end).step_by(WORD) {
            let word = src.word(base..end.min(base + WORD));
            let mut member = [0u8; WORD];
            let mut rows = word.chunks_exact(LANES);
            for (row, m) in (&mut rows).zip(member.chunks_exact_mut(LANES)) {
                for (((s, hi), m), v) in sum.iter_mut().zip(&mut max).zip(m).zip(row) {
                    let a = v.abs();
                    if STATS {
                        *s += a;
                        // Compare-and-keep is `f32::max` here: the lanes
                        // never hold NaN, and a NaN magnitude fails both
                        // compares.
                        *hi = if a > *hi { a } else { *hi };
                    }
                    *m = u8::from(a >= cutoff);
                }
            }
            let rest = rows.remainder();
            if !rest.is_empty() {
                let full = word.len() - rest.len();
                for (m, v) in member[full..].iter_mut().zip(rest) {
                    *m = u8::from(v.abs() >= cutoff);
                }
                tail[..rest.len()].copy_from_slice(rest);
                tail_len = rest.len();
            }
            staged = keep_members(
                word,
                first + base,
                &member,
                &mut staged_vals,
                &mut staged_idx,
                staged,
            );
            if staged > STAGE - WORD {
                vals.extend_from_slice(&staged_vals[..staged]);
                idx.extend_from_slice(&staged_idx[..staged]);
                staged = 0;
            }
        }
        // Lanes combined in lane order, then the sub-lane tail: exactly
        // `block_sum_abs` / `block_max_abs`.
        let mut block_sum = 0.0f32;
        for s in sum {
            block_sum += s;
        }
        let mut block_max = 0.0f32;
        for hi in max {
            block_max = block_max.max(hi);
        }
        for v in &tail[..tail_len] {
            block_sum += v.abs();
            block_max = block_max.max(v.abs());
        }
        total += block_sum;
        top = top.max(block_max);
    }
    vals.extend_from_slice(&staged_vals[..staged]);
    idx.extend_from_slice(&staged_idx[..staged]);
    (total, top)
}

/// `Σ|x|` over `d` elements to [`mean_abs`]'s mean.
fn mean_of(total: f32, d: usize) -> f32 {
    if d == 0 {
        0.0
    } else {
        total / d as f32
    }
}

/// `(mean_abs(x), max_abs(x))` from one sweep that also appends every
/// element with `|x[i]| >= cutoff`, in index order, to the survivor lists:
/// its value `x[i]`, sign and all, to `vals`, its index to `idx`.
///
/// The statistics follow the canonical schedule, so they are bitwise those
/// of [`mean_abs`] and [`max_abs`]; a NaN magnitude stays out of the max and
/// fails the cutoff compare, exactly as it does there and in [`count_ge`].
/// Only what is appended is written, so lists reserved for the whole input
/// (`Vec::with_capacity`, never initialised) cost only what survives.
pub fn abs_stats_compact(
    x: &[f32],
    cutoff: f32,
    vals: &mut Vec<f32>,
    idx: &mut Vec<u32>,
) -> (f32, f32) {
    let (total, top) = sweep::<true>(x, 0, cutoff, vals, idx);
    (mean_of(total, x.len()), top)
}

/// [`abs_stats_compact`]'s survivors alone, for a caller that already has
/// the statistics: appends `x[i]` to `vals` and `i` to `idx` for every
/// `|x[i]| >= cutoff`, in index order.
pub fn compact_ge(x: &[f32], cutoff: f32, vals: &mut Vec<f32>, idx: &mut Vec<u32>) {
    sweep::<false>(x, 0, cutoff, vals, idx);
}

/// [`add_assign`] fused into [`abs_stats_compact`]: `y[i] += x[i]`, and the
/// statistics and survivors of the updated `y` — one read of `x`, one read
/// and one write of `y` for all three.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn add_assign_abs_stats_compact(
    y: &mut [f32],
    x: &[f32],
    cutoff: f32,
    vals: &mut Vec<f32>,
    idx: &mut Vec<u32>,
) -> (f32, f32) {
    assert_eq!(
        y.len(),
        x.len(),
        "add_assign_abs_stats_compact: length mismatch"
    );
    let d = y.len();
    let (total, top) = sweep::<true>(Accumulating { y, x }, 0, cutoff, vals, idx);
    (mean_of(total, d), top)
}

/// [`add_sum_drain`] fused into the sweep of one reduction block:
/// `acc[i] += x[i] + y[i]` and `x[i] = 0.0`, and, of the updated `acc`, the
/// block's `Σ|acc|` and `max|acc|` partials — what [`mean_abs`] and
/// [`max_abs`] fold for it — with every `|acc[i]| >= cutoff` appended to the
/// survivor lists as in [`abs_stats_compact`], its index recorded as
/// `first + i`. One read of `x` and `y`, one read and one write of `acc`.
///
/// For a tensor folded block by block, at offsets `first` that are
/// multiples of [`REDUCE_BLOCK`], summing the partials in block order from
/// `0.0` and dividing by the tensor's length gives [`mean_abs`], and
/// folding the maxima with `f32::max` from `0.0` gives [`max_abs`], bit for
/// bit.
///
/// # Panics
/// Panics if the slices have different lengths or `acc` is longer than one
/// [`REDUCE_BLOCK`].
pub fn add_sum_drain_abs_stats_compact(
    acc: &mut [f32],
    x: &mut [f32],
    y: &[f32],
    first: usize,
    cutoff: f32,
    vals: &mut Vec<f32>,
    idx: &mut Vec<u32>,
) -> (f32, f32) {
    assert!(
        acc.len() == x.len() && x.len() == y.len(),
        "add_sum_drain_abs_stats_compact: length mismatch"
    );
    assert!(
        acc.len() <= REDUCE_BLOCK,
        "add_sum_drain_abs_stats_compact: more than one block"
    );
    sweep::<true>(Draining { acc, x, y }, first, cutoff, vals, idx)
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

/// Scatter-add: `y[idx[i]] += vals[i]`, applied in `idx` order. Returns
/// the net change in `y`'s count of slots that pass `!= 0.0`: each `+=`
/// adds `(new != 0.0) - (old != 0.0)`, so the count is kept while the slot
/// is in a register and `y` is never read a second time.
///
/// Used to accumulate sparse gradient contributions after an AllGather of
/// (values, indices) pairs (Algorithm 2 line 18). On a `y` that starts all
/// zero the returned sums over successive calls are exactly the number of
/// non-zeros a full pass would find — `-0.0` counts as zero and NaN as
/// non-zero, as `!= 0.0` has it. A caller that does not need the count
/// ignores it.
///
/// # Panics
/// Panics if `idx` and `vals` have different lengths or an index is out of
/// bounds.
pub fn scatter_add(y: &mut [f32], idx: &[u32], vals: &[f32]) -> isize {
    assert_eq!(idx.len(), vals.len(), "scatter_add: length mismatch");
    let mut nonzeros = 0isize;
    for (&i, &v) in idx.iter().zip(vals) {
        let slot = &mut y[i as usize];
        let old = *slot;
        *slot = old + v;
        nonzeros += isize::from(*slot != 0.0) - isize::from(old != 0.0);
    }
    nonzeros
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

    /// What a compaction at `cutoff` keeps, by definition: `x[i]` and
    /// `i` for every `i` with `|x[i]| >= cutoff`, in index order.
    #[allow(clippy::needless_range_loop)]
    pub fn survivors(x: &[f32], cutoff: f32) -> (Vec<f32>, Vec<u32>) {
        let mut vals = Vec::new();
        let mut idx = Vec::new();
        for i in 0..x.len() {
            if x[i].abs() >= cutoff {
                vals.push(x[i]);
                idx.push(i as u32);
            }
        }
        (vals, idx)
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
    #[should_panic(expected = "add_assign_abs_stats_compact: length mismatch")]
    fn fused_accumulate_rejects_a_length_mismatch() {
        add_assign_abs_stats_compact(&mut [0.0; 3], &[0.0; 4], 0.0, &mut vec![], &mut vec![]);
    }

    /// The one-pass sweeps must reproduce the standalone reductions bit for
    /// bit (they follow the same lane schedule and block fold) and
    /// accumulate exactly like `add_assign`.
    #[test]
    fn blocked_abs_stats_match_the_standalone_kernels_bitwise() {
        for d in [0usize, 5, REDUCE_BLOCK, 2 * REDUCE_BLOCK + 19] {
            let x: Vec<f32> = (0..d)
                .map(|i| (((i * 2654435761) % 2001) as f32 - 1000.0) * 1e-3)
                .collect();
            let (mean, max) = abs_stats_compact(&x, 0.5, &mut Vec::new(), &mut Vec::new());
            assert_eq!(mean.to_bits(), mean_abs(&x).to_bits());
            assert_eq!(max.to_bits(), max_abs(&x).to_bits());

            let base: Vec<f32> = (0..d).map(|i| ((i % 89) as f32 - 44.0) * 0.125).collect();
            let mut staged = base.clone();
            add_assign(&mut staged, &x);
            let mut fused = base;
            let (mut vals, mut idx) = (Vec::new(), Vec::new());
            let (mean, max) =
                add_assign_abs_stats_compact(&mut fused, &x, 0.5, &mut vals, &mut idx);
            assert_eq!(fused, staged);
            assert_eq!(mean.to_bits(), mean_abs(&staged).to_bits());
            assert_eq!(max.to_bits(), max_abs(&staged).to_bits());
            assert_eq!((vals, idx), reference::survivors(&staged, 0.5));
        }
    }

    /// The survivors are appended: what the lists held before stays, and
    /// runs longer than the sweep's staging buffer (everything survives a
    /// zero cutoff) arrive whole and in order.
    #[test]
    fn fused_sweep_appends_to_the_survivor_lists() {
        let x: Vec<f32> = (0..5000).map(|i| ((i * 37) % 101) as f32 - 50.0).collect();
        for cutoff in [0.0f32, 25.0, 49.5, 51.0] {
            let (mut want_vals, mut want_idx) = (vec![-1.0f32], vec![7u32]);
            let (more_vals, more_idx) = reference::survivors(&x, cutoff);
            want_vals.extend(more_vals);
            want_idx.extend(more_idx);
            let (mut vals, mut idx) = (vec![-1.0f32], vec![7u32]);
            abs_stats_compact(&x, cutoff, &mut vals, &mut idx);
            assert_eq!(vals, want_vals, "cutoff {cutoff}");
            assert_eq!(idx, want_idx, "cutoff {cutoff}");
        }
    }

    /// The fused sweep against the standalone reductions and the
    /// definition of its survivors, on the lengths where the lane, word and
    /// block structure can go wrong (empty, sub-lane, one lane either side,
    /// one word either side, one block either side, two blocks and a
    /// ragged tail) and on values where compare-and-keep, `f32::max` and
    /// the cutoff compare could part ways: NaN of either sign, ±∞, −0.0 and
    /// subnormals, wherever they fall. Cutoffs include 0 (everything but
    /// NaN survives), a subnormal, ∞ and NaN (nothing survives).
    mod fused_sweep_properties {
        use super::super::*;
        use proptest::prelude::*;

        const LENS: [usize; 11] = [
            0,
            1,
            7,
            8,
            9,
            63,
            64,
            65,
            REDUCE_BLOCK - 1,
            REDUCE_BLOCK + 1,
            2 * REDUCE_BLOCK + 13,
        ];

        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Mostly ordinary magnitudes around 1, one in `rare` special.
        fn value(h: u64, rare: u64) -> f32 {
            let b = (h >> 32) as u32;
            if !h.is_multiple_of(rare) {
                return (b >> 8) as f32 / (1u32 << 23) as f32 - 1.0;
            }
            match (h / rare) % 9 {
                0 => f32::NAN,
                1 => -f32::NAN,
                2 => f32::INFINITY,
                3 => f32::NEG_INFINITY,
                4 => -0.0,
                5 => f32::from_bits(b >> 9), // subnormal or +0
                6 => -f32::from_bits(b >> 9),
                7 => f32::MAX,
                _ => f32::from_bits(b), // anything
            }
        }

        fn bit_vec(x: &[f32]) -> Vec<u32> {
            x.iter().map(|v| v.to_bits()).collect()
        }

        fn check(x: &[f32], cutoff: f32) {
            let n = x.len();
            let (want_vals, want_idx) = reference::survivors(x, cutoff);
            let (mut vals, mut idx) = (Vec::new(), Vec::new());
            let (mean, max) = abs_stats_compact(x, cutoff, &mut vals, &mut idx);
            let what = format!("d = {n}, cutoff = {cutoff:e}");
            assert_eq!(mean.to_bits(), mean_abs(x).to_bits(), "mean, {what}");
            assert_eq!(mean.to_bits(), reference::mean_abs(x).to_bits(), "{what}");
            assert_eq!(max.to_bits(), max_abs(x).to_bits(), "max, {what}");
            assert_eq!(max.to_bits(), reference::max_abs(x).to_bits(), "{what}");
            assert!(!max.is_nan(), "a NaN magnitude reached the max, {what}");
            assert_eq!(idx, want_idx, "survivor indices, {what}");
            assert_eq!(
                bit_vec(&vals),
                bit_vec(&want_vals),
                "survivor values, {what}"
            );
            let (mut vals, mut idx) = (Vec::new(), Vec::new());
            compact_ge(x, cutoff, &mut vals, &mut idx);
            assert_eq!(idx, want_idx, "compact_ge indices, {what}");
            assert_eq!(bit_vec(&vals), bit_vec(&want_vals), "compact_ge, {what}");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn fused_sweep_matches_the_standalone_kernels_and_the_definition(
                len_pick in 0usize..LENS.len(),
                salt in any::<u64>(),
                rare in 2u64..40,
                cut_pick in 0u32..7,
            ) {
                let n = LENS[len_pick];
                let x: Vec<f32> = (0..n as u64).map(|i| value(mix(salt ^ i), rare)).collect();
                let cutoff = match cut_pick {
                    0 => 0.0,
                    1 => f32::from_bits(7), // subnormal
                    2 => 0.5,
                    3 => 0.999,
                    4 => f32::INFINITY,
                    5 => f32::NAN,
                    _ => x.first().map_or(0.25, |v| v.abs()),
                };
                check(&x, cutoff);

                // Accumulating: `y += x` exactly as `add_assign` does it,
                // and the statistics and survivors of the sum.
                let base: Vec<f32> = (0..n as u64).map(|i| value(mix(!salt ^ i), rare)).collect();
                let mut staged = base.clone();
                add_assign(&mut staged, &x);
                let mut fused = base;
                let (mut vals, mut idx) = (Vec::new(), Vec::new());
                let (mean, max) =
                    add_assign_abs_stats_compact(&mut fused, &x, cutoff, &mut vals, &mut idx);
                prop_assert_eq!(bit_vec(&fused), bit_vec(&staged));
                prop_assert_eq!(mean.to_bits(), mean_abs(&staged).to_bits());
                prop_assert_eq!(max.to_bits(), max_abs(&staged).to_bits());
                let (want_vals, want_idx) = reference::survivors(&staged, cutoff);
                prop_assert_eq!(idx, want_idx);
                prop_assert_eq!(bit_vec(&vals), bit_vec(&want_vals));

                // Draining, block by block: `acc += x + y`, `x` zeroed, and
                // the block partials folded in block order are the
                // statistics of the sum; the survivors carry their offsets.
                let y: Vec<f32> = (0..n as u64).map(|i| value(mix(salt ^ !i), rare)).collect();
                let mut drained = x.clone();
                add_sum_drain(&mut staged, &mut drained, &y);
                let mut acc = fused;
                let mut x = x;
                let (mut vals, mut idx) = (Vec::new(), Vec::new());
                let (mut total, mut top) = (0.0f32, 0.0f32);
                for first in (0..n).step_by(REDUCE_BLOCK) {
                    let end = n.min(first + REDUCE_BLOCK);
                    let (sum, max) = add_sum_drain_abs_stats_compact(
                        &mut acc[first..end],
                        &mut x[first..end],
                        &y[first..end],
                        first,
                        cutoff,
                        &mut vals,
                        &mut idx,
                    );
                    total += sum;
                    top = top.max(max);
                }
                prop_assert_eq!(bit_vec(&acc), bit_vec(&staged));
                prop_assert_eq!(bit_vec(&x), bit_vec(&drained));
                prop_assert_eq!(mean_of(total, n).to_bits(), mean_abs(&staged).to_bits());
                prop_assert_eq!(top.to_bits(), max_abs(&staged).to_bits());
                let (want_vals, want_idx) = reference::survivors(&staged, cutoff);
                prop_assert_eq!(idx, want_idx);
                prop_assert_eq!(bit_vec(&vals), bit_vec(&want_vals));
            }
        }

        /// Every length at each cutoff, whatever the draws above hit, with
        /// specials dense and sparse (dense, a NaN or ∞ soon saturates the
        /// sum, which would hide a reordered fold).
        #[test]
        fn every_named_length_at_every_cutoff() {
            for n in LENS {
                for rare in [5, 100_000] {
                    let x: Vec<f32> = (0..n as u64).map(|i| value(mix(i), rare)).collect();
                    for cutoff in [0.0, f32::from_bits(7), 0.5, f32::INFINITY, f32::NAN] {
                        check(&x, cutoff);
                    }
                }
            }
        }
    }

    #[test]
    fn add_sum_drain_is_the_staged_sum_and_zeroes_its_addend() {
        let specials = [0.0f32, -0.0, 1.5, -2.25, f32::INFINITY, 1e-40, f32::NAN];
        let mut acc = Vec::new();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for a in specials {
            for b in specials {
                for c in specials {
                    acc.push(a);
                    x.push(b);
                    y.push(c);
                }
            }
        }
        let (mut want_acc, mut want_x) = (acc.clone(), x.clone());
        add_assign(&mut want_x, &y);
        add_assign(&mut want_acc, &want_x);
        add_sum_drain(&mut acc, &mut x, &y);
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(&acc), bits(&want_acc));
        assert!(x.iter().all(|v| v.to_bits() == 0), "x must come back +0.0");
    }

    #[test]
    #[should_panic(expected = "add_sum_drain: length mismatch")]
    fn add_sum_drain_rejects_a_length_mismatch() {
        add_sum_drain(&mut [0.0; 3], &mut [0.0; 3], &[0.0; 4]);
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
