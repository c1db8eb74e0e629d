//! MSTopK: the paper's approximate top-k operator (§3.1, Algorithm 1).
//!
//! The exact top-k selection is hostile to many-core hardware: it needs
//! data-dependent, irregular memory access (sorting or partitioning).
//! MSTopK replaces it with a binary search over candidate thresholds in
//! `[mean|x|, max|x|]`, where each step only needs to know how many elements
//! exceed the candidate (a coalesced scan).
//!
//! After the search, two bracketing thresholds remain:
//!
//! * `thres1` — the tightest threshold found with `count(|x| >= thres1) =
//!   k1 <= k` (an *under*-selection), and
//! * `thres2` — the tightest threshold found with `count(|x| >= thres2) =
//!   k2 > k` (an *over*-selection).
//!
//! The final selection takes all `k1` elements above `thres1` plus a random
//! contiguous run of `k - k1` elements from the band
//! `thres2 <= |x| < thres1` (Algorithm 1 lines 25–29), so the operator
//! returns **exactly `k` elements** — the property the fixed-size AllGather
//! of HiTopKComm depends on.
//!
//! # Single-pass histogram search
//!
//! The paper's formulation ([`MsTopKNaive`] here) executes `N` streaming
//! `count_ge` passes — `N + 2` full scans of the gradient. [`MsTopK`] makes
//! **one** and answers every probe from what that pass leaves behind; with
//! error feedback the same pass also performs `residual += gradient`
//! ([`Compressor::compress_accumulated`]), so the sparsification point reads
//! the gradient once and writes the residual once.
//!
//! * **Sample-seeded cutoff.** Before the pass, a fixed strided sample of
//!   magnitudes (`SAMPLE_LINES` runs of `SAMPLE_RUN` consecutive elements;
//!   with error feedback `|gradient + residual|` at those positions) is
//!   drawn and one of its upper order statistics taken as a *compaction
//!   cutoff*: the sample rank of `k` plus four binomial standard deviations
//!   (`SAMPLE_SIGMAS`), so that more than `k` elements survive unless the
//!   sample is four deviations off, and about `1.16k` survive at ρ = 0.01
//!   (`1.5k` at ρ = 0.001). The sample only decides how much the pass
//!   keeps, never what is selected.
//! * **The pass.** One sweep of the tensor crate's
//!   ([`ops::abs_stats_compact`], or [`ops::add_assign_abs_stats_compact`]
//!   with error feedback), reading each [`ops::REDUCE_BLOCK`] once, 64
//!   elements at a time: add (with error feedback), feed the canonical lane
//!   partials of `Σ|x|` and `max|x|` — so `mean|x|` and `max|x|` are
//!   bitwise those of `ops::mean_abs` / `ops::max_abs` — and, while the
//!   elements are in registers, copy the elements whose magnitude is at or
//!   above the cutoff into a dense *survivor* buffer, each beside its
//!   source index.
//! * **Probes from the survivors.** A probe at or above the cutoff is
//!   counted exactly on the survivors (everything it can count survived).
//!   A probe *below* the cutoff needs no count: all `S > k` survivors
//!   already exceed it, so it over-selects, which is all the bracket update
//!   needs to know — except for `k2`/`thres2`, which record the *tightest*
//!   over-selecting probe. Over-selecting probes arrive with non-decreasing
//!   thresholds, hence non-increasing counts, so the last of them alone
//!   decides `k2`/`thres2`; only if that last one sits below the cutoff is
//!   its count taken, by one extra `count_ge` (rare: the search converges
//!   on the `k`-th magnitude, above a cutoff placed below it).
//! * **Two fallbacks, chosen from what the pass observed.** If the sample
//!   misses (`S <= k`, e.g. a NaN or unlucky cutoff), if `k` is too dense
//!   for the sample to place a useful cutoff, or if the input is shorter
//!   than a few sample sizes (where the sample is most of a pass), the
//!   search runs the *gallop + wall compaction* instead: while every probe
//!   under-selects, the probed ratios descend `1/2, 1/4, ...`; the first few
//!   probes are answered by direct counting passes (exactly the naive
//!   loop's own) until one over-selects and pins the bracket's lower wall,
//!   and one pass compacts the magnitudes at or above the wall — or above
//!   the mean, which no probed threshold can undercut (`t = mean + ratio *
//!   (max - mean)` with `ratio >= 0`), if no wall is pinned within the
//!   gallop budget. Either way the search continues on a survivor buffer.
//!
//! On the survivors, the search is a histogram:
//!
//! * The binary search only ever probes thresholds `t = mean + (j/2^i) *
//!   (max - mean)`. For `i <= 23` every probed ratio `j/2^i` is a dyadic
//!   rational that is exactly representable in `f32`, and the iterative
//!   midpoint `l + (r - l) / 2` computes it *exactly* — so each bucket
//!   boundary `t_j`, evaluated with the identical
//!   `mean + ratio * (max - mean)` expression, is **bitwise equal** to the
//!   threshold the naive search would probe. (The gallop depth plus the
//!   histogram depth stays well under 23.)
//! * Bucket `j` counts elements with `t_j <= |x| < t_{j+1}` (elements are
//!   placed by a guess-then-fix step against the exact boundary array, so
//!   float rounding in the guess cannot misplace them). Suffix sums then
//!   answer `count_ge(t_j)` exactly for every boundary at or above the
//!   cutoff.
//! * After the histogram's levels are spent the search interval *is* one
//!   bucket. Any remaining probes are answered by scanning just that
//!   bucket's elements gathered from the live buffer.
//! * The finish reads the selection off the survivors too: the index sets
//!   are sized from the bracket's exact counts `k1` and `k2`, and the
//!   buffer keeps each survivor's signed value, so no selected value is
//!   gathered from the tensor.
//!
//! # Riding the fold
//!
//! Where the tensor is produced by a fold the caller runs piece by piece
//! (HiTopKComm's last ReduceScatter hop folds the node sum into the
//! residual), the operator's [`Compressor::fold_sink`] sweeps each
//! [`ops::REDUCE_BLOCK`] as the fold writes it
//! ([`ops::add_sum_drain_abs_stats_compact`]): the block partials of
//! `Σ|x|` and `max|x|`, the sample runs the block holds, and every element
//! at or above a *hint* — the previous call's sampled cutoff, a little
//! lowered (`HINT_SCALE`). The selection then draws this call's cutoff from
//! the captured sample, the same positions ranked by the same code, and:
//!
//! * the hint at or below the cutoff — the provisional list is a superset
//!   of what the cutoff keeps, and one pass over it leaves exactly the
//!   survivors a separate sweep would have;
//! * the hint above the cutoff but more than `k` listed — the list seeds
//!   the search as a sampled buffer would (the argument above needs only
//!   more than `k` survivors);
//! * otherwise, a miss: the separate sweep runs, with the fold's
//!   statistics.
//!
//! The hint decides what the fold keeps, never what is selected: every
//! selection is bitwise the naive one, hit or miss.
//!
//! Streaming passes over a `d`-element tensor at the error-feedback
//! sparsification point, before → after: compensate (2 reads, 1 write),
//! mean, max, ~2 gallop counts, compaction, absorb's copy (1 read, 1 write)
//! — 8 reads, 2 writes — against 2 reads (gradient, residual) and 1 write
//! (residual) in one pass, plus `O(k)` survivor work. Where the producer of
//! the gradient folds it into the residual itself (HiTopKComm's last
//! ReduceScatter hop), the operator `compress`es the residual: 1 read, or
//! **0** on a hint hit, where the sweep rode the fold.
//!
//! The result — selection, statistics, and RNG consumption — is bitwise
//! identical to the naive search; `MsTopKNaive` is retained precisely so
//! tests can assert that equivalence.

use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cloudtrain_tensor::ops;

use crate::{Compressor, FoldSink, SparseGrad};

/// Histogram resolution cap: at most `2^12` buckets, keeping the boundary
/// and count tables L1-resident during placement. Any value with
/// `GALLOP_MAX + MAX_HIST_LEVELS <= 23` keeps the dyadic-ratio exactness
/// argument valid (24-bit `f32` mantissa).
const MAX_HIST_LEVELS: usize = 12;

/// Direct-counting probe caps before the histogram is built. While every
/// probe under-selects, the bracket's lower wall stays at ratio 0 and the
/// probed ratios descend `1/2, 1/4, ...`; the first *over*-selecting probe
/// pins the wall, and every later threshold sits at or above it. Answering
/// those first probes by counting lets the compaction cutoff sit at the
/// wall instead of the mean, shrinking the survivor buffer from ~30% of
/// the tensor to a few multiples of `k`. The first [`GALLOP_DIRECT`]
/// probes count the raw tensor (exactly the naive loop's passes); if no
/// wall is pinned by then, the tensor is compacted at the mean and up to
/// [`GALLOP_MAX`] total probes continue on the (4x smaller) survivor
/// buffer, bounding the worst case — a bracket that never over-selects —
/// at a few extra vectorizable scans.
const GALLOP_DIRECT: usize = 2;
const GALLOP_MAX: usize = 4;

/// Shape of the strided sample that seeds the compaction cutoff:
/// [`SAMPLE_LINES`] evenly spaced runs of [`SAMPLE_RUN`] consecutive
/// elements — one 64-byte cache line each, so the 65,536 samples cost 4,096
/// line fetches per operand instead of 65,536 (~0.5 ms with the ranking).
const SAMPLE_LINES: usize = 4096;
const SAMPLE_RUN: usize = 16;
const SAMPLE_LEN: usize = SAMPLE_LINES * SAMPLE_RUN;

/// Margin of the compaction cutoff, in binomial standard deviations. The
/// number of samples at or above the `k`-th largest magnitude is about
/// `Binomial(SAMPLE_LEN, k/d)`: mean `r = k·SAMPLE_LEN/d`, spread at most
/// `√r`. Taking the cutoff at sample rank `r + SAMPLE_SIGMAS·√r` puts it
/// below the `k`-th magnitude — so that more than `k` elements survive and
/// the seed stands — unless the sample over-counts by four deviations
/// (a one-sided tail of ~3·10⁻⁵), while the survivors stay within a few
/// deviations of `k`: ≈ 1.16·k at ρ = 0.01 and ≈ 1.5·k at ρ = 0.001. (The
/// binomial model takes the elements of a run as independent draws; a
/// tensor correlated within runs of 16 spreads the count wider.) A sample
/// that does miss costs passes, never bits: the gallop takes over.
const SAMPLE_SIGMAS: f64 = 4.0;

/// Lowest cutoff rank taken from the sample. Below ~16 samples the order
/// statistic is too noisy to trust (relative spread `1/sqrt(rank)`), so a
/// very sparse `k` keeps `16·d/SAMPLE_LEN` elements instead.
const SAMPLE_MIN_RANK: usize = 16;

/// The hint a fused sweep compacts at ([`Compressor::fold_sink`]) is this
/// fraction of the previous call's sampled cutoff. Error feedback moves a
/// shard's upper quantiles slowly from one step to the next — the residual
/// keeps what was not sent and one step's gradient joins it — so a cutoff
/// that fell by less than 5 % keeps every survivor the sample asks for,
/// and the sweep rides the fold (a hit). A cutoff that fell further is a
/// miss only if the hint then kept `k` or fewer; a miss sweeps the tensor
/// again, which costs a pass and changes no bit. The lower the factor, the
/// rarer the miss and the longer the provisional list the fold writes. (On
/// the 2 × 2-rank, 25.5 M-element HiTopKComm benchmark the cutoff rises
/// 0.2–50 % from call to call and never falls.)
const HINT_SCALE: f32 = 0.95;

/// Inputs shorter than this take the gallop path, and are never offered a
/// fold sink: drawing and ranking the sample costs about as much as one
/// streaming pass over 65,536 elements, which only pays off against a
/// tensor several times that size.
pub const SAMPLE_FLOOR: usize = 4 * SAMPLE_LEN;

/// Chunk width for the skip-scan in [`finish_selection`]: each chunk is
/// first screened with a vectorizable count, and index materialisation only
/// runs on chunks that contain at least one candidate.
const SCAN_CHUNK: usize = 4096;

/// Statistics of one MSTopK invocation, useful for ablations
/// (threshold-search convergence as a function of the sampling count `N`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsTopKStats {
    /// Number of elements selected from above `thres1` (exact-bracket part).
    pub k1: usize,
    /// Element count at the tightest over-selecting threshold.
    pub k2: usize,
    /// Final under-selecting threshold.
    pub thres1: f32,
    /// Final over-selecting threshold.
    pub thres2: f32,
    /// Threshold-search iterations executed (equals the configured `N`).
    pub passes: usize,
}

/// The MSTopK approximate top-k operator (histogram-accelerated).
///
/// The operator owns the survivor lists its compaction pass writes into
/// and reuses them on every call — [`Self::select_with_stats`],
/// [`Compressor::compress`] and [`Compressor::compress_accumulated`]
/// alike — so a run of calls faults their pages in once instead of on
/// every call. The lists keep room for the longest input seen, of which
/// only the pages a pass has written are memory. Results, statistics and
/// RNG consumption are bitwise those of [`mstopk_with_rng`], which starts
/// from empty lists every call.
///
/// # Examples
/// ```
/// use cloudtrain_compress::{Compressor, MsTopK};
///
/// let x: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.37).sin() * i as f32).collect();
/// let mut op = MsTopK::new(30, 42);
/// let s = op.compress(&x, 10);
/// assert_eq!(s.len(), 10);
/// ```
///
/// # Riding the fold
///
/// Where the tensor to select from is produced by a fold the caller runs
/// piece by piece — HiTopKComm's last ReduceScatter hop folds the node sum
/// into the residual — the operator offers that fold a sink
/// ([`Compressor::fold_sink`]) once it holds a *hint*: a compaction cutoff
/// 5 % below its previous call's sampled one. Each folded
/// [`ops::REDUCE_BLOCK`] then feeds `mean|x|` and `max|x|`, the strided
/// sample and a provisional survivor list while it is in cache, and the
/// next [`Compressor::compress`] of that tensor reads none of it again
/// unless the hint missed. Hits and misses are counted
/// ([`Self::fused_counts`]); the result is the same bits either way.
#[derive(Debug)]
pub struct MsTopK {
    /// Number of threshold-search iterations (`N` in Algorithm 1; the paper
    /// uses 30).
    pub samplings: usize,
    rng: StdRng,
    kept: Kept,
}

impl MsTopK {
    /// Creates an operator with `samplings` search iterations and a seeded
    /// RNG for the band slice choice.
    pub fn new(samplings: usize, seed: u64) -> Self {
        Self {
            samplings,
            rng: StdRng::seed_from_u64(seed),
            kept: Kept::default(),
        }
    }

    /// Runs Algorithm 1, returning the selection and its search statistics.
    pub fn select_with_stats(&mut self, x: &[f32], k: usize) -> (SparseGrad, MsTopKStats) {
        let (selection, stats, _) = self.select(Source::Plain(x), k);
        (selection, stats)
    }

    /// How the fused sweeps this operator offered have fared so far.
    pub fn fused_counts(&self) -> FusedCounts {
        self.kept.counts
    }

    /// Every entry point's one call: this operator's RNG and kept state.
    fn select(&mut self, source: Source<'_>, k: usize) -> (SparseGrad, MsTopKStats, Work) {
        mstopk_impl(source, k, self.samplings, &mut self.rng, &mut self.kept)
    }
}

/// Running counts of one [`MsTopK`]'s fused sweeps
/// ([`MsTopK::fused_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusedCounts {
    /// Selections that took everything from a fold's sink: no pass over
    /// the tensor before the search.
    pub hits: u64,
    /// Selections after a sink was offered that swept the tensor anyway:
    /// the hint kept `k` or fewer, the sample declined a cutoff, or the
    /// fold did not deliver whole, block-aligned pieces.
    pub misses: u64,
    /// Full-tensor passes after a survivor buffer was built, on any path:
    /// `k2` repairs, and finishes the buffer could not serve.
    pub rescans: u64,
}

impl Compressor for MsTopK {
    fn compress(&mut self, x: &[f32], k: usize) -> SparseGrad {
        self.select_with_stats(x, k).0
    }

    /// Offered once the operator holds a hint and `d` is large enough to
    /// be sampled ([`SAMPLE_FLOOR`]); see the type docs.
    fn fold_sink(&mut self, d: usize) -> Option<&mut dyn FoldSink> {
        let kept = &mut self.kept;
        kept.fold.offered = false;
        kept.fold.armed = false;
        let hint = kept.hint.filter(|_| d >= SAMPLE_FLOOR)?;
        kept.fold.arm(d, hint);
        kept.lists.clear_for(d);
        Some(kept)
    }

    /// The addition rides the selection's one streaming pass (see the
    /// module docs); selection, `acc` and RNG consumption are bitwise those
    /// of `add_assign` followed by [`Self::compress`].
    fn compress_accumulated(&mut self, acc: &mut [f32], grad: &[f32], k: usize) -> SparseGrad {
        assert_eq!(
            acc.len(),
            grad.len(),
            "compress_accumulated: length mismatch"
        );
        self.select(Source::Accumulate { acc, grad }, k).0
    }

    fn name(&self) -> &'static str {
        "MSTopK"
    }
}

/// The paper-literal `N`-pass MSTopK, kept as the differential-testing
/// reference for the histogram implementation. Identical semantics and RNG
/// consumption; `N + 2` streaming passes instead of ~3.
#[derive(Debug)]
pub struct MsTopKNaive {
    /// Number of threshold-search iterations.
    pub samplings: usize,
    rng: StdRng,
}

impl MsTopKNaive {
    /// Creates an operator with `samplings` search iterations and a seeded
    /// RNG for the band slice choice.
    pub fn new(samplings: usize, seed: u64) -> Self {
        Self {
            samplings,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs Algorithm 1 literally, returning the selection and statistics.
    pub fn select_with_stats(&mut self, x: &[f32], k: usize) -> (SparseGrad, MsTopKStats) {
        mstopk_naive_with_rng(x, k, self.samplings, &mut self.rng)
    }
}

impl Compressor for MsTopKNaive {
    fn compress(&mut self, x: &[f32], k: usize) -> SparseGrad {
        self.select_with_stats(x, k).0
    }

    fn name(&self) -> &'static str {
        "MSTopKNaive"
    }
}

/// Threshold-search state shared by both implementations (Algorithm 1 lines
/// 4–6 plus the bracketing bookkeeping of lines 11–23).
struct Bracket {
    l: f32,
    r: f32,
    k1: usize,
    k2: usize,
    thres1: f32,
    thres2: f32,
}

impl Bracket {
    /// Initial state. `thres1` starts "unset"; we represent the unset state
    /// as +inf (select nothing) rather than the paper's 0 (select
    /// everything) so that degenerate inputs — e.g. all-equal magnitudes,
    /// where no candidate threshold ever under-selects — still yield a valid
    /// k-element result from the band.
    fn new(d: usize) -> Self {
        Self {
            l: 0.0,
            r: 1.0,
            k1: 0,
            k2: d,
            thres1: f32::INFINITY,
            thres2: 0.0,
        }
    }

    /// The next midpoint ratio, exactly as the naive loop computes it.
    #[inline]
    fn midpoint(&self) -> f32 {
        self.l + (self.r - self.l) / 2.0
    }

    /// Folds one probe result into the bracket (lines 11–23).
    #[inline]
    fn observe(&mut self, nnz: usize, thres: f32, ratio: f32, k: usize) {
        if nnz <= k {
            self.r = ratio;
            if nnz >= self.k1 && thres < self.thres1 {
                self.k1 = nnz;
                self.thres1 = thres;
            }
        } else {
            self.l = ratio;
            if nnz <= self.k2 {
                self.k2 = nnz;
                self.thres2 = thres;
            }
        }
    }
}

/// Handles `k == 0`, `d == 0`, and `k == d`, where no search is needed.
fn trivial_selection(x: &[f32], d: usize, k: usize) -> Option<(SparseGrad, MsTopKStats)> {
    if k == 0 || d == 0 {
        let stats = MsTopKStats {
            k1: 0,
            k2: d,
            thres1: f32::INFINITY,
            thres2: 0.0,
            passes: 0,
        };
        return Some((SparseGrad::empty(d), stats));
    }
    if k == d {
        let stats = MsTopKStats {
            k1: d,
            k2: d,
            thres1: 0.0,
            thres2: 0.0,
            passes: 0,
        };
        let s = SparseGrad::new(x.to_vec(), (0..d as u32).collect(), d);
        return Some((s, stats));
    }
    None
}

/// Materialises the final selection from a converged bracket (lines 25–29).
/// Both implementations funnel through here, so RNG consumption — one
/// `random_range` draw iff the band is actually sliced — is identical.
///
/// `accel` is an optional [`Survivors`] set covering every magnitude
/// `>= thres2` (the histogram path's compaction buffer); when present the
/// index sets are read from it directly instead of rescanning the tensor.
fn finish_selection(
    x: &[f32],
    d: usize,
    k: usize,
    bracket: &Bracket,
    samplings: usize,
    rng: &mut StdRng,
    accel: Option<&Survivors<'_>>,
) -> (SparseGrad, MsTopKStats) {
    // Lines 25–26: materialise the two index sets — `i1` as
    // `ops::indices_ge(x, thres1)` would, `i2` as
    // `ops::indices_in_band(x, thres2, band_hi)` would, fused into one
    // scan. From survivors they hold positions in the lists instead, which
    // follow input order, so both routes select the same elements. Without
    // survivors, each chunk is screened with a
    // vectorizable candidate count and the scalar index loop only runs on
    // chunks that contain a magnitude above `thres2` (a few per million at
    // trained sparsities).
    let take_top = bracket.thres1.is_finite();
    let band_hi = if take_top {
        bracket.thres1
    } else {
        f32::INFINITY
    };
    let mut i1: Vec<u32> = Vec::new();
    let mut i2: Vec<u32> = Vec::new();
    if let Some(s) = accel {
        // Candidates are the survivors with `|v| >= thres2`, each at its
        // list position. `band_hi` is `thres1` (or +inf when unset), so
        // within the candidate set the original two-way split reduces to
        // this: an infinite magnitude (which `m < band_hi` would exclude)
        // forces `a_mean = +inf`, which disables the accel path. Every
        // survivor is written to both runs and advances the one it belongs
        // to: which one is data-dependent with no pattern, so a branch on
        // it would mispredict on most candidates. The runs are sized first
        // (plus the one spare slot each needs); the top run lies inside
        // the candidates, as `thres1 >= thres2` (a probe that
        // under-selects sits above one that over-selects, and an unset
        // `thres2` is 0). The bracket's counts are the sizes once a probe
        // has over-selected: `k1` is an exact count whenever it is set,
        // and with `thres2` at or above the cutoff so is `k2` — no
        // magnitude is infinite here, so `[thres2, thres1)` holds
        // `k2 - k1`. Only an unset `thres2` leaves them to be counted.
        let top = |v: f32| take_top & (v.abs() >= bracket.thres1);
        let band = |v: f32| !top(v) & (v.abs() >= bracket.thres2);
        let (n1, n2) = if bracket.l > 0.0 {
            (bracket.k1, bracket.k2 - bracket.k1)
        } else {
            let n1 = s.vals.iter().filter(|&&v| top(v)).count();
            (n1, ops::count_ge(s.vals, bracket.thres2) - n1)
        };
        debug_assert_eq!(n1, s.vals.iter().filter(|&&v| top(v)).count());
        debug_assert_eq!(n2, s.vals.iter().filter(|&&v| band(v)).count());
        i1 = vec![0u32; n1 + 1];
        i2 = vec![0u32; n2 + 1];
        let (mut n1, mut n2) = (0usize, 0usize);
        for (p, &v) in s.vals.iter().enumerate() {
            i1[n1] = p as u32;
            i2[n2] = p as u32;
            n1 += usize::from(top(v));
            n2 += usize::from(band(v));
        }
        i1.truncate(n1);
        i2.truncate(n2);
    } else {
        for (c, chunk) in x.chunks(SCAN_CHUNK).enumerate() {
            if ops::count_ge(chunk, bracket.thres2) == 0 {
                continue;
            }
            let base = (c * SCAN_CHUNK) as u32;
            for (o, v) in chunk.iter().enumerate() {
                let m = v.abs();
                if take_top && m >= bracket.thres1 {
                    i1.push(base + o as u32);
                } else if m >= bracket.thres2 && m < band_hi {
                    i2.push(base + o as u32);
                }
            }
        }
    }
    debug_assert_eq!(i1.len(), bracket.k1);

    // Lines 27–28: random contiguous run of k - k1 band elements. The run is
    // contiguous (not a random subset) precisely because that keeps the GPU
    // gather coalesced — the whole point of the operator.
    //
    // On finite inputs the band always has at least `need` elements: every
    // |x| >= thres2 not counted in k1 lies in [thres2, thres1). NaN
    // magnitudes break that accounting (they fail every threshold compare,
    // so probes see fewer elements than exist) — `take` caps the run at
    // what the band actually holds, returning a short selection instead of
    // slicing out of bounds when a diverged tensor reaches the operator.
    //
    // Both sets come out in index order, so the selection is their merge.
    // From the survivors, the sets hold list positions, which ascend with
    // the indices: the selected values and indices are read off the lists,
    // not gathered from the tensor.
    let need = k - bracket.k1;
    let take = need.min(i2.len());
    let mut indices = if take > 0 {
        let slack = i2.len() - take;
        let start = if slack == 0 {
            0
        } else {
            rng.random_range(0..=slack)
        };
        merge_ascending(&i1, &i2[start..start + take])
    } else {
        i1
    };
    let values = match accel {
        Some(s) => {
            let values = indices.iter().map(|&p| s.vals[p as usize]).collect();
            for p in &mut indices {
                *p = s.idx[*p as usize];
            }
            values
        }
        None => ops::gather(x, &indices),
    };

    let stats = MsTopKStats {
        k1: bracket.k1,
        k2: bracket.k2,
        thres1: bracket.thres1,
        thres2: bracket.thres2,
        passes: samplings,
    };
    (SparseGrad::new(values, indices, d), stats)
}

/// The union of two ascending, disjoint index runs, in ascending order.
fn merge_ascending(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let from_a = a[i] < b[j];
        out.push(if from_a { a[i] } else { b[j] });
        i += usize::from(from_a);
        j += usize::from(!from_a);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The paper-literal search: one `count_ge` pass per iteration.
fn search_counting(
    x: &[f32],
    k: usize,
    samplings: usize,
    a_mean: f32,
    u: f32,
    bracket: &mut Bracket,
) {
    for _ in 0..samplings {
        let ratio = bracket.midpoint();
        let thres = a_mean + ratio * (u - a_mean);
        let nnz = ops::count_ge(x, thres);
        bracket.observe(nnz, thres, ratio, k);
    }
}

/// The lists a compaction pass writes its survivors into.
#[derive(Default)]
struct SurvivorLists {
    vals: Vec<f32>,
    idx: Vec<u32>,
}

impl SurvivorLists {
    /// Empties the lists and reserves room for a `d`-element tensor's
    /// survivors, without initialising it: only what a pass writes is ever
    /// memory.
    fn clear_for(&mut self, d: usize) {
        self.vals.clear();
        self.idx.clear();
        self.vals.reserve_exact(d);
        self.idx.reserve_exact(d);
    }

    /// Keeps the survivors at or above `cutoff`, in order — what a
    /// compaction at `cutoff` would have written, since every magnitude
    /// there is already listed.
    fn retain_ge(&mut self, cutoff: f32) {
        let mut kept = 0;
        for p in 0..self.vals.len() {
            let v = self.vals[p];
            self.vals[kept] = v;
            self.idx[kept] = self.idx[p];
            kept += usize::from(v.abs() >= cutoff);
        }
        self.vals.truncate(kept);
        self.idx.truncate(kept);
    }
}

/// What an operator keeps from call to call: owned by [`MsTopK`], fresh
/// for each call of the free functions.
#[derive(Default)]
struct Kept {
    /// The survivor lists, so a run of calls faults their pages in once.
    lists: SurvivorLists,
    /// [`HINT_SCALE`] times the last sampled cutoff, if the last call drew
    /// one.
    hint: Option<f32>,
    /// What the offered fold sink gathered.
    fold: Fold,
    counts: FusedCounts,
}

impl fmt::Debug for Kept {
    /// The lists' capacity, not their contents: those are the last call's
    /// scratch.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Kept")
            .field("capacity", &self.lists.vals.capacity())
            .field("hint", &self.hint)
            .field("counts", &self.counts)
            .finish_non_exhaustive()
    }
}

/// A fold sink's view of the tensor being folded: `Σ|x|` and `max|x|` in
/// block order, the strided sample, and — in the kept lists — every
/// magnitude at or above the hint.
#[derive(Default)]
struct Fold {
    /// Set when the sink is offered, cleared by the next selection.
    offered: bool,
    /// Set when the sink is offered, cleared by the next selection or by a
    /// piece the sink cannot take.
    armed: bool,
    /// Address of the folded tensor's first element, and its length.
    base: usize,
    d: usize,
    /// Offset the next piece must start at: `d` once the fold is whole.
    next: usize,
    hint: f32,
    total: f32,
    top: f32,
    /// The strided sample's magnitudes, in [`Source::sample_into`]'s order.
    sample: Vec<f32>,
}

/// A whole fold's statistics, as the selection takes them.
#[derive(Clone, Copy)]
struct Folded {
    hint: f32,
    a_mean: f32,
    u: f32,
}

impl Fold {
    fn arm(&mut self, d: usize, hint: f32) {
        *self = Self {
            offered: true,
            armed: true,
            base: 0,
            d,
            next: 0,
            hint,
            total: 0.0,
            top: 0.0,
            sample: std::mem::take(&mut self.sample),
        };
        self.sample.resize(SAMPLE_LEN, 0.0);
    }

    /// Whether a sink was offered since the last selection, and the fold's
    /// statistics if it is whole and of the tensor `source` selects from;
    /// clears the offer either way.
    fn take<'a>(&mut self, source: &Source<'a>) -> (bool, Option<(&'a [f32], Folded)>) {
        let offered = std::mem::replace(&mut self.offered, false);
        let armed = std::mem::replace(&mut self.armed, false);
        let &Source::Plain(x) = source else {
            return (offered, None);
        };
        let whole = self.next == self.d && x.len() == self.d && x.as_ptr() as usize == self.base;
        let folded = Folded {
            hint: self.hint,
            a_mean: self.total / self.d as f32,
            u: self.top,
        };
        (offered, (armed && whole).then_some((x, folded)))
    }
}

impl FoldSink for Kept {
    /// One [`ops::add_sum_drain_abs_stats_compact`] per block: the pieces
    /// must be whole [`ops::REDUCE_BLOCK`]s in order (the last may be
    /// short), so the block partials combine into `mean_abs` and `max_abs`
    /// bitwise. Any other piece disarms the fold, which then goes on as a
    /// plain [`ops::add_sum_drain`].
    fn fold(&mut self, at: usize, acc: &mut [f32], x: &mut [f32], y: &[f32]) {
        let f = &mut self.fold;
        let end = at + acc.len();
        let whole_block = acc.len() == ops::REDUCE_BLOCK || end == f.d;
        let in_order = at == f.next && at.is_multiple_of(ops::REDUCE_BLOCK) && end <= f.d;
        f.armed &= acc.is_empty() || (in_order && whole_block);
        if !f.armed || acc.is_empty() {
            ops::add_sum_drain(acc, x, y);
            return;
        }
        if at == 0 {
            f.base = acc.as_ptr() as usize;
        }
        let lists = &mut self.lists;
        let (sum, max) = ops::add_sum_drain_abs_stats_compact(
            acc,
            x,
            y,
            at,
            f.hint,
            &mut lists.vals,
            &mut lists.idx,
        );
        f.total += sum;
        f.top = f.top.max(max);
        f.next = end;
        // The sample runs this piece holds (a run may straddle two).
        let stride = f.d / SAMPLE_LINES;
        let first = (at + 1).saturating_sub(SAMPLE_RUN).div_ceil(stride);
        for line in first..SAMPLE_LINES {
            let start = line * stride;
            if start >= end {
                break;
            }
            let (lo, hi) = (start.max(at), end.min(start + SAMPLE_RUN));
            let slots = &mut f.sample[line * SAMPLE_RUN + lo - start..][..hi - lo];
            for (s, v) in slots.iter_mut().zip(&acc[lo - at..hi - at]) {
                *s = v.abs();
            }
        }
    }
}

/// The elements of a tensor whose magnitude is `>= cutoff`, in original
/// order, each with its source index: what one compaction pass leaves for
/// the search and the selection to work on. The values keep their signs,
/// so the selection reads its values here; the search compares `|v|`.
struct Survivors<'a> {
    /// Compacted values, in input order.
    vals: &'a [f32],
    /// `idx[p]` is the source index of `vals[p]`.
    idx: &'a [u32],
    /// The cutoff the buffer was compacted at: `vals` covers every
    /// magnitude `>= cutoff` and nothing below it.
    cutoff: f32,
}

impl<'a> Survivors<'a> {
    /// Runs `pass` — one of the tensor crate's fused compaction sweeps, at
    /// `cutoff`, over a `d`-element tensor — into `lists`, emptied first,
    /// keeping what it returns. The lists hold room for the whole tensor,
    /// reserved without initialising it, so only what survives is ever
    /// written: the rest of the reservation is address space, not memory.
    fn compact<T>(
        lists: &'a mut SurvivorLists,
        d: usize,
        cutoff: f32,
        pass: impl FnOnce(&mut Vec<f32>, &mut Vec<u32>) -> T,
    ) -> (Self, T) {
        lists.clear_for(d);
        let out = pass(&mut lists.vals, &mut lists.idx);
        (Self::of(lists, cutoff), out)
    }

    /// The lists as they stand, covering every magnitude `>= cutoff`.
    fn of(lists: &'a SurvivorLists, cutoff: f32) -> Self {
        Self {
            vals: &lists.vals,
            idx: &lists.idx,
            cutoff,
        }
    }

    /// The count a probe at `thres` observes for `count_ge(x, thres)` of
    /// the compacted tensor `x` of `d` elements. At or above the cutoff it
    /// is `exact()`, a count over the survivors: everything it can see
    /// survived. Below the cutoff — only possible under a sampled cutoff,
    /// which is used only when more than `k` elements survived — every
    /// survivor exceeds `thres`, so the probe over-selects, and `d`, the
    /// one count that can never under-state an over-selection, stands in
    /// (see the module docs for why the exact value is not needed).
    fn probe_count(&self, thres: f32, d: usize, exact: impl FnOnce() -> usize) -> usize {
        if thres >= self.cutoff {
            exact()
        } else {
            d
        }
    }
}

/// The fallback's first phase (see the module docs): direct counting
/// probes, exactly the naive loop's first passes, until one over-selects
/// and pins the bracket's lower wall or [`GALLOP_DIRECT`] have run; then
/// one pass compacting the tensor at the wall — or at the mean if no wall
/// is pinned yet. Requires `u > a_mean`. Returns the survivors and the
/// number of probes consumed.
fn gallop_compact<'a>(
    x: &[f32],
    k: usize,
    samplings: usize,
    a_mean: f32,
    u: f32,
    bracket: &mut Bracket,
    lists: &'a mut SurvivorLists,
) -> (Survivors<'a>, usize) {
    // While every probe under-selects, the probed ratios descend 1/2, 1/4,
    // ... — count them straight off the tensor, exactly as the naive loop
    // would.
    let mut consumed = 0usize;
    while consumed < samplings && consumed < GALLOP_DIRECT && bracket.l == 0.0 {
        let ratio = bracket.midpoint();
        let thres = a_mean + ratio * (u - a_mean);
        let nnz = ops::count_ge(x, thres);
        bracket.observe(nnz, thres, ratio, k);
        consumed += 1;
    }

    // Compact at the wall when one is pinned (every later threshold sits
    // at or above it), else at the mean (no probed threshold can go
    // below `a_mean + 0`). Either way the buffer covers every magnitude
    // any remaining probe or the selection scan can touch.
    let cutoff = a_mean + bracket.l * (u - a_mean);
    let (s, ()) = Survivors::compact(lists, x.len(), cutoff, |vals, idx| {
        ops::compact_ge(x, cutoff, vals, idx)
    });
    (s, consumed)
}

/// Answers probes `consumed..samplings` — the identical probe sequence to
/// [`search_counting`] — from a survivor buffer. Requires `u > a_mean` and,
/// if the buffer's cutoff can exceed a probed threshold (a sampled cutoff),
/// more than `k` survivors; see [`Survivors::probe_count`].
///
/// * **Gallop** — while no probe has over-selected, up to [`GALLOP_MAX`]
///   probes in total are counted directly on the buffer, so the histogram
///   starts from a pinned wall rather than the whole `[mean, max]` range.
///   Elements the compaction dropped can never reach a threshold counted
///   here, so the counts stay exact.
/// * **Histogram** — every remaining probe ratio lies inside the bracket
///   `[l, r]`, so elements below `thres(l)` can never change a count
///   again. A histogram of the elements at or above the wall (the others
///   are passed over) answers the next `levels` probes, and a gather of the
///   final bucket answers any probes beyond the histogram depth.
#[expect(
    clippy::too_many_arguments,
    reason = "the search state is passed flat, not bundled"
)]
fn search_survivors(
    s: &Survivors<'_>,
    d: usize,
    k: usize,
    samplings: usize,
    mut consumed: usize,
    a_mean: f32,
    u: f32,
    bracket: &mut Bracket,
) {
    while consumed < samplings && consumed < GALLOP_MAX && bracket.l == 0.0 {
        let ratio = bracket.midpoint();
        let thres = a_mean + ratio * (u - a_mean);
        let nnz = s.probe_count(thres, d, || ops::count_ge(s.vals, thres));
        bracket.observe(nnz, thres, ratio, k);
        consumed += 1;
    }
    let left = samplings - consumed;
    if left == 0 {
        return;
    }

    // Phase 2: histogram over the elements at or above the lower wall.
    // `rl` and `rr - rl` are dyadic rationals with denominator at most
    // `2^GALLOP_MAX`, so the sub-grid ratios below stay exact.
    let (rl, rr) = (bracket.l, bracket.r);
    let lo_val = a_mean + rl * (u - a_mean);
    let survivors = s.vals;

    // Depth: no deeper than the probe count, the exactness cap, or a bucket
    // count comparable to the survivor count (finer buys nothing).
    let d_levels = usize::BITS as usize - survivors.len().leading_zeros() as usize;
    let levels = left.min(MAX_HIST_LEVELS).min(d_levels.max(1));
    let buckets = 1usize << levels;

    // Exact bucket boundaries: the same f32 expression the probe loop uses,
    // at every dyadic subdivision of the bracket. Every quantity involved
    // (`rl`, `rr - rl`, `j / buckets`, and their combination) is a dyadic
    // rational with well under 24 mantissa bits, so each arithmetic step is
    // exact and the closed form below reproduces the naive loop's iterative
    // midpoints bit for bit (the replay asserts pin this).
    let span = rr - rl;
    let ratio_of = |j: usize| rl + (j as f32 / buckets as f32) * span;
    let bounds: Vec<f32> = (0..=buckets)
        .map(|j| a_mean + ratio_of(j) * (u - a_mean))
        .collect();

    // Histogram of the live magnitudes — those at or above `lo_val`, the
    // wall threshold and `bounds[0]` — over the boundary grid. A float
    // guess lands near the right bucket; the fix-up loops settle it against
    // the exact boundaries so rounding can never misplace an element. A
    // magnitude below the wall (possible when the wall rose above the
    // compaction cutoff) gets a negative guess, clamped to 0, and is passed
    // over. Bucket `j` holds
    // `bounds[j] <= m < bounds[j+1]`; the last bucket also absorbs
    // `m >= bounds[buckets]` (rounding can leave that boundary slightly
    // below the true top). u32 counts suffice: the repo-wide index type
    // caps the element count at `u32::MAX`.
    // Two loops per chunk: the guess arithmetic (subtract, scale, cast,
    // clamp) vectorises when split from the data-dependent fix-up, which
    // stays scalar but only has the table work left to do. The `as i32`
    // cast truncates toward zero exactly like the scalar cast would; the
    // live guesses are in `[0, buckets]` (plus rounding), so the clamp makes
    // them valid u16 bucket ids. (A degenerate grid — all boundaries
    // rounding to one value — makes the scale infinite and the guesses
    // NaN, which the cast maps to 0 and the fix-up walk resolves; the
    // counts stay exact.)
    // lint:allow(panic_free, reason = "bounds always has buckets+1 >= 2 boundary entries by construction of the histogram grid")
    let (first, last) = (bounds[0], bounds[buckets]);
    let guess_scale = buckets as f32 / (last - first);
    let mut counts = vec![0u32; buckets];
    let mut keys = [0u16; SCAN_CHUNK];
    for chunk in survivors.chunks(SCAN_CHUNK) {
        for (kk, &v) in keys.iter_mut().zip(chunk) {
            *kk = (((v.abs() - first) * guess_scale) as i32).clamp(0, buckets as i32 - 1) as u16;
        }
        for (&kk, &v) in keys.iter().zip(chunk) {
            let m = v.abs();
            if m < lo_val {
                continue;
            }
            let mut j = kk as usize;
            while m < bounds[j] {
                j -= 1;
            }
            while j + 1 < buckets && m >= bounds[j + 1] {
                j += 1;
            }
            counts[j] += 1;
        }
    }

    // suffix[j] = exact count_ge(x, bounds[j]) for every boundary at or
    // above the compaction cutoff — every dropped element is below the
    // cutoff and hence below those boundaries, so the live elements alone
    // determine the counts. (Boundaries below a sampled cutoff see partial
    // counts, which `Survivors::probe_count` never consults.)
    let mut suffix = vec![0usize; buckets + 1];
    for j in (0..buckets).rev() {
        suffix[j] = suffix[j + 1] + counts[j] as usize;
    }

    // Replay the next `levels` probes from the suffix sums. Integer bucket
    // indices shadow the float bracket; the debug asserts pin the bitwise
    // equivalence the module docs argue.
    let (mut lj, mut rj) = (0usize, buckets);
    for _ in 0..levels {
        let mj = (lj + rj) / 2;
        let ratio = bracket.midpoint();
        debug_assert_eq!(ratio, ratio_of(mj));
        let thres = a_mean + ratio * (u - a_mean);
        debug_assert_eq!(thres, bounds[mj]);
        let nnz = s.probe_count(thres, d, || suffix[mj]);
        let under = nnz <= k;
        bracket.observe(nnz, thres, ratio, k);
        if under {
            rj = mj;
        } else {
            lj = mj;
        }
    }

    // Any remaining probes land strictly inside one bucket (monotone f32
    // rounding keeps every later threshold within its boundary pair), so a
    // scan of just that bucket's magnitudes answers them exactly.
    if left > levels {
        debug_assert_eq!(lj + 1, rj);
        let cell = lj;
        let lo = bounds[cell];
        let (hi, tail) = if cell + 1 == buckets {
            (f32::INFINITY, 0)
        } else {
            (bounds[cell + 1], suffix[cell + 1])
        };
        // The cell holds a handful of magnitudes; screen each chunk with a
        // vectorizable membership count and only gather from chunks that
        // hit.
        let mut cell_m: Vec<f32> = Vec::with_capacity((counts[cell] as usize).min(survivors.len()));
        for chunk in survivors.chunks(SCAN_CHUNK) {
            let hits: usize = chunk
                .iter()
                .map(|&v| usize::from(v.abs() >= lo && v.abs() < hi))
                .sum();
            if hits == 0 {
                continue;
            }
            for &v in chunk {
                let m = v.abs();
                if m >= lo && m < hi {
                    cell_m.push(m);
                }
            }
        }
        debug_assert_eq!(cell_m.len(), counts[cell] as usize);
        for _ in levels..left {
            let ratio = bracket.midpoint();
            let thres = a_mean + ratio * (u - a_mean);
            let nnz = s.probe_count(thres, d, || {
                tail + cell_m.iter().filter(|&&m| m >= thres).count()
            });
            bracket.observe(nnz, thres, ratio, k);
        }
    }
}

/// Algorithm 1 with an explicit RNG (deterministic given the RNG state),
/// histogram-accelerated: one streaming pass regardless of `samplings`
/// (a few on the fallback path; see the module docs). Bitwise identical to
/// [`mstopk_naive_with_rng`] on every input.
pub fn mstopk_with_rng(
    x: &[f32],
    k: usize,
    samplings: usize,
    rng: &mut StdRng,
) -> (SparseGrad, MsTopKStats) {
    let kept = &mut Kept::default();
    let (selection, stats, _) = mstopk_impl(Source::Plain(x), k, samplings, rng, kept);
    (selection, stats)
}

/// Elements one call streamed, stage by stage: the pass count the tests
/// pin. Counted from values the selection computes anyway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Work {
    /// The sample plus the one `d`-element pass when the sampled cutoff
    /// seeds the search, else one `d` per staged pass (mean, max, and the
    /// accumulation under error feedback).
    mean_max: usize,
    /// The survivor buffer, plus `d` per full-tensor pass the search had
    /// to make (gallop counts and the wall compaction on the fallback
    /// path, the `k2` repair count); 0 without a search.
    search: usize,
    /// Length of the survivor buffer the search compacted (0 if none).
    survivors: usize,
    /// The final materialisation scan.
    selection: usize,
}

/// What the operator selects from.
enum Source<'a> {
    /// The tensor as given.
    Plain(&'a [f32]),
    /// `acc` after `acc[i] = grad[i] + acc[i]` — the error-feedback entry
    /// ([`Compressor::compress_accumulated`]).
    Accumulate { acc: &'a mut [f32], grad: &'a [f32] },
}

impl<'a> Source<'a> {
    fn len(&self) -> usize {
        match self {
            Source::Plain(x) => x.len(),
            Source::Accumulate { acc, .. } => acc.len(),
        }
    }

    /// Fills `sample` with the magnitudes of the (accumulated) tensor at
    /// the strided sample's positions, run by run. Requires
    /// `self.len() >= SAMPLE_FLOOR`.
    fn sample_into(&self, sample: &mut Vec<f32>) {
        let stride = self.len() / SAMPLE_LINES;
        sample.clear();
        for line in 0..SAMPLE_LINES {
            let run = line * stride..line * stride + SAMPLE_RUN;
            match self {
                Source::Plain(x) => sample.extend(x[run].iter().map(|v| v.abs())),
                Source::Accumulate { acc, grad } => sample.extend(
                    acc[run.clone()]
                        .iter()
                        .zip(&grad[run])
                        .map(|(a, g)| (a + g).abs()),
                ),
            }
        }
    }

    /// The tensor to select from, accumulated (if at all) as a pass of its
    /// own.
    fn accumulated(self) -> &'a [f32] {
        match self {
            Source::Plain(x) => x,
            Source::Accumulate { acc, grad } => {
                ops::add_assign(acc, grad);
                acc
            }
        }
    }

    /// The tensor to select from, its `(mean_abs, max_abs)` and its
    /// [`Survivors`] at `cutoff` in `lists`, all from one sweep that
    /// accumulates (if at all) on the way.
    fn compacted<'l>(
        self,
        cutoff: f32,
        lists: &'l mut SurvivorLists,
    ) -> (&'a [f32], f32, f32, Survivors<'l>) {
        let d = self.len();
        match self {
            Source::Plain(x) => {
                let (s, (a_mean, u)) = Survivors::compact(lists, d, cutoff, |vals, idx| {
                    ops::abs_stats_compact(x, cutoff, vals, idx)
                });
                (x, a_mean, u, s)
            }
            Source::Accumulate { acc, grad } => {
                let (s, (a_mean, u)) = Survivors::compact(lists, d, cutoff, |vals, idx| {
                    ops::add_assign_abs_stats_compact(acc, grad, cutoff, vals, idx)
                });
                (acc, a_mean, u, s)
            }
        }
    }
}

/// Rank, counted from the largest, of the compaction cutoff among the
/// samples for selecting `k` of `d`: the sample count expected at or above
/// the `k`-th magnitude plus [`SAMPLE_SIGMAS`] binomial deviations, at
/// least [`SAMPLE_MIN_RANK`]. `None` when sampling cannot pay off: the
/// input is below [`SAMPLE_FLOOR`], or `k` is so dense that the rank runs
/// past the sample.
fn cutoff_rank(k: usize, d: usize) -> Option<usize> {
    if d < SAMPLE_FLOOR {
        return None;
    }
    let r = k as f64 * SAMPLE_LEN as f64 / d as f64;
    let rank = ((r + SAMPLE_SIGMAS * r.sqrt()).ceil() as usize).max(SAMPLE_MIN_RANK);
    (rank <= SAMPLE_LEN).then_some(rank)
}

/// The compaction cutoff a sample suggests: its `rank`-th largest
/// magnitude, unless that does not clear the sample's mean (`k` too dense,
/// a mostly-zero tensor, NaNs), where compacting at the mean, which no
/// probe can undercut, keeps less. Reorders `sample`.
fn sampled_cutoff(sample: &mut [f32], rank: usize) -> Option<f32> {
    let mean = ops::mean_abs(sample);
    let (_, cutoff, _) = sample.select_nth_unstable_by(rank - 1, |a, b| b.total_cmp(a));
    (*cutoff > mean).then_some(*cutoff)
}

fn mstopk_impl(
    source: Source<'_>,
    k: usize,
    samplings: usize,
    rng: &mut StdRng,
    kept: &mut Kept,
) -> (SparseGrad, MsTopKStats, Work) {
    let d = source.len();
    let k = k.min(d);
    let (offered, folded) = kept.fold.take(&source);

    // Lines 1–3: `mean|x|` and `max|x|` of the (accumulated) tensor — the
    // statistics the naive path computes, bit for bit. When a search
    // follows and a sampled cutoff is on offer, one pass does all of it
    // and compacts the survivors on the way — or the fold that produced
    // the tensor already did, and left the sample and the survivors at or
    // above its hint behind.
    let searches = 0 < k && k < d && samplings > 0;
    let rank = if searches { cutoff_rank(k, d) } else { None };
    let cutoff = rank.and_then(|rank| {
        if folded.is_none() {
            source.sample_into(&mut kept.fold.sample);
        }
        sampled_cutoff(&mut kept.fold.sample, rank)
    });
    kept.hint = cutoff.map(|c| c * HINT_SCALE);
    let mut hit = false;
    let (x, a_mean, u, seed, mean_max) = match (cutoff, folded) {
        (Some(cutoff), Some((x, f))) => {
            let lists = &mut kept.lists;
            let listed = lists.vals.len();
            // A hint at or below the cutoff listed a superset of what the
            // cutoff keeps; one above it listed fewer, which still seed the
            // search if they are more than `k`. Otherwise sweep again.
            let (cutoff, swept) = if f.hint <= cutoff {
                lists.retain_ge(cutoff);
                (cutoff, 0)
            } else if listed > k {
                (f.hint, 0)
            } else {
                lists.clear_for(d);
                ops::compact_ge(x, cutoff, &mut lists.vals, &mut lists.idx);
                (cutoff, d)
            };
            hit = swept == 0;
            let s = Survivors::of(lists, cutoff);
            (x, f.a_mean, f.u, Some(s), listed + swept)
        }
        (Some(cutoff), None) => {
            let (x, a_mean, u, s) = source.compacted(cutoff, &mut kept.lists);
            (x, a_mean, u, Some(s), SAMPLE_LEN + d)
        }
        (None, _) => {
            let adds = usize::from(matches!(source, Source::Accumulate { .. }));
            let x = source.accumulated();
            if let Some((selection, stats)) = trivial_selection(x, d, k) {
                kept.counts.misses += u64::from(offered);
                return (selection, stats, Work::default());
            }
            // The max only feeds the search.
            let a_mean = ops::mean_abs(x);
            let u = if samplings > 0 { ops::max_abs(x) } else { 0.0 };
            let passes = adds + 1 + usize::from(samplings > 0);
            (x, a_mean, u, None, passes * d)
        }
    };

    let mut bracket = Bracket::new(d);
    let mut survivors = None;
    let mut search = 0usize;
    let mut repaired = false;
    if samplings > 0 {
        if u > a_mean {
            // A sampled seed stands only if it kept more than `k`: that is
            // what lets a probe below its cutoff go uncounted. Otherwise
            // the sample missed and the gallop finds a wall to compact at.
            let (s, consumed) = match seed.filter(|s| s.vals.len() > k) {
                Some(s) => (s, 0),
                None => {
                    let (s, consumed) =
                        gallop_compact(x, k, samplings, a_mean, u, &mut bracket, &mut kept.lists);
                    search += (consumed + 1) * d;
                    (s, consumed)
                }
            };
            search_survivors(&s, d, k, samplings, consumed, a_mean, u, &mut bracket);
            if bracket.l > 0.0 && bracket.thres2 < s.cutoff {
                // The last over-selecting probe sat below the sampled
                // cutoff, so `k2` still holds the stand-in count: take the
                // real one.
                bracket.k2 = ops::count_ge(x, bracket.thres2);
                search += d;
                repaired = true;
            }
            search += s.vals.len();
            survivors = Some(s);
        } else if u == a_mean {
            // Degenerate grid: every probe threshold collapses to
            // `a_mean` (`ratio * 0.0 == 0.0`), so the naive loop
            // evaluates the same count every iteration and only the
            // first updates the bracket.
            let nnz = ops::count_ge(x, a_mean);
            bracket.observe(nnz, a_mean, bracket.midpoint(), k);
            search += d;
        } else {
            // `mean_abs` rounding pathologically exceeded `max_abs` (or
            // NaN poisoned a statistic): the histogram grid would be
            // inverted. Fall back to the literal search (still
            // identical, just not accelerated).
            search_counting(x, k, samplings, a_mean, u, &mut bracket);
            search += samplings * d;
        }
    }

    // The survivor buffer can stand in for a selection rescan only if it
    // covers everything `>= thres2`. A set `thres2` is a probed threshold,
    // at or above a wall cutoff always and a sampled one nearly always;
    // unset it is 0.0, which qualifies only in the all-magnitudes-survive
    // case `cutoff == 0`.
    let accel = survivors.as_ref().filter(|s| bracket.thres2 >= s.cutoff);
    let counts = &mut kept.counts;
    counts.hits += u64::from(offered && hit);
    counts.misses += u64::from(offered && !hit);
    counts.rescans += u64::from(repaired) + u64::from(survivors.is_some() && accel.is_none());
    let work = Work {
        mean_max,
        search,
        survivors: survivors.as_ref().map_or(0, |s| s.vals.len()),
        selection: accel.map_or(d, |s| s.vals.len()),
    };
    let (selection, stats) = finish_selection(x, d, k, &bracket, samplings, rng, accel);
    (selection, stats, work)
}

/// Algorithm 1 with an explicit RNG, exactly as printed in the paper: `N`
/// streaming `count_ge` passes. Kept as the reference implementation for
/// differential tests against [`mstopk_with_rng`].
pub fn mstopk_naive_with_rng(
    x: &[f32],
    k: usize,
    samplings: usize,
    rng: &mut StdRng,
) -> (SparseGrad, MsTopKStats) {
    let d = x.len();
    let k = k.min(d);
    if let Some(out) = trivial_selection(x, d, k) {
        return out;
    }

    let a_mean = ops::mean_abs(x);
    let u = ops::max_abs(x);

    let mut bracket = Bracket::new(d);
    search_counting(x, k, samplings, a_mean, u, &mut bracket);

    finish_selection(x, d, k, &bracket, samplings, rng, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::topk_sort;
    use cloudtrain_tensor::init;

    fn grad(seed: u64, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(seed);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    #[test]
    fn returns_exactly_k() {
        let x = grad(1, 50_000);
        let mut op = MsTopK::new(30, 2);
        for k in [1usize, 5, 50, 500, 5_000] {
            assert_eq!(op.compress(&x, k).len(), k);
        }
    }

    #[test]
    fn values_match_their_indices() {
        let x = grad(3, 10_000);
        let mut op = MsTopK::new(30, 4);
        let s = op.compress(&x, 100);
        for (v, &i) in s.values.iter().zip(&s.indices) {
            assert_eq!(*v, x[i as usize]);
        }
    }

    #[test]
    fn captures_most_of_the_exact_topk_mass() {
        let x = grad(5, 100_000);
        let k = 1_000;
        let exact = topk_sort(&x, k);
        let mut op = MsTopK::new(30, 6);
        let approx = op.compress(&x, k);
        // With 30 samplings the bracket is tight: approximate selection
        // should capture nearly all the exact top-k magnitude mass.
        assert!(
            approx.abs_mass() >= 0.95 * exact.abs_mass(),
            "mass {} vs exact {}",
            approx.abs_mass(),
            exact.abs_mass()
        );
    }

    #[test]
    fn selected_elements_dominate_the_band_floor() {
        let x = grad(7, 20_000);
        let mut op = MsTopK::new(30, 8);
        let (s, stats) = op.select_with_stats(&x, 200);
        for v in &s.values {
            assert!(
                v.abs() >= stats.thres2,
                "selected {} below thres2 {}",
                v,
                stats.thres2
            );
        }
    }

    #[test]
    fn more_samplings_tighten_the_bracket() {
        let x = grad(9, 100_000);
        let k = 1_000;
        let (_, loose) = MsTopK::new(5, 1).select_with_stats(&x, k);
        let (_, tight) = MsTopK::new(30, 1).select_with_stats(&x, k);
        assert!(tight.k2 - tight.k1 <= loose.k2 - loose.k1);
    }

    #[test]
    fn nan_contaminated_input_does_not_panic() {
        // A diverged tensor reaching the operator: NaN magnitudes fail
        // every threshold compare, so the band can hold fewer than
        // `k - k1` elements and the selection degrades to what exists
        // instead of slicing out of bounds. Both implementations must
        // survive any contamination level, up to an all-NaN tensor.
        for d in [16usize, 64, 1_000] {
            for nan_every in [1usize, 2, 5] {
                let x: Vec<f32> = (0..d)
                    .map(|i| {
                        if i % nan_every == 0 {
                            f32::NAN
                        } else {
                            (i as f32 * 0.37).sin()
                        }
                    })
                    .collect();
                for k in [1usize, d / 2, d] {
                    let s = MsTopK::new(30, 11).compress(&x, k);
                    assert!(s.len() <= k);
                    let s = MsTopKNaive::new(30, 11).compress(&x, k);
                    assert!(s.len() <= k);
                }
            }
        }
    }

    #[test]
    fn all_equal_magnitudes_still_yield_k_elements() {
        // Degenerate input: mean == max, every candidate threshold selects
        // everything, so thres1 is never set.
        let x = vec![2.0f32; 1_000];
        let mut op = MsTopK::new(30, 10);
        let s = op.compress(&x, 37);
        assert_eq!(s.len(), 37);
        assert!(s.values.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn constant_magnitude_signs_are_preserved() {
        let x: Vec<f32> = (0..100)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let s = MsTopK::new(10, 3).compress(&x, 10);
        for (v, &i) in s.values.iter().zip(&s.indices) {
            assert_eq!(*v, x[i as usize]);
        }
    }

    #[test]
    fn k_edge_cases() {
        let x = grad(11, 100);
        let mut op = MsTopK::new(30, 12);
        assert!(op.compress(&x, 0).is_empty());
        let full = op.compress(&x, 100);
        assert_eq!(full.len(), 100);
        assert_eq!(full.densify(), x);
        assert!(op.compress(&[], 5).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let x = grad(13, 10_000);
        let a = MsTopK::new(30, 99).compress(&x, 64);
        let b = MsTopK::new(30, 99).compress(&x, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_matches_naive_selection_and_stats() {
        for (seed, d) in [(21u64, 1_000usize), (22, 10_000), (23, 65_537)] {
            let x = grad(seed, d);
            for k in [1usize, 7, d / 100 + 1, d / 10, d - 1] {
                for samplings in [1usize, 5, 16, 17, 30, 39] {
                    let (sh, th) = MsTopK::new(samplings, 77).select_with_stats(&x, k);
                    let (sn, tn) = MsTopKNaive::new(samplings, 77).select_with_stats(&x, k);
                    assert_eq!(sh, sn, "selection diverged d={d} k={k} n={samplings}");
                    assert_eq!(th, tn, "stats diverged d={d} k={k} n={samplings}");
                }
            }
        }
    }

    #[test]
    fn stage_work_counts_the_elements_streamed() {
        // Below the sampling floor: the gallop path, one `d` per pass.
        let x = grad(31, 20_000);
        let k = 200;
        let plain = MsTopK::new(30, 7).select_with_stats(&x, k);
        let (sel, stats, work) = MsTopK::new(30, 7).select(Source::Plain(&x), k);
        assert_eq!(plain, (sel, stats), "the entries share one body");
        assert_eq!(work.mean_max, 2 * x.len());
        // At least the wall compaction, at most the two gallop counts too.
        let full_passes = work.search - work.survivors;
        assert!((x.len()..=3 * x.len()).contains(&full_passes));
        assert_eq!(full_passes % x.len(), 0);
        // The accelerated selection scans only the survivor buffer.
        assert_eq!(work.selection, work.survivors);

        // Above it: the sample, one pass, and the survivors it left.
        let x = family("heavy-tailed", BIG);
        let k = BIG / 100;
        let (_, _, work) = MsTopK::new(30, 7).select(Source::Plain(&x), k);
        assert_eq!(work.mean_max, SAMPLE_LEN + BIG);
        // The survivors sit a few binomial deviations above `k`: at the
        // cutoff rank's share of the tensor, give or take the sample's
        // spread.
        let rank = cutoff_rank(k, BIG).unwrap();
        let keep = rank * BIG / SAMPLE_LEN;
        assert!(
            work.survivors > k && work.survivors < keep + (keep - k),
            "{work:?}"
        );
        assert_eq!(work.search, work.survivors);
        assert_eq!(work.selection, work.survivors);
    }

    /// The acceptance pin: at the error-feedback sparsification point the
    /// operator streams the shard once. Counted on the body's per-stage
    /// work so the pass count cannot creep back.
    #[test]
    fn accumulated_selection_streams_the_tensor_once() {
        let grad = family("heavy-tailed", BIG);
        let residual = family("layered", BIG);
        let k = BIG / 100;
        let mut acc = residual.clone();
        let source = Source::Accumulate {
            acc: &mut acc,
            grad: &grad,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let kept = &mut Kept::default();
        let (sel, stats, work) = mstopk_impl(source, k, 30, &mut rng, kept);

        let units = work.mean_max + work.search + work.selection;
        let passes = units as f64 / BIG as f64;
        assert!(
            (1.0..1.25).contains(&passes),
            "{passes} streaming passes at the sparsification point"
        );
        assert_eq!(
            work.mean_max,
            SAMPLE_LEN + BIG,
            "accumulate, mean and max must share the one pass"
        );

        // And it is the staged computation, bit for bit.
        let mut staged_acc = residual;
        ops::add_assign(&mut staged_acc, &grad);
        let staged = MsTopKNaive::new(30, 5).select_with_stats(&staged_acc, k);
        assert_same(&(sel, stats), &staged, "fused accumulate");
        assert_eq!(bits(&acc), bits(&staged_acc));
    }

    #[test]
    fn matches_naive_across_shapes_with_the_search_off_and_on() {
        for (seed, d) in [(41u64, 1_000usize), (42, 65_537)] {
            let x = grad(seed, d);
            for k in [1usize, d / 10] {
                for samplings in [0usize, 1, 30] {
                    let fast = MsTopK::new(samplings, 77).select_with_stats(&x, k);
                    let naive = MsTopKNaive::new(samplings, 77).select_with_stats(&x, k);
                    assert_eq!(fast, naive, "diverged d={d} k={k} n={samplings}");
                }
            }
        }
    }

    /// Smallest size the issue asks the sampled path to be held at.
    const BIG: usize = 4 * SAMPLE_FLOOR + 17;

    /// SplitMix64 finaliser: a cheap per-index hash for the big inputs.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Named input families for the differential tests.
    fn family(name: &str, d: usize) -> Vec<f32> {
        family_at(name, d, 0)
    }

    /// [`family`] drawn from the hash stream `salt`.
    fn family_at(name: &str, d: usize, salt: u64) -> Vec<f32> {
        let stride = d / SAMPLE_LINES;
        let salt = salt.wrapping_mul(0xD1B5_4A32_D192_ED03);
        (0..d)
            .map(|i| {
                let h = mix(i as u64 ^ salt);
                let sign = if h & 1 == 0 { 1.0f32 } else { -1.0 };
                // (0, 1], 24 bits.
                let u = ((h >> 40) + 1) as f32 / (1u64 << 24) as f32;
                let heavy = (-u.ln()).powi(3);
                sign * match name {
                    "heavy-tailed" => heavy,
                    "uniform-ties" => ((h >> 8) % 1000) as f32 * 1e-3,
                    // Six of them, none where the strided sample looks.
                    "outliers" if i % (800 * stride) == 3 * stride + 100 => 1e6,
                    "outliers" => u * 1e-3,
                    "constant" => 2.5,
                    "layered" if i < d / 2 => -u.ln(),
                    "layered" => -u.ln() * 1e-3,
                    "nan-7th" if i % 7 == 0 => f32::NAN,
                    "nan-7th" => heavy,
                    other => panic!("unknown family {other}"),
                }
            })
            .collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Selection and all five statistics, compared by bit pattern.
    fn assert_same(a: &(SparseGrad, MsTopKStats), b: &(SparseGrad, MsTopKStats), what: &str) {
        let stats =
            |t: &MsTopKStats| (t.k1, t.k2, t.thres1.to_bits(), t.thres2.to_bits(), t.passes);
        assert_eq!(stats(&a.1), stats(&b.1), "stats diverged: {what}");
        assert_eq!(a.0.dim, b.0.dim, "dim diverged: {what}");
        assert_eq!(a.0.indices, b.0.indices, "indices diverged: {what}");
        assert_eq!(
            bits(&a.0.values),
            bits(&b.0.values),
            "values diverged: {what}"
        );
    }

    /// `MsTopKNaive::new(n, seed).select_with_stats(x, k)` and the RNG
    /// state it leaves, for every `n` of the ascending `ns`, from one run
    /// of the probe loop: an `n`-probe search is a prefix of every longer
    /// one, so the brackets are snapshots of the longest. Same steps as
    /// [`mstopk_naive_with_rng`], which the first caller checks.
    fn naive_at(
        x: &[f32],
        k: usize,
        ns: &[usize],
        seed: u64,
    ) -> Vec<((SparseGrad, MsTopKStats), StdRng)> {
        let d = x.len();
        assert!(trivial_selection(x, d, k).is_none());
        let a_mean = ops::mean_abs(x);
        let u = ops::max_abs(x);
        let mut bracket = Bracket::new(d);
        let mut probed = 0;
        ns.iter()
            .map(|&n| {
                search_counting(x, k, n - probed, a_mean, u, &mut bracket);
                probed = n;
                let mut rng = StdRng::seed_from_u64(seed);
                let out = finish_selection(x, d, k, &bracket, n, &mut rng, None);
                (out, rng)
            })
            .collect()
    }

    /// The path `histogram_matches_naive_*` cannot reach: above the
    /// sampling floor, selection, statistics and RNG state must still be
    /// those of the naive search — whether the sampled cutoff seeds the
    /// search (sparse `k`), is declined (dense `k`, constant input) or the
    /// statistics are poisoned (NaN).
    fn sampled_path_matches_naive(name: &str) {
        const NS: [usize; 6] = [1, 3, 5, 17, 30, 39];
        let x = family(name, BIG);
        for k in [1usize, 100, BIG / 100, BIG / 10, BIG * 47 / 100] {
            let reference = naive_at(&x, k, &NS, 77);
            if k == 100 {
                // The snapshots are the naive operator's own results.
                let mut naive = MsTopKNaive::new(NS[2], 77);
                let direct = naive.select_with_stats(&x, k);
                assert_same(&direct, &reference[2].0, "naive_at");
                assert_eq!(naive.rng, reference[2].1);
            }
            for (samplings, (want, want_rng)) in NS.into_iter().zip(&reference) {
                let what = format!("{name} k={k} n={samplings}");
                let mut fast = MsTopK::new(samplings, 77);
                let got = fast.select_with_stats(&x, k);
                assert_same(&got, want, &what);
                assert_eq!(&fast.rng, want_rng, "rng state diverged: {what}");
            }
        }
    }

    #[test]
    fn sampled_path_matches_naive_on_heavy_tailed_input() {
        sampled_path_matches_naive("heavy-tailed");
    }

    #[test]
    fn sampled_path_matches_naive_on_uniform_input_with_ties() {
        sampled_path_matches_naive("uniform-ties");
    }

    #[test]
    fn sampled_path_matches_naive_on_a_few_huge_outliers() {
        sampled_path_matches_naive("outliers");
    }

    #[test]
    fn sampled_path_matches_naive_on_constant_magnitudes() {
        sampled_path_matches_naive("constant");
    }

    #[test]
    fn sampled_path_matches_naive_on_two_scale_input() {
        sampled_path_matches_naive("layered");
    }

    #[test]
    fn sampled_path_matches_naive_on_nan_every_seventh() {
        sampled_path_matches_naive("nan-7th");
    }

    /// Runs the operator and the naive one, asserts they agree, and
    /// returns the statistics with the stage work for path assertions.
    fn work_vs_naive(x: &[f32], k: usize, samplings: usize) -> (MsTopKStats, Work) {
        let (sel, stats, work) = MsTopK::new(samplings, 3).select(Source::Plain(x), k);
        let b = MsTopKNaive::new(samplings, 3).select_with_stats(x, k);
        assert_same(&(sel, stats), &b, "forced fallback");
        (stats, work)
    }

    /// Large magnitudes exactly where the sample looks, small ones
    /// everywhere else: at `k = d / 100` the sampled cutoff sits among the
    /// large values, of which the tensor holds fewer than `k`.
    fn sample_decoy(d: usize) -> Vec<f32> {
        let stride = d / SAMPLE_LINES;
        (0..d)
            .map(|i| {
                let u = (mix(i as u64) >> 40) as f32 / (1u64 << 24) as f32;
                let sampled = i / stride < SAMPLE_LINES && i % stride < SAMPLE_RUN;
                if sampled {
                    1.0 + u
                } else {
                    0.5 * u
                }
            })
            .collect()
    }

    #[test]
    fn a_sample_that_keeps_too_few_falls_back_to_the_gallop() {
        let x = sample_decoy(BIG);
        let k = BIG / 100;
        let (stats, work) = work_vs_naive(&x, k, 30);
        assert_eq!(
            work.mean_max,
            SAMPLE_LEN + BIG,
            "the sample must have been taken"
        );
        // ... and voided: the search went back to the tensor for at least
        // the wall compaction.
        assert!(work.search >= BIG + work.survivors);
        assert!(stats.k1 <= k && k < stats.k2);
    }

    #[test]
    fn a_last_overselecting_probe_below_the_cutoff_gets_its_count() {
        // Uniform magnitudes, one probe: mean + (max - mean) / 2 = 0.75
        // over-selects a quarter of the tensor from far below the cutoff
        // that keeps 3 %, and it is the last (only) over-selecting probe.
        let x = family("uniform-ties", BIG);
        let k = BIG / 100;
        let (stats, work) = work_vs_naive(&x, k, 1);
        assert_eq!(stats.k1, 0);
        assert!(
            stats.k2 > BIG / 5,
            "k2 = {} is not the real count",
            stats.k2
        );
        assert!(stats.thres2 > 0.0);
        // One repair count on top of the survivors; no selection shortcut.
        assert_eq!(work.search, BIG + work.survivors);
        assert_eq!(work.selection, BIG);
    }

    #[test]
    fn a_search_that_never_overselects_leaves_the_bracket_unset() {
        // Six outliers a million times the bulk: five halvings of the
        // range never come down to where more than `k` elements live.
        let x = family("outliers", BIG);
        let (stats, work) = work_vs_naive(&x, 100, 5);
        assert_eq!((stats.k2, stats.thres2), (BIG, 0.0));
        assert_eq!(stats.k1, 6);
        // Seeded (no gallop back to the tensor), but the band is the whole
        // tensor, so the selection rescans it.
        assert_eq!(work.search, work.survivors);
        assert_eq!(work.selection, BIG);
    }

    /// Degenerate shapes at the sampling floor, where the operator switches
    /// between the gallop and the sampled pass: just below, at and just
    /// above it, with `k` at both ends of its range and the search off,
    /// minimal and full. Plain and accumulated entries alike must be the
    /// naive operator's selection, statistics, accumulator and RNG state.
    #[test]
    fn sample_floor_shapes_match_naive_plain_and_accumulated() {
        for d in [SAMPLE_FLOOR - 1, SAMPLE_FLOOR, SAMPLE_FLOOR + 1] {
            let x = family("heavy-tailed", d);
            let residual = family("layered", d);
            let mut summed = residual.clone();
            ops::add_assign(&mut summed, &x);
            for k in [0, 1, d - 1, d] {
                for samplings in [0usize, 1, 30] {
                    let what = format!("d={d} k={k} n={samplings}");
                    let mut naive = MsTopKNaive::new(samplings, 13);
                    let want = naive.select_with_stats(&x, k);
                    let mut fast = MsTopK::new(samplings, 13);
                    let got = fast.select_with_stats(&x, k);
                    assert_same(&got, &want, &what);
                    assert_eq!(fast.rng, naive.rng, "rng state diverged: {what}");

                    let mut naive = MsTopKNaive::new(samplings, 13);
                    let want = naive.select_with_stats(&summed, k);
                    let mut acc = residual.clone();
                    let mut rng = StdRng::seed_from_u64(13);
                    let source = Source::Accumulate {
                        acc: &mut acc,
                        grad: &x,
                    };
                    let kept = &mut Kept::default();
                    let (sel, stats, _) = mstopk_impl(source, k, samplings, &mut rng, kept);
                    assert_same(&(sel, stats), &want, &format!("accumulated {what}"));
                    assert_eq!(rng, naive.rng, "rng state diverged: accumulated {what}");
                    assert_eq!(bits(&acc), bits(&summed), "accumulator: {what}");

                    // And through the public entry.
                    let mut acc = residual.clone();
                    let mut fast = MsTopK::new(samplings, 13);
                    let sel = fast.compress_accumulated(&mut acc, &x, k);
                    assert_eq!(sel, want.0, "compress_accumulated: {what}");
                    assert_eq!(bits(&acc), bits(&summed), "accumulator: {what}");
                }
            }
        }
    }

    /// One operator over changing shapes — a sampled-cutoff shard, a
    /// sample that falls back to the gallop, a shard below the sample
    /// floor, round and round — each shape through every entry point in
    /// turn: each call is bitwise the free function's on the same RNG
    /// stream, and the lists it keeps stop growing once every shape has
    /// been seen.
    #[test]
    fn one_operator_reuses_its_lists_across_shapes() {
        let shapes = [
            ("sampled", family("heavy-tailed", BIG)),
            ("gallop", sample_decoy(BIG)),
            ("below the floor", family("heavy-tailed", SAMPLE_FLOOR - 1)),
        ];
        let residual = family("layered", BIG);
        let mut op = MsTopK::new(30, 21);
        let mut rng = StdRng::seed_from_u64(21);
        let mut warm = None;
        for round in 0..4 {
            for (shape, (name, x)) in shapes.iter().enumerate() {
                let entry = (round + shape) % 4;
                let what = format!("round {round}, {name}, entry {entry}");
                let k = x.len() / 100;
                // The selection, its statistics where the entry returns
                // them, and the free function's on the same stream.
                let (sel, stats, want) = match entry {
                    0 => {
                        let (sel, stats) = op.select_with_stats(x, k);
                        (sel, Some(stats), mstopk_with_rng(x, k, 30, &mut rng))
                    }
                    1 => {
                        // Kept lists change no stage's work either.
                        let (sel, stats, work) = op.select(Source::Plain(x), k);
                        let kept = &mut Kept::default();
                        let (want_sel, want_stats, want_work) =
                            mstopk_impl(Source::Plain(x), k, 30, &mut rng, kept);
                        assert_eq!(work, want_work, "{what}");
                        (sel, Some(stats), (want_sel, want_stats))
                    }
                    2 => (op.compress(x, k), None, mstopk_with_rng(x, k, 30, &mut rng)),
                    _ => {
                        let mut acc = residual[..x.len()].to_vec();
                        let sel = op.compress_accumulated(&mut acc, x, k);
                        let mut summed = residual[..x.len()].to_vec();
                        ops::add_assign(&mut summed, x);
                        assert_eq!(bits(&acc), bits(&summed), "{what}");
                        (sel, None, mstopk_with_rng(&summed, k, 30, &mut rng))
                    }
                };
                assert_same(&(sel, stats.unwrap_or(want.1)), &want, &what);
                assert_eq!(op.rng, rng, "rng state diverged: {what}");
            }
            let lists = &op.kept.lists;
            let capacity = (lists.vals.capacity(), lists.idx.capacity());
            assert!(capacity.0 >= BIG && capacity.1 >= BIG, "round {round}");
            assert_eq!(
                *warm.get_or_insert(capacity),
                capacity,
                "round {round} grew"
            );
        }
    }

    /// The spread the cutoff rank allows for: over many seeds, at both
    /// trained densities, on the two families without hostile structure,
    /// the sample never keeps `k` or fewer (no gallop back to the tensor),
    /// the search never needs a `k2` repair, and the finish is served by
    /// the survivors — no pass over the tensor after the sweep.
    #[test]
    fn the_sampling_margin_holds_across_seeds() {
        for name in ["heavy-tailed", "layered"] {
            for seed in 0..200 {
                let x = family_at(name, BIG, seed + 1);
                for k in [BIG / 100, BIG / 1000] {
                    let mut op = MsTopK::new(30, seed);
                    let (_, _, work) = op.select(Source::Plain(&x), k);
                    let what = format!("{name} seed {seed} k {k}: {work:?}");
                    assert!(work.survivors > k, "{what}");
                    assert_eq!(work.search, work.survivors, "a pass back: {what}");
                    assert_eq!(work.selection, work.survivors, "{what}");
                    assert_eq!(op.fused_counts().rescans, 0, "{what}");
                }
            }
        }
    }

    /// Folds `x + y` into `acc` as HiTopKComm's last hop does, `piece`
    /// elements per call, through `op`'s sink if it offers one; returns
    /// whether it did.
    fn fold_through(
        op: &mut MsTopK,
        acc: &mut [f32],
        x: &mut [f32],
        y: &[f32],
        piece: usize,
    ) -> bool {
        let d = acc.len();
        let Some(sink) = op.fold_sink(d) else {
            ops::add_sum_drain(acc, x, y);
            return false;
        };
        for at in (0..d).step_by(piece) {
            let end = d.min(at + piece);
            sink.fold(at, &mut acc[at..end], &mut x[at..end], &y[at..end]);
        }
        true
    }

    /// Error feedback round after round through the fold sink: each
    /// selection is the naive operator's on the staged sum — selection,
    /// statistics, RNG state — whether the sink was not offered (first
    /// call), hit (no pass before the search), missed because the
    /// tensor's magnitudes fell a thousandfold under the hint, was fed
    /// pieces off the block grid, or was followed by a selection on a copy
    /// of the folded tensor; and the counts say which.
    #[test]
    fn a_fused_sweep_selects_the_separate_sweeps_bits() {
        const BLOCK: usize = ops::REDUCE_BLOCK;
        // (what, input scale, piece, select from a copy, hit, miss)
        let rounds = [
            ("no hint yet", 1.0f32, BLOCK, false, 0, 0),
            ("hit", 1.0, BLOCK, false, 1, 0),
            ("hit", 1.0, BLOCK, false, 1, 0),
            ("overshot hint", 1e-3, BLOCK, false, 0, 1),
            ("pieces off the grid", 1.0, 3 * BLOCK / 2, false, 0, 1),
            ("a copy selected", 1.0, BLOCK, true, 0, 1),
            ("hit again", 1.0, BLOCK, false, 1, 0),
        ];
        let d = BIG;
        let k = d / 100;
        let mut op = MsTopK::new(30, 17);
        let mut naive = MsTopKNaive::new(30, 17);
        let mut acc = vec![0.0f32; d];
        let mut want_acc = acc.clone();
        for (round, &(what, scale, piece, copy, hit, miss)) in rounds.iter().enumerate() {
            let what = format!("round {round}, {what}");
            let scaled = |salt| -> Vec<f32> {
                let v = family_at("heavy-tailed", d, salt);
                v.into_iter().map(|v| v * scale).collect()
            };
            let (mut x, y) = (scaled(2 * round as u64 + 1), scaled(2 * round as u64 + 2));
            let mut sum = x.clone();
            ops::add_assign(&mut sum, &y);
            ops::add_assign(&mut want_acc, &sum);
            let offered = fold_through(&mut op, &mut acc, &mut x, &y, piece);
            assert_eq!(offered, round > 0, "{what}");
            assert_eq!(bits(&acc), bits(&want_acc), "fold, {what}");
            assert!(x.iter().all(|v| v.to_bits() == 0), "drain, {what}");

            let before = op.fused_counts();
            let copied = acc.clone();
            let from = if copy { &copied } else { &acc };
            let (sel, stats, work) = op.select(Source::Plain(from), k);
            let want = naive.select_with_stats(&want_acc, k);
            assert_same(&(sel.clone(), stats), &want, &what);
            assert_eq!(op.rng, naive.rng, "rng state diverged: {what}");
            let after = op.fused_counts();
            assert_eq!(after.hits - before.hits, hit, "hits, {what}");
            assert_eq!(after.misses - before.misses, miss, "misses, {what}");
            assert_eq!(after.rescans, 0, "{what}");
            if hit == 1 {
                // The pass-count pin: a hit streams no sample and no tensor
                // before the search, only the fold's provisional list.
                assert!(work.mean_max < SAMPLE_LEN, "{what}: {work:?}");
                assert!(work.mean_max >= work.survivors, "{what}: {work:?}");
            } else {
                assert!(work.mean_max >= d, "{what}: {work:?}");
            }
            ops::zero_at(&mut acc, &sel.indices);
            ops::zero_at(&mut want_acc, &sel.indices);
        }
    }

    #[test]
    fn histogram_matches_naive_on_degenerate_magnitudes() {
        // mean == max: the constant-threshold replay path.
        let x = vec![-3.0f32; 513];
        for k in [1usize, 256, 512] {
            let (sh, th) = MsTopK::new(30, 5).select_with_stats(&x, k);
            let (sn, tn) = MsTopKNaive::new(30, 5).select_with_stats(&x, k);
            assert_eq!(sh, sn);
            assert_eq!(th, tn);
        }
    }
}
