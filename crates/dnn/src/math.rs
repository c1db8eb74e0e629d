//! Dense matrix kernels under every layer: `Linear`, `SelfAttention` and
//! the lowered `Conv2d` all run on the four GEMM forms below.
//!
//! Row-major throughout. Each kernel holds an `MR × NR` tile of *outputs*
//! in registers for the whole reduction loop and vectorises **across
//! independent outputs, never inside a reduction**: every output element
//! starts from exactly the value the textbook loop starts it from and adds
//! its products one at a time in ascending reduction index, so the result
//! is bit for bit the serial triple loop's (kept under `#[cfg(test)]` as
//! `reference`, the oracle the tests compare `to_bits` against) — only
//! the number of dependent-add chains in flight changes. The tiles are
//! `[f32; NR]` blocks in safe Rust that LLVM lowers onto vector registers,
//! no intrinsics, no `unsafe`. DESIGN.md §6.4 has the order-preservation
//! argument per kernel.

/// Output rows per register tile.
///
/// Register budget on the default SSE2 build (16 `xmm` registers of four
/// `f32`): an `MR × NR` = 4 × 8 accumulator tile is 8 registers, the
/// shared right-hand lane block 2, the broadcast left-hand scalar 1 — 11
/// live, which leaves the temporaries SSE2's destructive `mulps` needs and
/// never spills; a 4 × 4 tile would halve the work per right-hand load.
/// Every channel count and every `c·k·k` of the reference models but the
/// stem's 27 is a multiple of 4, so edge tiles are rare.
const MR: usize = 4;
/// Output columns (lanes) per register tile: two SSE2 registers. Also the
/// number of channels (or rows) the normalisation layers and the conv bias
/// gradient sum side by side.
pub(crate) const NR: usize = 8;
/// Tile edge of the dot-product form ([`matmul_bt`]), whose operands are
/// both reduction-contiguous, so no output dimension is contiguous to
/// lane over: `BT × BT` = 16 independent *scalar* chains (4 registers of
/// accumulators) hide the add latency instead.
const BT: usize = 4;

/// What `Iterator::sum::<f32>()` starts from. The dot forms were written
/// as `zip().map().sum()`, so their first product is added to `-0.0`
/// (the additive identity that keeps a `-0.0` product `-0.0`).
pub(crate) const DOT_INIT: f32 = -0.0;

/// Loads the first `N` elements of a slice (one bounds check).
#[inline(always)]
pub(crate) fn load<const N: usize>(s: &[f32]) -> [f32; N] {
    let mut out = [0.0; N];
    out.copy_from_slice(&s[..N]);
    out
}

/// The shared micro-kernel: `acc[r][l] += lhs(p)[r] · rhs(p)[l]` for `p`
/// ascending over `0..depth` — `R × NR` independent chains, each adding
/// its products in reduction order.
#[inline(always)]
fn tile<const R: usize>(
    mut acc: [[f32; NR]; R],
    depth: usize,
    lhs: impl Fn(usize) -> [f32; R],
    rhs: impl Fn(usize) -> [f32; NR],
) -> [[f32; NR]; R] {
    for p in 0..depth {
        let lanes = rhs(p);
        for (row, v) in acc.iter_mut().zip(lhs(p)) {
            for (a, b) in row.iter_mut().zip(lanes) {
                *a += v * b;
            }
        }
    }
    acc
}

/// `R` consecutive length-`k` rows of a row-major matrix, from row `i`.
#[inline(always)]
pub(crate) fn rows<const R: usize>(x: &[f32], i: usize, k: usize) -> [&[f32]; R] {
    // A plain loop, not `array::from_fn`: it always unrolls, so every row
    // is visibly `k` long and indexing below `k` needs no bounds check.
    let mut out = [&x[..0]; R];
    for (r, row) in out.iter_mut().enumerate() {
        *row = &x[(i + r) * k..][..k];
    }
    out
}

/// `L` serial sums side by side, one per row: lane `l` is what
/// `rows[l].iter().map(|&v| term(l, v)).sum::<f32>()` computes — `-0.0`
/// plus the terms in ascending index — so only the number of dependent-add
/// chains in flight changes. The rows must be equally long.
#[inline(always)]
pub(crate) fn row_sums<const L: usize>(
    rows: [&[f32]; L],
    term: impl Fn(usize, f32) -> f32,
) -> [f32; L] {
    let mut acc = [DOT_INIT; L];
    for i in 0..rows.first().map_or(0, |row| row.len()) {
        for (l, (a, row)) in acc.iter_mut().zip(rows).enumerate() {
            *a += term(l, row[i]);
        }
    }
    acc
}

/// `c = a @ b` where `a` is `m×k`, `b` is `k×n`, `c` is `m×n` (overwritten).
///
/// Every `c[i, j]` is `0.0` plus its `k` products in ascending `p`.
///
/// # Panics
/// Panics if the buffer lengths do not match the given dimensions.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul: a has wrong length");
    assert_eq!(b.len(), k * n, "matmul: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul: c has wrong length");
    let n_tiled = n - n % NR;
    for j in (0..n_tiled).step_by(NR) {
        let b_lanes = |p: usize| load(&b[p * n + j..]);
        let mut i = 0;
        while i + MR <= m {
            let a_rows = rows::<MR>(a, i, k);
            let acc = tile([[0.0; NR]; MR], k, |p| a_rows.map(|row| row[p]), b_lanes);
            for (r, row) in acc.iter().enumerate() {
                c[(i + r) * n + j..][..NR].copy_from_slice(row);
            }
            i += MR;
        }
        for i in i..m {
            let [a_row] = rows::<1>(a, i, k);
            let [row] = tile([[0.0; NR]], k, |p| [a_row[p]], b_lanes);
            c[i * n + j..][..NR].copy_from_slice(&row);
        }
    }
    for i in 0..m {
        for j in n_tiled..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `c = a @ b^T` where `a` is `m×k`, `b` is `n×k`, `c` is `m×n`.
///
/// Every `c[i, j]` is the serial dot `a[i, :] · b[j, :]` — `-0.0` plus the
/// `k` products in ascending `p`, what `zip().map().sum()` computes.
///
/// # Panics
/// Panics on length mismatches.
pub fn matmul_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_bt: a has wrong length");
    assert_eq!(b.len(), n * k, "matmul_bt: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul_bt: c has wrong length");
    let (m_tiled, n_tiled) = (m - m % BT, n - n % BT);
    for i in (0..m_tiled).step_by(BT) {
        let a_rows = rows::<BT>(a, i, k);
        for j in (0..n_tiled).step_by(BT) {
            let b_rows = rows::<BT>(b, j, k);
            let mut acc = [[DOT_INIT; BT]; BT];
            for p in 0..k {
                let bv = b_rows.map(|row| row[p]);
                for (row, a_row) in acc.iter_mut().zip(a_rows) {
                    let av = a_row[p];
                    for (s, bl) in row.iter_mut().zip(bv) {
                        *s += av * bl;
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                c[(i + r) * n + j..][..BT].copy_from_slice(row);
            }
        }
    }
    // Edge rows and columns: the plain dot, same order.
    let mut dot = |i: usize, j: usize| {
        let mut acc = DOT_INIT;
        for (x, y) in a[i * k..][..k].iter().zip(&b[j * k..][..k]) {
            acc += x * y;
        }
        c[i * n + j] = acc;
    };
    for i in 0..m_tiled {
        for j in n_tiled..n {
            dot(i, j);
        }
    }
    for i in m_tiled..m {
        for j in 0..n {
            dot(i, j);
        }
    }
}

/// `c += a^T @ b` where `a` is `m×k`, `b` is `m×n`, `c` is `k×n`
/// (accumulating — the natural form for weight-gradient accumulation).
///
/// Every `c[p, j]` is its existing value plus the `m` products in
/// ascending `i`.
///
/// # Panics
/// Panics on length mismatches.
pub fn matmul_at_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_at_acc: a has wrong length");
    assert_eq!(b.len(), m * n, "matmul_at_acc: b has wrong length");
    assert_eq!(c.len(), k * n, "matmul_at_acc: c has wrong length");
    let n_tiled = n - n % NR;
    for j in (0..n_tiled).step_by(NR) {
        let b_lanes = |i: usize| load(&b[i * n + j..]);
        let mut p = 0;
        while p + MR <= k {
            let init: [[f32; NR]; MR] = std::array::from_fn(|r| load(&c[(p + r) * n + j..]));
            let acc = tile(init, m, |i| load(&a[i * k + p..]), b_lanes);
            for (r, row) in acc.iter().enumerate() {
                c[(p + r) * n + j..][..NR].copy_from_slice(row);
            }
            p += MR;
        }
        for p in p..k {
            let [row] = tile([load(&c[p * n + j..])], m, |i| [a[i * k + p]], b_lanes);
            c[p * n + j..][..NR].copy_from_slice(&row);
        }
    }
    for p in 0..k {
        for j in n_tiled..n {
            let mut acc = c[p * n + j];
            for i in 0..m {
                acc += a[i * k + p] * b[i * n + j];
            }
            c[p * n + j] = acc;
        }
    }
}

/// `c += a @ b^T` with `a` supplied **transposed**: `a_t` is `k×m`, `b` is
/// `n×k`, `c` is `m×n`. The form the convolution weight gradient needs
/// (`dW[oc, r] += Σ_col dY[oc, col] · cols[r, col]`).
///
/// Every `c[i, j]` gains the serial dot `a[i, :] · b[j, :]` — `-0.0` plus
/// the `k` products in ascending `p`, summed *before* it is added to `c`,
/// exactly as `c[i, j] += zip().map().sum()` would. Both operands of that
/// dot are reduction-contiguous, so neither output dimension can be laned
/// over as stored; taking the small operand transposed makes `i` the lane
/// dimension and leaves the large one (`b`, the im2col matrix) untouched.
///
/// # Panics
/// Panics on length mismatches.
pub fn matmul_bt_acc(a_t: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a_t.len(), k * m, "matmul_bt_acc: a_t has wrong length");
    assert_eq!(b.len(), n * k, "matmul_bt_acc: b has wrong length");
    assert_eq!(c.len(), m * n, "matmul_bt_acc: c has wrong length");
    let m_tiled = m - m % NR;
    for i in (0..m_tiled).step_by(NR) {
        let a_lanes = |p: usize| load(&a_t[p * m + i..]);
        let mut j = 0;
        while j + MR <= n {
            let b_rows = rows::<MR>(b, j, k);
            let acc = tile(
                [[DOT_INIT; NR]; MR],
                k,
                |p| b_rows.map(|row| row[p]),
                a_lanes,
            );
            for (r, row) in acc.iter().enumerate() {
                for (l, dot) in row.iter().enumerate() {
                    c[(i + l) * n + j + r] += dot;
                }
            }
            j += MR;
        }
        for j in j..n {
            let [b_row] = rows::<1>(b, j, k);
            let [row] = tile([[DOT_INIT; NR]], k, |p| [b_row[p]], a_lanes);
            for (l, dot) in row.iter().enumerate() {
                c[(i + l) * n + j] += dot;
            }
        }
    }
    for i in m_tiled..m {
        for j in 0..n {
            let mut acc = DOT_INIT;
            for p in 0..k {
                acc += a_t[p * m + i] * b[j * k + p];
            }
            c[i * n + j] += acc;
        }
    }
}

/// Row-wise softmax in place over an `m×n` matrix (numerically stable).
///
/// # Panics
/// Panics if the buffer length is not `m * n`.
pub fn softmax_rows(x: &mut [f32], m: usize, n: usize) {
    assert_eq!(x.len(), m * n, "softmax_rows: wrong length");
    for row in x.chunks_mut(n) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Transposes an `m×n` matrix into a new `n×m` buffer.
pub fn transpose(x: &[f32], m: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0; n * m];
    transpose_into(x, &mut out, m, n);
    out
}

/// Transposes an `m×n` matrix into the `n×m` buffer `out` (overwritten).
///
/// # Panics
/// Panics if either buffer is not `m * n` long.
pub fn transpose_into(x: &[f32], out: &mut [f32], m: usize, n: usize) {
    assert_eq!(x.len(), m * n, "transpose: wrong length");
    assert_eq!(out.len(), m * n, "transpose: wrong output length");
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = x[i * n + j];
        }
    }
}

/// The serial loops the tiled kernels replaced, kept verbatim as the
/// bitwise oracle: every tiled kernel must equal its reference `to_bits`
/// for `to_bits` on any input.
#[cfg(test)]
pub(crate) mod reference {
    pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        c.fill(0.0);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let b_row = &b[p * n..(p + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                    *c_v += a_ip * b_v;
                }
            }
        }
    }

    pub fn matmul_bt(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                c[i * n + j] = a_row.iter().zip(b_row).map(|(x, y)| x * y).sum();
            }
        }
    }

    pub fn matmul_at_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let b_row = &b[i * n..(i + 1) * n];
            for (p, &a_ip) in a_row.iter().enumerate() {
                let c_row = &mut c[p * n..(p + 1) * n];
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                    *c_v += a_ip * b_v;
                }
            }
        }
    }

    /// The conv weight-gradient loop, on the *untransposed* `a` (`m×k`).
    pub fn matmul_bt_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b[j * k..(j + 1) * k];
                c[i * n + j] += a_row.iter().zip(b_row).map(|(x, y)| x * y).sum::<f32>();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, tricky};
    use proptest::prelude::*;

    /// All four kernels against their references at one shape.
    fn assert_kernels_match_reference(m: usize, k: usize, n: usize, seed: u64) {
        let a = tricky(m * k, seed);
        let b = tricky(k * n, seed + 1);
        let (mut c, mut c_ref) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
        matmul(&a, &b, &mut c, m, k, n);
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        assert_eq!(bits(&c), bits(&c_ref), "matmul {m}x{k}x{n}");

        let bt = tricky(n * k, seed + 2);
        matmul_bt(&a, &bt, &mut c, m, k, n);
        reference::matmul_bt(&a, &bt, &mut c_ref, m, k, n);
        assert_eq!(bits(&c), bits(&c_ref), "matmul_bt {m}x{k}x{n}");

        // The accumulating forms start from a non-zero `c`.
        let init = tricky(m * n, seed + 3);
        let (mut c, mut c_ref) = (init.clone(), init);
        matmul_bt_acc(&transpose(&a, m, k), &bt, &mut c, m, k, n);
        reference::matmul_bt_acc(&a, &bt, &mut c_ref, m, k, n);
        assert_eq!(bits(&c), bits(&c_ref), "matmul_bt_acc {m}x{k}x{n}");

        let b2 = tricky(m * n, seed + 4);
        let init = tricky(k * n, seed + 5);
        let (mut c, mut c_ref) = (init.clone(), init);
        matmul_at_acc(&a, &b2, &mut c, m, k, n);
        reference::matmul_at_acc(&a, &b2, &mut c_ref, m, k, n);
        assert_eq!(bits(&c), bits(&c_ref), "matmul_at_acc {m}x{k}x{n}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Ragged, degenerate and empty shapes: every edge-tile path.
        #[test]
        fn tiled_kernels_match_reference_bitwise(
            m in 0usize..41,
            k in 0usize..41,
            n in 0usize..41,
            seed in 0u64..1_000_000,
        ) {
            assert_kernels_match_reference(m, k, n, seed);
        }
    }

    #[test]
    fn tiled_kernels_match_reference_on_fixed_shapes() {
        // The conv lowerings of ResNet-lite, its 1×1 projection, the
        // Transformer's token rows and the ResNet head; then every way a
        // dimension can be empty or smaller than a tile.
        for (i, &(m, k, n)) in [
            (8, 72, 256),
            (16, 144, 64),
            (32, 288, 16),
            (16, 8, 64),
            (128, 16, 16),
            (17, 16, 10),
            (0, 5, 9),
            (5, 0, 9),
            (9, 5, 0),
            (0, 0, 0),
            (1, 1, 1),
            (3, 2, 7),
        ]
        .iter()
        .enumerate()
        {
            assert_kernels_match_reference(m, k, n, 1000 + i as u64);
        }
    }

    #[test]
    fn dot_forms_start_from_negative_zero() {
        // An all-`-0.0` dot stays `-0.0` (a `+0.0` start would flip it), and
        // the empty dot is `Iterator::sum`'s identity.
        let mut c = [1.0f32; 1];
        matmul_bt(&[-0.0], &[0.0], &mut c, 1, 1, 1);
        assert_eq!(c[0].to_bits(), (-0.0f32).to_bits());
        matmul_bt(&[], &[], &mut c, 1, 0, 1);
        assert_eq!(
            c[0].to_bits(),
            std::iter::empty::<f32>().sum::<f32>().to_bits()
        );
    }

    #[test]
    fn matmul_2x2() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let a: Vec<f32> = (0..6).map(|i| i as f32).collect(); // 2x3
        let b: Vec<f32> = (0..12).map(|i| (i as f32).sin()).collect(); // 4x3
        let mut c1 = vec![0.0; 8];
        matmul_bt(&a, &b, &mut c1, 2, 3, 4);
        let bt = transpose(&b, 4, 3); // 3x4
        let mut c2 = vec![0.0; 8];
        matmul(&a, &bt, &mut c2, 2, 3, 4);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_at_acc_matches_explicit_transpose() {
        let a: Vec<f32> = (0..6).map(|i| i as f32 * 0.3).collect(); // 2x3 (m=2,k=3)
        let b: Vec<f32> = (0..8).map(|i| i as f32 * 0.7).collect(); // 2x4 (m=2,n=4)
        let mut c1 = vec![1.0; 12]; // accumulates onto existing
        matmul_at_acc(&a, &b, &mut c1, 2, 3, 4);
        let at = transpose(&a, 2, 3); // 3x2
        let mut c2 = vec![0.0; 12];
        matmul(&at, &b, &mut c2, 3, 2, 4);
        for (x, y) in c1.iter().zip(&c2) {
            assert!((x - (y + 1.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_rows_normalises() {
        let mut x = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut x, 2, 3);
        for row in x.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(row.iter().all(|v| *v > 0.0));
        }
        // Larger logits get larger probabilities.
        assert!(x[2] > x[1] && x[1] > x[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut x = vec![1000.0, 1001.0];
        softmax_rows(&mut x, 1, 2);
        assert!(x.iter().all(|v| v.is_finite()));
        assert!((x[0] + x[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transpose_roundtrip() {
        let x: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let t = transpose(&x, 3, 4);
        let tt = transpose(&t, 4, 3);
        assert_eq!(x, tt);
    }
}
