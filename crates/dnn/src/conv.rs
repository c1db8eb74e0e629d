//! 2-D convolution and pooling over `[batch, channels, h, w]` tensors.
//!
//! [`Conv2d`] has one implementation: the im2col lowering. Each image is
//! unrolled into a `[c·k·k, oh·ow]` column matrix, after which the forward
//! pass, the weight gradient and the input gradient are the register-tiled
//! GEMMs of [`crate::math`] — `W · cols`, `dY · colsᵀ` and `Wᵀ · dY`
//! followed by [`col2im_acc`]. All lowering buffers are **owned by the
//! layer and reused across steps** (DESIGN.md §6.4): the column buffer is
//! keyed by `(images, h, w)` and re-zeroed only when that geometry changes
//! (padding positions are never written, so they stay zero), and an
//! evaluation forward lowers one image at a time and retains nothing. The
//! direct six-deep loops survive as the `#[cfg(test)]` reference the
//! lowering is checked against, together with finite differences.

use cloudtrain_tensor::{init, Tensor};
use rand::rngs::StdRng;

use crate::layer::{Layer, Param};
use crate::math::{matmul, matmul_at_acc, matmul_bt_acc, rows, DOT_INIT, NR};

/// The output columns `lo..hi` of one row whose tap `k_off` lands inside
/// `0..len` of the input: `o·stride + k_off - pad ∈ 0..len`.
fn valid_span(
    k_off: usize,
    pad: usize,
    stride: usize,
    len: usize,
    out_len: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(k_off).div_ceil(stride);
    let hi = (len + pad).saturating_sub(k_off).div_ceil(stride);
    (lo.min(out_len), hi.min(out_len))
}

/// Unrolls one image `[c, h, w]` into columns `[c*k*k, oh*ow]` for a
/// k×k same-padded convolution with the given stride — the classic
/// im2col lowering that turns convolution into one big matmul.
///
/// Writes the in-image positions only: `cols` must hold zeros at the
/// padding positions, which a buffer that was zeroed once and only ever
/// filled at this geometry does.
///
/// # Panics
/// Panics if `cols` is not `c*k*k × oh*ow` long or `x` is shorter than
/// `c*h*w`.
pub fn im2col_into(
    x: &[f32],
    cols: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
) {
    let pad = k / 2;
    let oh = h.div_ceil(stride);
    let ow = w.div_ceil(stride);
    let cols_n = oh * ow;
    assert_eq!(cols.len(), c * k * k * cols_n, "im2col_into: cols length");
    for ic in 0..c {
        let plane = &x[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            let (oy_lo, oy_hi) = valid_span(ky, pad, stride, h, oh);
            for kx in 0..k {
                let (ox_lo, ox_hi) = valid_span(kx, pad, stride, w, ow);
                let row = (ic * k + ky) * k + kx;
                let dst = &mut cols[row * cols_n..(row + 1) * cols_n];
                for oy in oy_lo..oy_hi {
                    let src = &plane[(oy * stride + ky - pad) * w..][..w];
                    let dst = &mut dst[oy * ow + ox_lo..oy * ow + ox_hi];
                    if stride == 1 {
                        // A contiguous run of the input row: one memcpy.
                        dst.copy_from_slice(&src[ox_lo + kx - pad..][..dst.len()]);
                    } else {
                        for (d, ox) in dst.iter_mut().zip(ox_lo..) {
                            *d = src[ox * stride + kx - pad];
                        }
                    }
                }
            }
        }
    }
}

/// Scatters column gradients back into an image gradient (the adjoint of
/// [`im2col_into`]): `dx[c, h, w] += fold(dcols)`. Column rows are applied
/// in ascending `(channel, ky, kx)` order, which fixes the order in which
/// every `dx` element receives its (at most `k·k`) contributions.
pub fn col2im_acc(
    dcols: &[f32],
    dx: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
) {
    let pad = k / 2;
    let oh = h.div_ceil(stride);
    let ow = w.div_ceil(stride);
    let cols_n = oh * ow;
    for ic in 0..c {
        let plane = &mut dx[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            let (oy_lo, oy_hi) = valid_span(ky, pad, stride, h, oh);
            for kx in 0..k {
                let (ox_lo, ox_hi) = valid_span(kx, pad, stride, w, ow);
                let row = (ic * k + ky) * k + kx;
                let src = &dcols[row * cols_n..(row + 1) * cols_n];
                for oy in oy_lo..oy_hi {
                    let dst = &mut plane[(oy * stride + ky - pad) * w..][..w];
                    let src = &src[oy * ow + ox_lo..oy * ow + ox_hi];
                    if stride == 1 {
                        let dst = &mut dst[ox_lo + kx - pad..][..src.len()];
                        for (d, s) in dst.iter_mut().zip(src) {
                            *d += s;
                        }
                    } else {
                        for (s, ox) in src.iter().zip(ox_lo..) {
                            dst[ox * stride + kx - pad] += s;
                        }
                    }
                }
            }
        }
    }
}

/// The prologue of one image's backward: transposes its output gradient
/// `dy_b` (`[out_c, n]`) into `dy_t` (`[n, out_c]`) and adds every row's
/// sum to the bias gradient `db`, [`NR`] output channels at a time (the
/// `out_c mod 8` tail one at a time).
fn transpose_and_sum_rows(dy_b: &[f32], dy_t: &mut [f32], db: &mut [f32], out_c: usize, n: usize) {
    /// Channels `oc..oc + L`: one contiguous `L`-wide store per column of
    /// `dy_t`, and `L` serial row sums side by side — each `Iterator::sum`'s
    /// chain, from `-0.0`, added to `db` once complete.
    #[inline(always)]
    fn block<const L: usize>(
        dy_b: &[f32],
        dy_t: &mut [f32],
        db: &mut [f32],
        [out_c, n]: [usize; 2],
        oc: usize,
    ) {
        let dy_rows = rows::<L>(dy_b, oc, n);
        let mut sums = [DOT_INIT; L];
        for col in 0..n {
            let lanes = dy_rows.map(|row| row[col]);
            for (sum, g) in sums.iter_mut().zip(lanes) {
                *sum += g;
            }
            dy_t[col * out_c + oc..][..L].copy_from_slice(&lanes);
        }
        for (g, sum) in db[oc..oc + L].iter_mut().zip(sums) {
            *g += sum;
        }
    }
    let tiled = out_c - out_c % NR;
    for oc in (0..tiled).step_by(NR) {
        block::<NR>(dy_b, dy_t, db, [out_c, n], oc);
    }
    for oc in tiled..out_c {
        block::<1>(dy_b, dy_t, db, [out_c, n], oc);
    }
}

/// The lowering buffers of one [`Conv2d`], reused across steps: after the
/// first training step at a geometry, forward + backward allocate none of
/// them again.
#[derive(Debug, Default)]
struct Scratch {
    /// Column matrices, `[images, c·k·k, oh·ow]` contiguous: the whole
    /// batch in training (backward reads them), one image in evaluation.
    cols: Vec<f32>,
    /// `(images, h, w)` that `cols` is sized and zeroed for.
    geom: Option<(usize, usize, usize)>,
    /// One image's column gradient `Wᵀ · dY`, `[c·k·k, oh·ow]`.
    dcols: Vec<f32>,
    /// One image's output gradient transposed, `[oh·ow, out_c]` — what
    /// lets the weight gradient lane over output channels.
    dy_t: Vec<f32>,
}

impl Scratch {
    /// Sizes `cols` for `images` matrices of `per_image` elements. The
    /// buffer is re-zeroed only when the geometry changes: at a fixed
    /// geometry im2col overwrites exactly the same in-image positions every
    /// call and never touches the padding positions.
    fn key_cols(&mut self, images: usize, h: usize, w: usize, per_image: usize) {
        if self.geom != Some((images, h, w)) {
            self.cols.clear();
            self.cols.resize(images * per_image, 0.0);
            self.geom = Some((images, h, w));
        }
    }
}

/// 3×3-style 2-D convolution with "same" padding and stride 1 or 2.
#[derive(Debug)]
pub struct Conv2d {
    w: Param, // [out_c, in_c, k, k]
    b: Param, // [out_c]
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    scratch: Scratch,
    /// `[b, c, h, w]` of the last training forward, until backward consumes
    /// it. The lowered backward reads the columns, never the input values.
    in_shape: Option<[usize; 4]>,
}

impl Conv2d {
    /// Creates a He-initialised convolution.
    ///
    /// # Panics
    /// Panics if `k` is even (same-padding needs odd kernels) or
    /// `stride == 0`.
    pub fn new(in_c: usize, out_c: usize, k: usize, stride: usize, rng: &mut StdRng) -> Self {
        assert!(k % 2 == 1, "Conv2d: kernel must be odd for same padding");
        assert!(stride > 0, "Conv2d: stride must be positive");
        let mut w = vec![0.0; out_c * in_c * k * k];
        init::fill_he(&mut w, in_c * k * k, rng);
        Self {
            w: Param::new(format!("conv{in_c}x{out_c}k{k}.weight"), w),
            b: Param::new(format!("conv{in_c}x{out_c}k{k}.bias"), vec![0.0; out_c]),
            in_c,
            out_c,
            k,
            stride,
            scratch: Scratch::default(),
            in_shape: None,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h.div_ceil(self.stride), w.div_ceil(self.stride))
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let (b, c, h, w) = unpack4(&x);
        assert_eq!(c, self.in_c, "Conv2d: channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        let (ck2, n) = (c * self.k * self.k, oh * ow);
        // y[bi] = W @ cols(x[bi]) + bias. Training keeps every image's
        // columns for backward; evaluation reuses one image's worth.
        self.scratch
            .key_cols(if train { b } else { 1 }, h, w, ck2 * n);
        let mut y = Tensor::zeros(vec![b, self.out_c, oh, ow]);
        for bi in 0..b {
            let image = &x.as_slice()[bi * c * h * w..(bi + 1) * c * h * w];
            let slot = if train { bi } else { 0 };
            let cols = &mut self.scratch.cols[slot * ck2 * n..(slot + 1) * ck2 * n];
            im2col_into(image, cols, c, h, w, self.k, self.stride);
            let out = &mut y.as_mut_slice()[bi * self.out_c * n..(bi + 1) * self.out_c * n];
            matmul(&self.w.value, cols, out, self.out_c, ck2, n);
            for (oc, &bias) in self.b.value.iter().enumerate() {
                out[oc * n..(oc + 1) * n]
                    .iter_mut()
                    .for_each(|v| *v += bias);
            }
        }
        self.in_shape = train.then_some([b, c, h, w]);
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let [b, c, h, w] = self
            .in_shape
            .take()
            .expect("Conv2d: backward before forward");
        let (oh, ow) = self.out_hw(h, w);
        let (ck2, n) = (c * self.k * self.k, oh * ow);
        assert_eq!(dy.len(), b * self.out_c * n, "Conv2d: backward shape");
        let Scratch {
            cols, dcols, dy_t, ..
        } = &mut self.scratch;
        dy_t.resize(n * self.out_c, 0.0);
        let mut dx = Tensor::zeros(vec![b, c, h, w]);
        for bi in 0..b {
            let dy_b = &dy.as_slice()[bi * self.out_c * n..(bi + 1) * self.out_c * n];
            let cols = &cols[bi * ck2 * n..(bi + 1) * ck2 * n];
            transpose_and_sum_rows(dy_b, dy_t, &mut self.b.grad, self.out_c, n);
            // dW[oc, r] += Σ_col dY[oc, col] · cols[r, col].
            matmul_bt_acc(dy_t, cols, &mut self.w.grad, self.out_c, n, ck2);
            // dcols = Wᵀ @ dY  (ck2 × oh*ow), then fold back to dx.
            dcols.clear();
            dcols.resize(ck2 * n, 0.0);
            matmul_at_acc(&self.w.value, dy_b, dcols, self.out_c, ck2, n);
            let dx_b = &mut dx.as_mut_slice()[bi * c * h * w..(bi + 1) * c * h * w];
            col2im_acc(dcols, dx_b, c, h, w, self.k, self.stride);
        }
        dx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.w);
        f(&self.b);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w);
        f(&mut self.b);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// 2×2 max pooling with stride 2.
#[derive(Debug, Default)]
pub struct MaxPool2 {
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPool2 {
    /// Creates a 2×2 max-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for MaxPool2 {
    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        let (b, c, h, w) = unpack4(&x);
        assert!(h % 2 == 0 && w % 2 == 0, "MaxPool2: odd input size");
        let (oh, ow) = (h / 2, w / 2);
        let mut y = Tensor::zeros(vec![b, c, oh, ow]);
        self.argmax.clear();
        self.argmax.reserve(y.len());
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        for plane in 0..b * c {
            let xp = &xs[plane * h * w..(plane + 1) * h * w];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = (oy * 2 + dy) * w + ox * 2 + dx;
                            if xp[idx] > best {
                                best = xp[idx];
                                best_idx = plane * h * w + idx;
                            }
                        }
                    }
                    ys[(plane * oh + oy) * ow + ox] = best;
                    self.argmax.push(best_idx);
                }
            }
        }
        self.in_shape = vec![b, c, h, w];
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let mut dx = Tensor::zeros(self.in_shape.clone());
        let dxs = dx.as_mut_slice();
        for (&src, &g) in self.argmax.iter().zip(dy.as_slice()) {
            dxs[src] += g;
        }
        dx
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "maxpool2"
    }
}

/// Global average pooling: `[b, c, h, w] -> [b, c]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    in_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// Creates a global average-pool layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: Tensor, _train: bool) -> Tensor {
        let (b, c, h, w) = unpack4(&x);
        let mut y = Tensor::zeros(vec![b, c]);
        let inv = 1.0 / (h * w) as f32;
        for (plane, out) in x.as_slice().chunks(h * w).zip(y.as_mut_slice().iter_mut()) {
            *out = plane.iter().sum::<f32>() * inv;
        }
        self.in_shape = vec![b, c, h, w];
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        let (h, w) = (self.in_shape[2], self.in_shape[3]);
        let mut dx = Tensor::zeros(self.in_shape.clone());
        let inv = 1.0 / (h * w) as f32;
        for (plane, &g) in dx
            .as_mut_slice()
            .chunks_mut(h * w)
            .zip(dy.as_slice().iter())
        {
            plane.iter_mut().for_each(|v| *v = g * inv);
        }
        dx
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "gap"
    }
}

fn unpack4(x: &Tensor) -> (usize, usize, usize, usize) {
    let s = x.shape();
    assert_eq!(s.len(), 4, "expected [b, c, h, w], got {s:?}");
    (s[0], s[1], s[2], s[3])
}

/// The per-channel loop [`transpose_and_sum_rows`] replaced, kept verbatim
/// as its bitwise oracle.
#[cfg(test)]
mod reference {
    pub fn transpose_and_sum_rows(
        dy_b: &[f32],
        dy_t: &mut [f32],
        db: &mut [f32],
        out_c: usize,
        n: usize,
    ) {
        for oc in 0..out_c {
            let dy_row = &dy_b[oc * n..(oc + 1) * n];
            db[oc] += dy_row.iter().sum::<f32>();
            for (col, &g) in dy_row.iter().enumerate() {
                dy_t[col * out_c + oc] = g;
            }
        }
    }
}

/// The direct six-deep convolution loops: the independent reference the
/// lowered [`Conv2d`] is compared against (and finite-differenced through).
#[cfg(test)]
mod direct {
    use super::{unpack4, Conv2d};
    use cloudtrain_tensor::Tensor;

    /// `y = conv(x)`, accumulating each output from its bias upwards.
    pub fn forward(conv: &Conv2d, x: &Tensor) -> Tensor {
        let (b, c, h, w) = unpack4(x);
        let (oh, ow) = conv.out_hw(h, w);
        let (k, pad) = (conv.k, conv.k / 2);
        let mut y = Tensor::zeros(vec![b, conv.out_c, oh, ow]);
        let xs = x.as_slice();
        let ys = y.as_mut_slice();
        for bi in 0..b {
            for oc in 0..conv.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = conv.b.value[oc];
                        for ic in 0..c {
                            let x_plane = &xs[(bi * c + ic) * h * w..];
                            let w_plane = &conv.w.value[(oc * c + ic) * k * k..];
                            for ky in 0..k {
                                let iy = oy * conv.stride + ky;
                                if iy < pad || iy - pad >= h {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = ox * conv.stride + kx;
                                    if ix < pad || ix - pad >= w {
                                        continue;
                                    }
                                    acc +=
                                        x_plane[(iy - pad) * w + ix - pad] * w_plane[ky * k + kx];
                                }
                            }
                        }
                        ys[((bi * conv.out_c + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        y
    }

    /// Accumulates `dW` and `db` into `conv`'s gradients and returns `dx`.
    pub fn backward(conv: &mut Conv2d, x: &Tensor, dy: &Tensor) -> Tensor {
        let (b, c, h, w) = unpack4(x);
        let (oh, ow) = conv.out_hw(h, w);
        let (k, pad) = (conv.k, conv.k / 2);
        let mut dx = Tensor::zeros(vec![b, c, h, w]);
        let xs = x.as_slice();
        let dys = dy.as_slice();
        let dxs = dx.as_mut_slice();
        for bi in 0..b {
            for oc in 0..conv.out_c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = dys[((bi * conv.out_c + oc) * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        conv.b.grad[oc] += g;
                        for ic in 0..c {
                            let plane = (bi * c + ic) * h * w;
                            let w_base = (oc * c + ic) * k * k;
                            for ky in 0..k {
                                let iy = oy * conv.stride + ky;
                                if iy < pad || iy - pad >= h {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = ox * conv.stride + kx;
                                    if ix < pad || ix - pad >= w {
                                        continue;
                                    }
                                    let at = plane + (iy - pad) * w + ix - pad;
                                    conv.w.grad[w_base + ky * k + kx] += g * xs[at];
                                    dxs[at] += g * conv.w.value[w_base + ky * k + kx];
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, bits_any_nan, poison, tricky};
    use cloudtrain_tensor::init::rng_from_seed;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The laned backward prologue against the per-channel loop: the
        /// transposed gradient and a bias gradient that starts non-zero,
        /// bit for bit, whole lane blocks and `out_c mod 8` tails alike.
        #[test]
        fn backward_prologue_matches_reference_bitwise(
            out_c in 0usize..7,
            n in 0usize..5,
            poisoned in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let (out_c, n) = ([1, 3, 7, 8, 9, 16, 33][out_c], [0, 1, 4, 64, 256][n]);
            let mut dy_b = tricky(out_c * n, seed);
            poison(&mut dy_b, seed, poisoned);
            let db = tricky(out_c, seed + 1);
            let (mut db_laned, mut db_ref) = (db.clone(), db);
            let (mut dy_t, mut dy_t_ref) = (vec![f32::NAN; n * out_c], vec![f32::NAN; n * out_c]);
            transpose_and_sum_rows(&dy_b, &mut dy_t, &mut db_laned, out_c, n);
            reference::transpose_and_sum_rows(&dy_b, &mut dy_t_ref, &mut db_ref, out_c, n);
            prop_assert_eq!(bits_any_nan(&dy_t), bits_any_nan(&dy_t_ref));
            prop_assert_eq!(bits_any_nan(&db_laned), bits_any_nan(&db_ref));
        }
    }

    fn random_input(shape: [usize; 4], rng: &mut StdRng) -> Tensor {
        let mut x = init::uniform_tensor(shape.iter().product(), -1.0, 1.0, rng);
        x.reshape(shape.to_vec()).unwrap();
        x
    }

    /// A fresh layer (empty scratch) with `conv`'s parameters.
    fn fresh_twin(conv: &Conv2d) -> Conv2d {
        let mut twin = Conv2d::new(
            conv.in_c,
            conv.out_c,
            conv.k,
            conv.stride,
            &mut rng_from_seed(0),
        );
        twin.w.value.copy_from_slice(&conv.w.value);
        twin.b.value.copy_from_slice(&conv.b.value);
        twin
    }

    #[test]
    fn conv_identity_kernel_preserves_input() {
        let mut rng = rng_from_seed(0);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        conv.w.value.iter_mut().for_each(|v| *v = 0.0);
        conv.w.value[4] = 1.0; // center tap
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), vec![1, 1, 4, 4]).unwrap();
        let y = conv.forward(x.clone(), true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_stride2_halves_resolution() {
        let mut rng = rng_from_seed(1);
        let mut conv = Conv2d::new(2, 3, 3, 2, &mut rng);
        let x = Tensor::zeros(vec![2, 2, 8, 8]);
        let y = conv.forward(x, true);
        assert_eq!(y.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn conv_gradcheck() {
        let mut rng = rng_from_seed(2);
        let mut conv = Conv2d::new(2, 2, 3, 1, &mut rng);
        let x = random_input([2, 2, 4, 4], &mut rng_from_seed(3));
        let y = conv.forward(x.clone(), true);
        let dy = y.clone(); // L = sum(y^2)/2
        let dx = conv.backward(dy);

        // Finite differences through the direct loops: the analytic
        // gradient of the lowered path against an independent forward.
        let eps = 1e-2;
        let loss = |c: &Conv2d, x: &Tensor| -> f32 {
            let y = direct::forward(c, x);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for idx in [0usize, 7, 17, 35] {
            let analytic = conv.w.grad[idx];
            conv.w.value[idx] += eps;
            let lp = loss(&conv, &x);
            conv.w.value[idx] -= 2.0 * eps;
            let lm = loss(&conv, &x);
            conv.w.value[idx] += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 0.05 * analytic.abs().max(1.0),
                "w[{idx}]: {analytic} vs {numeric}"
            );
        }
        // One input coordinate.
        let mut xp = x.clone();
        xp.as_mut_slice()[10] += eps;
        let lp = loss(&conv, &xp);
        xp.as_mut_slice()[10] -= 2.0 * eps;
        let lm = loss(&conv, &xp);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (dx.as_slice()[10] - numeric).abs() < 0.05 * numeric.abs().max(1.0),
            "dx[10]: {} vs {numeric}",
            dx.as_slice()[10]
        );
    }

    #[test]
    fn im2col_path_matches_direct_forward_and_backward() {
        let mut rng = rng_from_seed(11);
        for (k, stride) in [(3usize, 1usize), (3, 2), (1, 2)] {
            let mut lowered = Conv2d::new(3, 4, k, stride, &mut rng);
            let mut reference = fresh_twin(&lowered);

            let x = random_input([2, 3, 6, 6], &mut rng);
            let y1 = direct::forward(&reference, &x);
            let y2 = lowered.forward(x.clone(), true);
            assert_eq!(y1.shape(), y2.shape());
            for (a, b) in y1.as_slice().iter().zip(y2.as_slice()) {
                assert!((a - b).abs() < 1e-4, "forward diverged: {a} vs {b}");
            }

            let dy = y1.clone();
            let dx1 = direct::backward(&mut reference, &x, &dy);
            let dx2 = lowered.backward(dy);
            for (a, b) in dx1.as_slice().iter().zip(dx2.as_slice()) {
                assert!((a - b).abs() < 1e-3, "dx diverged: {a} vs {b}");
            }
            for (a, b) in reference.w.grad.iter().zip(&lowered.w.grad) {
                assert!((a - b).abs() < 1e-3, "dW diverged: {a} vs {b}");
            }
            for (a, b) in reference.b.grad.iter().zip(&lowered.b.grad) {
                assert!((a - b).abs() < 1e-3, "db diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn im2col_col2im_are_adjoint() {
        // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity.
        let mut rng = rng_from_seed(12);
        for (c, h, w, k, stride) in [(2usize, 5usize, 4usize, 3usize, 1usize), (2, 7, 5, 3, 2)] {
            let (oh, ow) = (h.div_ceil(stride), w.div_ceil(stride));
            let x = init::uniform_tensor(c * h * w, -1.0, 1.0, &mut rng).into_vec();
            let mut cols = vec![0.0; c * k * k * oh * ow];
            im2col_into(&x, &mut cols, c, h, w, k, stride);
            let y = init::uniform_tensor(cols.len(), -1.0, 1.0, &mut rng).into_vec();
            let lhs: f32 = cols.iter().zip(&y).map(|(a, b)| a * b).sum();
            let mut folded = vec![0.0; c * h * w];
            col2im_acc(&y, &mut folded, c, h, w, k, stride);
            let rhs: f32 = x.iter().zip(&folded).map(|(a, b)| a * b).sum();
            assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
        }
    }

    /// One layer driven through changing batch sizes, modes and geometries
    /// must equal a fresh layer bit for bit at every step: no stale padding
    /// zeros, no stale geometry, nothing left over from evaluation.
    #[test]
    fn reused_scratch_matches_a_fresh_layer_at_every_step() {
        for stride in [1usize, 2] {
            let mut rng = rng_from_seed(20 + stride as u64);
            let mut conv = Conv2d::new(3, 8, 3, stride, &mut rng);
            // (train, batch, h, w): train → eval at a larger batch → train
            // again → another geometry → odd sizes (ragged stride-2 edge).
            let steps = [
                (true, 8usize, 8usize, 8usize),
                (false, 64, 8, 8),
                (true, 8, 8, 8),
                (true, 8, 6, 10),
                (true, 8, 7, 5),
                (false, 3, 7, 5),
                (true, 2, 7, 5),
            ];
            for (train, b, h, w) in steps {
                let x = random_input([b, 3, h, w], &mut rng);
                let mut fresh = fresh_twin(&conv);
                let y = conv.forward(x.clone(), train);
                let y_fresh = fresh.forward(x, train);
                assert_eq!(bits(y.as_slice()), bits(y_fresh.as_slice()));
                let per_image = 27 * h.div_ceil(stride) * w.div_ceil(stride);
                if !train {
                    // Evaluation retains one image of columns, whatever b.
                    assert_eq!(conv.scratch.cols.len(), per_image);
                    continue;
                }
                assert_eq!(conv.scratch.cols.len(), b * per_image);
                let dy = random_input([b, 8, h.div_ceil(stride), w.div_ceil(stride)], &mut rng);
                let dx = conv.backward(dy.clone());
                let dx_fresh = fresh.backward(dy);
                assert_eq!(bits(dx.as_slice()), bits(dx_fresh.as_slice()));
                assert_eq!(bits(&conv.w.grad), bits(&fresh.w.grad));
                assert_eq!(bits(&conv.b.grad), bits(&fresh.b.grad));
                conv.w.zero_grad();
                conv.b.zero_grad();
            }
        }
    }

    #[test]
    fn steady_state_allocates_no_scratch() {
        let mut rng = rng_from_seed(30);
        let mut conv = Conv2d::new(3, 8, 3, 1, &mut rng);
        let mut step = |conv: &mut Conv2d, train: bool, b: usize| {
            let y = conv.forward(random_input([b, 3, 8, 8], &mut rng), train);
            if train {
                conv.backward(y);
            }
            let s = &conv.scratch;
            [&s.cols, &s.dcols, &s.dy_t].map(|v| (v.as_ptr(), v.capacity()))
        };
        let first = step(&mut conv, true, 8);
        assert_eq!(step(&mut conv, true, 8), first);
        // A 64-sample validation forward neither grows nor moves anything:
        // the retained column storage stays one training batch.
        assert_eq!(step(&mut conv, false, 64), first);
        assert_eq!(step(&mut conv, true, 8), first);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_an_evaluation_forward_panics() {
        let mut rng = rng_from_seed(31);
        let mut conv = Conv2d::new(1, 1, 3, 1, &mut rng);
        let _ = conv.forward(Tensor::zeros(vec![1, 1, 4, 4]), true);
        let y = conv.forward(Tensor::zeros(vec![1, 1, 4, 4]), false);
        conv.backward(y);
    }

    #[test]
    fn maxpool_selects_max_and_routes_gradient() {
        let mut p = MaxPool2::new();
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                0.0, 0.0, 1.0, 0.0, //
                0.0, -1.0, 0.0, 0.5,
            ],
            vec![1, 1, 4, 4],
        )
        .unwrap();
        let y = p.forward(x, true);
        assert_eq!(y.as_slice(), &[4.0, 8.0, 0.0, 1.0]);
        let dx = p.backward(Tensor::from_vec_1d(vec![1.0, 2.0, 3.0, 4.0]));
        // Gradient lands only on the argmax positions.
        assert_eq!(dx.as_slice()[5], 1.0); // 4.0 at (1,1)
        assert_eq!(dx.as_slice()[7], 2.0); // 8.0 at (1,3)
        assert_eq!(dx.as_slice()[10], 4.0); // 1.0 at (2,2)
        assert_eq!(dx.as_slice().iter().filter(|v| **v != 0.0).count(), 4);
    }

    #[test]
    fn global_avg_pool_roundtrip() {
        let mut g = GlobalAvgPool::new();
        let x = Tensor::from_vec(
            vec![1.0, 3.0, 5.0, 7.0, 2.0, 2.0, 2.0, 2.0],
            vec![1, 2, 2, 2],
        )
        .unwrap();
        let y = g.forward(x, true);
        assert_eq!(y.as_slice(), &[4.0, 2.0]);
        let dx = g.backward(Tensor::from_vec_1d(vec![4.0, 8.0]));
        assert_eq!(dx.as_slice(), &[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]);
    }
}
