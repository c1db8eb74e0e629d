//! Normalisation layers: per-channel batch norm (for the CNNs) and
//! per-position layer norm (for the Transformer).
//!
//! Every sum here is a serial chain whose value depends on its start and
//! the order of its addends, and none is split or re-associated (DESIGN.md
//! §6.4): the layers run eight chains side by side instead — eight
//! channels' statistics in [`BatchNorm2d`], eight rows' in [`LayerNorm`] —
//! with the `c mod 8` (`rows mod 8`) tail on the same code one lane wide.
//! The indexed loops this replaced are the `#[cfg(test)] reference`.

use cloudtrain_tensor::Tensor;

use crate::layer::{Layer, Param};
use crate::math::{load, row_sums, rows, NR};

const EPS: f32 = 1e-5;

/// Batch normalisation over `[b, c, h, w]`, normalising each channel
/// across the batch and spatial positions. Keeps running statistics for
/// evaluation mode.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    channels: usize,
    // Per-call statistics and the backward cache: buffers reused across
    // calls; `xhat` is written by training forwards only.
    means: Vec<f32>,
    inv_std: Vec<f32>,
    xhat: Vec<f32>,
    /// `[b, c, h, w]` of the last training forward, until backward
    /// consumes it.
    in_shape: Option<[usize; 4]>,
}

/// For each channel `ch + l` of a `[b, c, plane]` tensor: `0.0` plus, image
/// by image, that image's plane sum of `term(l, v)` — one chain per channel,
/// in the order `sum += plane.iter().map(term).sum::<f32>()` adds.
#[inline(always)]
fn batch_sums<const L: usize>(
    x: &[f32],
    [b, c, plane]: [usize; 3],
    ch: usize,
    term: impl Fn(usize, f32) -> f32,
) -> [f32; L] {
    let mut total = [0.0; L];
    for bi in 0..b {
        let sums = row_sums(rows::<L>(x, bi * c + ch, plane), &term);
        for (t, s) in total.iter_mut().zip(sums) {
            *t += s;
        }
    }
    total
}

impl BatchNorm2d {
    /// Creates a batch-norm layer over `channels` channels.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Param::new(format!("bn{channels}.gamma"), vec![1.0; channels]),
            beta: Param::new(format!("bn{channels}.beta"), vec![0.0; channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            channels,
            means: Vec::new(),
            inv_std: Vec::new(),
            xhat: Vec::new(),
            in_shape: None,
        }
    }

    /// Batch statistics of channels `ch..ch + L`, folded into the running
    /// ones.
    fn batch_stats<const L: usize>(&mut self, x: &[f32], dims: [usize; 3], ch: usize) {
        let count = (dims[0] * dims[2]) as f32;
        let mean = batch_sums::<L>(x, dims, ch, |_, v| v).map(|sum| sum / count);
        let var = batch_sums::<L>(x, dims, ch, |l, v| {
            let centred = v - mean[l];
            centred * centred
        })
        .map(|sum| sum / count);
        for (l, (mean, var)) in mean.into_iter().zip(var).enumerate() {
            let ch = ch + l;
            self.means[ch] = mean;
            self.inv_std[ch] = 1.0 / (var + EPS).sqrt();
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean;
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
        }
    }

    /// Backward of channels `ch..ch + L`: their four sums — `Σ dx̂` and
    /// `Σ dx̂·x̂` from `0.0`, the `gamma`/`beta` gradients from their current
    /// values, each adding element by element in `(image, position)` order
    /// — and then `dx`, written over `dy`.
    fn backward_block<const L: usize>(&mut self, dy: &mut [f32], dims: [usize; 3], ch: usize) {
        let [b, c, plane] = dims;
        let count = (b * plane) as f32;
        let gamma: [f32; L] = load(&self.gamma.value[ch..]);
        let mut dgamma: [f32; L] = load(&self.gamma.grad[ch..]);
        let mut dbeta: [f32; L] = load(&self.beta.grad[ch..]);
        let (mut sum_dxh, mut sum_dxh_xh) = ([0.0f32; L], [0.0f32; L]);
        for bi in 0..b {
            let dy_rows = rows::<L>(dy, bi * c + ch, plane);
            let xh_rows = rows::<L>(&self.xhat, bi * c + ch, plane);
            for i in 0..plane {
                let lanes = dy_rows.map(|row| row[i]).into_iter();
                for (l, (g, xh)) in lanes.zip(xh_rows.map(|row| row[i])).enumerate() {
                    let dxh = g * gamma[l];
                    sum_dxh[l] += dxh;
                    sum_dxh_xh[l] += dxh * xh;
                    dgamma[l] += g * xh;
                    dbeta[l] += g;
                }
            }
        }
        self.gamma.grad[ch..ch + L].copy_from_slice(&dgamma);
        self.beta.grad[ch..ch + L].copy_from_slice(&dbeta);
        for bi in 0..b {
            for l in 0..L {
                let at = (bi * c + ch + l) * plane;
                let k = self.inv_std[ch + l] / count;
                let (g_l, sum, sum_xh) = (gamma[l], sum_dxh[l], sum_dxh_xh[l]);
                for (g, &xh) in dy[at..at + plane]
                    .iter_mut()
                    .zip(&self.xhat[at..at + plane])
                {
                    *g = k * (count * (*g * g_l) - sum - xh * sum_xh);
                }
            }
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let &[b, c, h, w] = x.shape() else {
            panic!("BatchNorm2d: expected [b,c,h,w]");
        };
        assert_eq!(c, self.channels, "BatchNorm2d: channel mismatch");
        let plane = h * w;
        let tiled = c - c % NR;

        self.inv_std.clear();
        self.inv_std.resize(c, 0.0);
        self.means.clear();
        self.means.resize(c, 0.0);
        if train {
            for ch in (0..tiled).step_by(NR) {
                self.batch_stats::<NR>(x.as_slice(), [b, c, plane], ch);
            }
            for ch in tiled..c {
                self.batch_stats::<1>(x.as_slice(), [b, c, plane], ch);
            }
        } else {
            self.means.copy_from_slice(&self.running_mean);
            for (inv_std, var) in self.inv_std.iter_mut().zip(&self.running_var) {
                *inv_std = 1.0 / (var + EPS).sqrt();
            }
        }

        // Evaluation has no backward, so it keeps no `xhat`.
        self.xhat.resize(if train { x.len() } else { 0 }, 0.0);
        for (row, values) in x.as_mut_slice().chunks_mut(plane.max(1)).enumerate() {
            let ch = row % c;
            let (mean, inv_std) = (self.means[ch], self.inv_std[ch]);
            let (g, bta) = (self.gamma.value[ch], self.beta.value[ch]);
            if train {
                let xhat = &mut self.xhat[row * plane..][..plane];
                for (v, xh) in values.iter_mut().zip(xhat) {
                    *xh = (*v - mean) * inv_std;
                    *v = g * *xh + bta;
                }
            } else {
                for v in values {
                    *v = g * ((*v - mean) * inv_std) + bta;
                }
            }
        }
        self.in_shape = train.then_some([b, c, h, w]);
        x
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        let [b, c, h, w] = self
            .in_shape
            .take()
            .expect("BatchNorm2d: backward before forward");
        let plane = h * w;
        assert_eq!(dy.len(), b * c * plane, "BatchNorm2d: backward shape");
        let tiled = c - c % NR;
        for ch in (0..tiled).step_by(NR) {
            self.backward_block::<NR>(dy.as_mut_slice(), [b, c, plane], ch);
        }
        for ch in tiled..c {
            self.backward_block::<1>(dy.as_mut_slice(), [b, c, plane], ch);
        }
        if dy.shape() != [b, c, h, w] {
            dy.reshape(vec![b, c, h, w]).expect("length checked above");
        }
        dy
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "batchnorm2d"
    }
}

/// Layer normalisation over the last dimension of `[rows, dim]`.
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Param,
    beta: Param,
    dim: usize,
    // The backward cache: buffers reused across calls, written by training
    // forwards only.
    xhat: Vec<f32>,
    inv_std: Vec<f32>,
    /// Row count of the last training forward, until backward consumes it.
    rows: Option<usize>,
}

impl LayerNorm {
    /// Creates a layer-norm over feature dimension `dim`.
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Param::new(format!("ln{dim}.gamma"), vec![1.0; dim]),
            beta: Param::new(format!("ln{dim}.beta"), vec![0.0; dim]),
            dim,
            xhat: Vec::new(),
            inv_std: Vec::new(),
            rows: None,
        }
    }

    /// Normalises rows `r..r + L` of `x` in place: each row's mean and
    /// variance are `Iterator::sum` chains over the row.
    fn forward_rows<const L: usize>(&mut self, x: &mut [f32], r: usize, train: bool) {
        let d = self.dim;
        let block = rows::<L>(x, r, d);
        let mean = row_sums(block, |_, v| v).map(|sum| sum / d as f32);
        let var = row_sums(block, |l, v| {
            let centred = v - mean[l];
            centred * centred
        })
        .map(|sum| sum / d as f32);
        let scale = self.gamma.value.iter().zip(&self.beta.value);
        for (l, (mean, var)) in mean.into_iter().zip(var).enumerate() {
            let inv_std = 1.0 / (var + EPS).sqrt();
            let row = &mut x[(r + l) * d..][..d];
            if train {
                self.inv_std[r + l] = inv_std;
                let xhat = &mut self.xhat[(r + l) * d..][..d];
                for ((v, xh), (g, b)) in row.iter_mut().zip(xhat).zip(scale.clone()) {
                    *xh = (*v - mean) * inv_std;
                    *v = g * *xh + b;
                }
            } else {
                for (v, (g, b)) in row.iter_mut().zip(scale.clone()) {
                    *v = g * ((*v - mean) * inv_std) + b;
                }
            }
        }
    }

    /// Backward of rows `r..r + L`: each row's `Σ dx̂` and `Σ dx̂·x̂` from
    /// `0.0` in ascending feature order, the `gamma`/`beta` gradient chains
    /// (one per feature, running down the rows) extended row by row, then
    /// `dx` written over `dy`.
    fn backward_rows<const L: usize>(&mut self, dy: &mut [f32], r: usize) {
        let d = self.dim;
        let gamma = &self.gamma.value[..d];
        let (mut sum_dxh, mut sum_dxh_xh) = ([0.0f32; L], [0.0f32; L]);
        let dy_rows = rows::<L>(dy, r, d);
        let xh_rows = rows::<L>(&self.xhat, r, d);
        for (i, &g_i) in gamma.iter().enumerate() {
            let lanes = dy_rows.map(|row| row[i]).into_iter();
            for (l, (g, xh)) in lanes.zip(xh_rows.map(|row| row[i])).enumerate() {
                let dxh = g * g_i;
                sum_dxh[l] += dxh;
                sum_dxh_xh[l] += dxh * xh;
            }
        }
        for (dy_row, xh_row) in dy_rows.into_iter().zip(xh_rows) {
            let grads = self.gamma.grad.iter_mut().zip(&mut self.beta.grad);
            for ((dgamma, dbeta), (g, xh)) in grads.zip(dy_row.iter().zip(xh_row)) {
                *dgamma += g * xh;
                *dbeta += g;
            }
        }
        for (l, (sum, sum_xh)) in sum_dxh.into_iter().zip(sum_dxh_xh).enumerate() {
            let k = self.inv_std[r + l] / d as f32;
            let dy_row = dy[(r + l) * d..][..d].iter_mut();
            let xh_row = &self.xhat[(r + l) * d..][..d];
            for ((g, &xh), &g_i) in dy_row.zip(xh_row).zip(gamma) {
                *g = k * (d as f32 * (*g * g_i) - sum - xh * sum_xh);
            }
        }
    }
}

impl Layer for LayerNorm {
    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let d = self.dim;
        assert_eq!(x.len() % d, 0, "LayerNorm: ragged input");
        let n = x.len() / d;
        // Evaluation has no backward, so it keeps no `xhat`.
        self.xhat.resize(if train { x.len() } else { 0 }, 0.0);
        self.inv_std.resize(if train { n } else { 0 }, 0.0);
        let tiled = n - n % NR;
        for r in (0..tiled).step_by(NR) {
            self.forward_rows::<NR>(x.as_mut_slice(), r, train);
        }
        for r in tiled..n {
            self.forward_rows::<1>(x.as_mut_slice(), r, train);
        }
        self.rows = train.then_some(n);
        x
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        let n = self
            .rows
            .take()
            .expect("LayerNorm: backward before forward");
        assert_eq!(dy.len(), n * self.dim, "LayerNorm: backward shape");
        let tiled = n - n % NR;
        for r in (0..tiled).step_by(NR) {
            self.backward_rows::<NR>(dy.as_mut_slice(), r);
        }
        for r in tiled..n {
            self.backward_rows::<1>(dy.as_mut_slice(), r);
        }
        dy
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.gamma);
        f(&self.beta);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn name(&self) -> &'static str {
        "layernorm"
    }
}

/// The indexed loops the laned passes replaced, kept verbatim (`self`
/// spelled out, fresh buffers instead of reused ones) as the bitwise oracle.
#[cfg(test)]
mod reference {
    use super::{BatchNorm2d, LayerNorm, EPS};
    use cloudtrain_tensor::Tensor;

    pub fn batchnorm_forward(bn: &mut BatchNorm2d, mut x: Tensor, train: bool) -> Tensor {
        let &[b, c, h, w] = x.shape() else {
            panic!("BatchNorm2d: expected [b,c,h,w]");
        };
        let plane = h * w;
        let count = (b * plane) as f32;

        bn.inv_std = vec![0.0; c];
        bn.means = vec![0.0; c];
        let means = &mut bn.means;
        if train {
            for (ch, mean) in means.iter_mut().enumerate() {
                let mut sum = 0.0;
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    sum += x.as_slice()[base..base + plane].iter().sum::<f32>();
                }
                *mean = sum / count;
            }
            for (ch, &mean) in means.iter().enumerate() {
                let mut var = 0.0;
                for bi in 0..b {
                    let base = (bi * c + ch) * plane;
                    var += x.as_slice()[base..base + plane]
                        .iter()
                        .map(|v| (v - mean).powi(2))
                        .sum::<f32>();
                }
                let var = var / count;
                bn.inv_std[ch] = 1.0 / (var + EPS).sqrt();
                bn.running_mean[ch] =
                    (1.0 - bn.momentum) * bn.running_mean[ch] + bn.momentum * mean;
                bn.running_var[ch] = (1.0 - bn.momentum) * bn.running_var[ch] + bn.momentum * var;
            }
        } else {
            for (ch, mean) in means.iter_mut().enumerate() {
                *mean = bn.running_mean[ch];
                bn.inv_std[ch] = 1.0 / (bn.running_var[ch] + EPS).sqrt();
            }
        }

        bn.xhat = vec![0.0; if train { x.len() } else { 0 }];
        for bi in 0..b {
            for (ch, &mean) in means.iter().enumerate() {
                let base = (bi * c + ch) * plane;
                let (g, bta) = (bn.gamma.value[ch], bn.beta.value[ch]);
                for i in base..base + plane {
                    let xh = (x.as_slice()[i] - mean) * bn.inv_std[ch];
                    if train {
                        bn.xhat[i] = xh;
                    }
                    x.as_mut_slice()[i] = g * xh + bta;
                }
            }
        }
        bn.in_shape = train.then_some([b, c, h, w]);
        x
    }

    pub fn batchnorm_backward(bn: &mut BatchNorm2d, dy: Tensor) -> Tensor {
        let [b, c, h, w] = bn
            .in_shape
            .take()
            .expect("BatchNorm2d: backward before forward");
        let plane = h * w;
        let count = (b * plane) as f32;
        let mut dx = Tensor::zeros(vec![b, c, h, w]);

        for ch in 0..c {
            let mut sum_dxh = 0.0f32;
            let mut sum_dxh_xh = 0.0f32;
            let g = bn.gamma.value[ch];
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                for i in base..base + plane {
                    let dxh = dy.as_slice()[i] * g;
                    sum_dxh += dxh;
                    sum_dxh_xh += dxh * bn.xhat[i];
                    bn.gamma.grad[ch] += dy.as_slice()[i] * bn.xhat[i];
                    bn.beta.grad[ch] += dy.as_slice()[i];
                }
            }
            let inv_std = bn.inv_std[ch];
            for bi in 0..b {
                let base = (bi * c + ch) * plane;
                for i in base..base + plane {
                    let dxh = dy.as_slice()[i] * g;
                    dx.as_mut_slice()[i] =
                        inv_std / count * (count * dxh - sum_dxh - bn.xhat[i] * sum_dxh_xh);
                }
            }
        }
        dx
    }

    pub fn layernorm_forward(ln: &mut LayerNorm, mut x: Tensor) -> Tensor {
        let d = ln.dim;
        let rows = x.len() / d;
        ln.xhat = vec![0.0; x.len()];
        ln.inv_std = vec![0.0; rows];
        for (r, row) in x.as_mut_slice().chunks_mut(d).enumerate() {
            let mean = row.iter().sum::<f32>() / d as f32;
            let var = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / d as f32;
            let inv_std = 1.0 / (var + EPS).sqrt();
            ln.inv_std[r] = inv_std;
            for (i, v) in row.iter_mut().enumerate() {
                let xh = (*v - mean) * inv_std;
                ln.xhat[r * d + i] = xh;
                *v = ln.gamma.value[i] * xh + ln.beta.value[i];
            }
        }
        x
    }

    pub fn layernorm_backward(ln: &mut LayerNorm, dy: Tensor) -> Tensor {
        let d = ln.dim;
        let rows = dy.len() / d;
        let mut dx = Tensor::zeros(dy.shape().to_vec());
        for r in 0..rows {
            let dy_row = &dy.as_slice()[r * d..(r + 1) * d];
            let xh_row = &ln.xhat[r * d..(r + 1) * d];
            let mut sum_dxh = 0.0;
            let mut sum_dxh_xh = 0.0;
            for i in 0..d {
                let dxh = dy_row[i] * ln.gamma.value[i];
                sum_dxh += dxh;
                sum_dxh_xh += dxh * xh_row[i];
                ln.gamma.grad[i] += dy_row[i] * xh_row[i];
                ln.beta.grad[i] += dy_row[i];
            }
            let inv_std = ln.inv_std[r];
            let dx_row = &mut dx.as_mut_slice()[r * d..(r + 1) * d];
            for i in 0..d {
                let dxh = dy_row[i] * ln.gamma.value[i];
                dx_row[i] =
                    inv_std / d as f32 * (d as f32 * dxh - sum_dxh - xh_row[i] * sum_dxh_xh);
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits_any_nan as bits, poison, tricky};
    use cloudtrain_tensor::init;
    use proptest::prelude::*;

    /// `tricky` data with `poisoned` NaN/±inf entries, as a tensor.
    fn tensor(shape: Vec<usize>, seed: u64, poisoned: usize) -> Tensor {
        let mut data = tricky(shape.iter().product(), seed);
        poison(&mut data, seed, poisoned);
        Tensor::from_vec(data, shape).unwrap()
    }

    /// A batch-norm layer with arbitrary parameters, running statistics and
    /// — as after a backward nobody zeroed — non-zero gradients.
    fn arbitrary_batchnorm(c: usize, seed: u64) -> BatchNorm2d {
        let mut bn = BatchNorm2d::new(c);
        bn.gamma.value = tricky(c, seed);
        bn.beta.value = tricky(c, seed + 1);
        bn.gamma.grad = tricky(c, seed + 2);
        bn.beta.grad = tricky(c, seed + 3);
        bn.running_mean = tricky(c, seed + 4);
        bn.running_var = tricky(c, seed + 5).iter().map(|v| v.abs()).collect();
        bn
    }

    /// A fresh layer (empty buffers) with `bn`'s parameters, gradients and
    /// running statistics.
    fn batchnorm_twin(bn: &BatchNorm2d) -> BatchNorm2d {
        let mut twin = BatchNorm2d::new(bn.channels);
        twin.gamma = bn.gamma.clone();
        twin.beta = bn.beta.clone();
        twin.running_mean = bn.running_mean.clone();
        twin.running_var = bn.running_var.clone();
        twin
    }

    fn batchnorm_state(bn: &BatchNorm2d) -> Vec<Vec<u32>> {
        [
            &bn.means,
            &bn.inv_std,
            &bn.xhat,
            &bn.running_mean,
            &bn.running_var,
            &bn.gamma.grad,
            &bn.beta.grad,
        ]
        .map(|v| bits(v))
        .to_vec()
    }

    fn arbitrary_layernorm(d: usize, seed: u64) -> LayerNorm {
        let mut ln = LayerNorm::new(d);
        ln.gamma.value = tricky(d, seed);
        ln.beta.value = tricky(d, seed + 1);
        ln.gamma.grad = tricky(d, seed + 2);
        ln.beta.grad = tricky(d, seed + 3);
        ln
    }

    fn layernorm_twin(ln: &LayerNorm) -> LayerNorm {
        let mut twin = LayerNorm::new(ln.dim);
        twin.gamma = ln.gamma.clone();
        twin.beta = ln.beta.clone();
        twin
    }

    fn layernorm_state(ln: &LayerNorm) -> Vec<Vec<u32>> {
        [&ln.xhat, &ln.inv_std, &ln.gamma.grad, &ln.beta.grad]
            .map(|v| bits(v))
            .to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Two training steps without `zero_grads` in between (so the
        /// second backward extends non-zero gradient chains) and an
        /// evaluation forward, against the indexed loops: outputs, input
        /// gradients and every piece of layer state, bit for bit, whole
        /// lane blocks and `c mod 8` tails alike.
        #[test]
        fn batchnorm_matches_reference_bitwise(
            c in 0usize..7,
            hw in 0usize..4,
            b in 0usize..2,
            poisoned in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let (c, hw, b) = ([1, 3, 7, 8, 9, 16, 33][c], [1, 2, 8, 16][hw], [1, 8][b]);
            let shape = vec![b, c, hw, hw];
            let mut laned = arbitrary_batchnorm(c, seed);
            let mut indexed = batchnorm_twin(&laned);
            for step in 0..2 {
                let x = tensor(shape.clone(), seed + 10 + step, poisoned);
                let y = laned.forward(x.clone(), true);
                let y_ref = reference::batchnorm_forward(&mut indexed, x, true);
                prop_assert_eq!(bits(y.as_slice()), bits(y_ref.as_slice()));
                prop_assert_eq!(batchnorm_state(&laned), batchnorm_state(&indexed));
                let dy = tensor(shape.clone(), seed + 20 + step, poisoned);
                let dx = laned.backward(dy.clone());
                let dx_ref = reference::batchnorm_backward(&mut indexed, dy);
                prop_assert_eq!(dx.shape(), dx_ref.shape());
                prop_assert_eq!(bits(dx.as_slice()), bits(dx_ref.as_slice()));
                prop_assert_eq!(batchnorm_state(&laned), batchnorm_state(&indexed));
            }
            let x = tensor(shape, seed + 30, poisoned);
            let y = laned.forward(x.clone(), false);
            let y_ref = reference::batchnorm_forward(&mut indexed, x, false);
            prop_assert_eq!(bits(y.as_slice()), bits(y_ref.as_slice()));
        }

        #[test]
        fn layernorm_matches_reference_bitwise(
            n in 0usize..5,
            d in 0usize..4,
            poisoned in 0usize..4,
            seed in 0u64..1_000_000,
        ) {
            let (n, d) = ([1, 7, 8, 9, 128][n], [1, 5, 16, 33][d]);
            let mut laned = arbitrary_layernorm(d, seed);
            let mut indexed = layernorm_twin(&laned);
            for step in 0..2 {
                let x = tensor(vec![n, d], seed + 10 + step, poisoned);
                let y = laned.forward(x.clone(), true);
                let y_ref = reference::layernorm_forward(&mut indexed, x.clone());
                prop_assert_eq!(bits(y.as_slice()), bits(y_ref.as_slice()));
                // The evaluation forward computes the same output.
                let y_eval = layernorm_twin(&laned).forward(x, false);
                prop_assert_eq!(bits(y_eval.as_slice()), bits(y_ref.as_slice()));
                let dy = tensor(vec![n, d], seed + 20 + step, poisoned);
                let dx = laned.backward(dy.clone());
                let dx_ref = reference::layernorm_backward(&mut indexed, dy);
                prop_assert_eq!(dx.shape(), dx_ref.shape());
                prop_assert_eq!(bits(dx.as_slice()), bits(dx_ref.as_slice()));
                prop_assert_eq!(layernorm_state(&laned), layernorm_state(&indexed));
            }
        }
    }

    /// A layer driven train b = 8 → eval b = 64 → train equals a fresh layer
    /// with the same parameters at every step: the reused buffers carry
    /// nothing over.
    #[test]
    fn reused_buffers_match_a_fresh_layer_at_every_step() {
        let mut bn = arbitrary_batchnorm(16, 40);
        let mut ln = arbitrary_layernorm(16, 41);
        for (step, (train, b)) in [(true, 8usize), (false, 64), (true, 8), (true, 3)]
            .into_iter()
            .enumerate()
        {
            let seed = 50 + step as u64;
            let (mut bn_fresh, mut ln_fresh) = (batchnorm_twin(&bn), layernorm_twin(&ln));
            let x = tensor(vec![b, 16, 4, 4], seed, 0);
            let y = bn.forward(x.clone(), train);
            assert_eq!(
                bits(y.as_slice()),
                bits(bn_fresh.forward(x, train).as_slice())
            );
            let x = tensor(vec![b * 16, 16], seed + 100, 0);
            let y = ln.forward(x.clone(), train);
            assert_eq!(
                bits(y.as_slice()),
                bits(ln_fresh.forward(x, train).as_slice())
            );
            if !train {
                assert!(bn.xhat.is_empty() && ln.xhat.is_empty() && ln.inv_std.is_empty());
                continue;
            }
            let dy = tensor(vec![b, 16, 4, 4], seed + 200, 0);
            let dx = bn.backward(dy.clone());
            assert_eq!(bits(dx.as_slice()), bits(bn_fresh.backward(dy).as_slice()));
            assert_eq!(batchnorm_state(&bn), batchnorm_state(&bn_fresh));
            let dy = tensor(vec![b * 16, 16], seed + 300, 0);
            let dx = ln.backward(dy.clone());
            assert_eq!(bits(dx.as_slice()), bits(ln_fresh.backward(dy).as_slice()));
            assert_eq!(layernorm_state(&ln), layernorm_state(&ln_fresh));
        }
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut bn = BatchNorm2d::new(16);
        let mut ln = LayerNorm::new(16);
        let mut step = |train: bool, b: usize| {
            // Both layers work in place: the tensor that goes in comes out.
            let x = tensor(vec![b, 16, 4, 4], b as u64, 0);
            let at = x.as_slice().as_ptr();
            let y = bn.forward(x, train);
            assert_eq!(y.as_slice().as_ptr(), at);
            let y = ln.forward(y, train);
            assert_eq!(y.as_slice().as_ptr(), at);
            if train {
                let dy = ln.backward(y);
                assert_eq!(dy.as_slice().as_ptr(), at);
                let dx = bn.backward(dy);
                assert_eq!(dx.as_slice().as_ptr(), at);
                assert_eq!(dx.shape(), &[b, 16, 4, 4]);
            }
            [&bn.means, &bn.inv_std, &bn.xhat, &ln.xhat, &ln.inv_std]
                .map(|v| (v.as_ptr(), v.capacity()))
        };
        let first = step(true, 8);
        assert_eq!(step(true, 8), first);
        // A 64-sample validation forward records nothing, so it neither
        // grows nor moves the caches.
        assert_eq!(step(false, 64), first);
        assert_eq!(step(true, 8), first);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn layernorm_backward_without_forward_panics() {
        LayerNorm::new(2).backward(Tensor::zeros(vec![1, 2]));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn layernorm_backward_after_an_evaluation_forward_panics() {
        let mut ln = LayerNorm::new(2);
        let _ = ln.forward(Tensor::zeros(vec![1, 2]), true);
        let y = ln.forward(Tensor::zeros(vec![3, 2]), false);
        ln.backward(y);
    }

    #[test]
    fn batchnorm_normalises_channels_in_train_mode() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = init::rng_from_seed(1);
        let mut x = init::normal_tensor(4 * 2 * 3 * 3, 5.0, 2.0, &mut rng);
        x.reshape(vec![4, 2, 3, 3]).unwrap();
        let y = bn.forward(x, true);
        // Per-channel mean ~0, var ~1 after normalisation.
        for ch in 0..2 {
            let mut vals = Vec::new();
            for bi in 0..4 {
                let base = (bi * 2 + ch) * 9;
                vals.extend_from_slice(&y.as_slice()[base..base + 9]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = init::rng_from_seed(2);
        // A few training steps to build running stats.
        for _ in 0..50 {
            let mut x = init::normal_tensor(8 * 9, 3.0, 1.5, &mut rng);
            x.reshape(vec![8, 1, 3, 3]).unwrap();
            let _ = bn.forward(x, true);
        }
        // In eval mode, an input at the running mean maps near beta (0).
        let x = Tensor::full(vec![1, 1, 3, 3], 3.0);
        let y = bn.forward(x, false);
        assert!(
            y.as_slice().iter().all(|v| v.abs() < 0.2),
            "{:?}",
            y.as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn batchnorm_backward_after_an_evaluation_forward_panics() {
        let mut bn = BatchNorm2d::new(1);
        let _ = bn.forward(Tensor::zeros(vec![1, 1, 2, 2]), true);
        let y = bn.forward(Tensor::zeros(vec![1, 1, 2, 2]), false);
        bn.backward(y);
    }

    #[test]
    fn batchnorm_reuses_its_buffers_and_keeps_no_xhat_in_evaluation() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = init::rng_from_seed(6);
        let mut batch = |b: usize| {
            let mut x = init::normal_tensor(b * 2 * 3 * 3, 1.0, 2.0, &mut rng);
            x.reshape(vec![b, 2, 3, 3]).unwrap();
            x
        };
        let _ = bn.forward(batch(4), true);
        let held = (bn.xhat.as_ptr(), bn.inv_std.as_ptr(), bn.means.as_ptr());
        let _ = bn.forward(batch(16), false);
        assert!(bn.xhat.is_empty());
        let _ = bn.forward(batch(4), true);
        assert_eq!(bn.xhat.len(), 4 * 2 * 3 * 3);
        assert_eq!(
            (bn.xhat.as_ptr(), bn.inv_std.as_ptr(), bn.means.as_ptr()),
            held
        );
    }

    #[test]
    fn batchnorm_gradcheck() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = init::rng_from_seed(3);
        let mut x = init::uniform_tensor(2 * 2 * 2 * 2, -1.0, 1.0, &mut rng);
        x.reshape(vec![2, 2, 2, 2]).unwrap();
        let y = bn.forward(x.clone(), true);
        let dx = bn.backward(y); // L = sum(y^2)/2

        let eps = 1e-3;
        let loss = |bn: &mut BatchNorm2d, x: &Tensor| -> f32 {
            // Fresh running stats don't matter for the loss value itself.
            let y = bn.forward(x.clone(), true);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for idx in [0usize, 5, 9] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut bn, &xp);
            xp.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut bn, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 0.05 * numeric.abs().max(0.5),
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn layernorm_rows_are_normalised() {
        let mut ln = LayerNorm::new(8);
        let mut rng = init::rng_from_seed(4);
        let mut x = init::normal_tensor(3 * 8, -2.0, 3.0, &mut rng);
        x.reshape(vec![3, 8]).unwrap();
        let y = ln.forward(x, true);
        for row in y.as_slice().chunks(8) {
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_gradcheck() {
        let mut ln = LayerNorm::new(4);
        let mut rng = init::rng_from_seed(5);
        let mut x = init::uniform_tensor(8, -1.0, 1.0, &mut rng);
        x.reshape(vec![2, 4]).unwrap();
        let y = ln.forward(x.clone(), true);
        let dx = ln.backward(y);

        let eps = 1e-3;
        let loss = |ln: &mut LayerNorm, x: &Tensor| -> f32 {
            let y = ln.forward(x.clone(), true);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for idx in 0..8 {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut ln, &xp);
            xp.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut ln, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 0.05 * numeric.abs().max(0.5),
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }
}
