//! Reference models with the same *structure* as the paper's workloads,
//! scaled to sizes that train quickly on CPU:
//!
//! * [`resnet_lite`] — residual CNN (stand-in for ResNet-50): conv/BN
//!   stacks with identity and projection shortcuts, parameters dominated by
//!   convolutions spread over many small tensors;
//! * [`vgg_lite`] — plain CNN (stand-in for VGG-19): parameters dominated
//!   by a huge fully connected head, the communication profile that makes
//!   VGG the classic compression showcase;
//! * [`mlp`] — a baseline multi-layer perceptron;
//! * [`TransformerModel`] — embedding + pre-norm attention/FFN blocks +
//!   mean-pool classifier (stand-in for the WMT Transformer).

use cloudtrain_tensor::{ops, Tensor};
use rand::rngs::StdRng;

use crate::activation::Relu;
use crate::attention::SelfAttention;
use crate::conv::{Conv2d, GlobalAvgPool, MaxPool2};
use crate::embedding::Embedding;
use crate::layer::{Layer, Param};
use crate::linear::Linear;
use crate::model::{Input, Model, ParamRange, Sequential};
use crate::norm::{BatchNorm2d, LayerNorm};

/// A two-conv residual block with optional downsampling projection
/// shortcut: `y = relu(bn2(conv2(relu(bn1(conv1(x))))) + shortcut(x))`.
pub struct ResidualBlock {
    conv1: Conv2d,
    bn1: BatchNorm2d,
    relu1: Relu,
    conv2: Conv2d,
    bn2: BatchNorm2d,
    shortcut: Option<(Conv2d, BatchNorm2d)>,
    relu_out: Relu,
    /// A training forward is waiting for its backward.
    forwarded: bool,
}

impl std::fmt::Debug for ResidualBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResidualBlock")
            .field("projected", &self.shortcut.is_some())
            .finish()
    }
}

impl ResidualBlock {
    /// Creates a block mapping `in_c` to `out_c` channels with the given
    /// stride; a 1×1 projection shortcut is added whenever the shape
    /// changes.
    pub fn new(in_c: usize, out_c: usize, stride: usize, rng: &mut StdRng) -> Self {
        let shortcut = (in_c != out_c || stride != 1).then(|| {
            (
                Conv2d::new(in_c, out_c, 1, stride, rng),
                BatchNorm2d::new(out_c),
            )
        });
        Self {
            conv1: Conv2d::new(in_c, out_c, 3, stride, rng),
            bn1: BatchNorm2d::new(out_c),
            relu1: Relu::new(),
            conv2: Conv2d::new(out_c, out_c, 3, 1, rng),
            bn2: BatchNorm2d::new(out_c),
            shortcut,
            relu_out: Relu::new(),
            forwarded: false,
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let main = self.conv1.forward(x.clone(), train);
        let main = self.bn1.forward(main, train);
        let main = self.relu1.forward(main, train);
        let main = self.conv2.forward(main, train);
        let mut y = self.bn2.forward(main, train);

        let skip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let s = conv.forward(x, train);
                bn.forward(s, train)
            }
            None => x,
        };
        y.add_assign(&skip).expect("ResidualBlock: shape mismatch");
        self.forwarded = train;
        self.relu_out.forward(y, train)
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        assert!(
            std::mem::take(&mut self.forwarded),
            "ResidualBlock: backward before forward"
        );
        let dy = self.relu_out.backward(dy);
        // Main path.
        let g = self.bn2.backward(dy.clone());
        let g = self.conv2.backward(g);
        let g = self.relu1.backward(g);
        let g = self.bn1.backward(g);
        let mut dx = self.conv1.backward(g);
        // Skip path.
        let dskip = match &mut self.shortcut {
            Some((conv, bn)) => {
                let g = bn.backward(dy);
                conv.backward(g)
            }
            None => dy,
        };
        ops::add_assign(dx.as_mut_slice(), dskip.as_slice());
        dx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.conv1.visit_params(f);
        self.bn1.visit_params(f);
        self.conv2.visit_params(f);
        self.bn2.visit_params(f);
        if let Some((conv, bn)) = &self.shortcut {
            conv.visit_params(f);
            bn.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv1.visit_params_mut(f);
        self.bn1.visit_params_mut(f);
        self.conv2.visit_params_mut(f);
        self.bn2.visit_params_mut(f);
        if let Some((conv, bn)) = &mut self.shortcut {
            conv.visit_params_mut(f);
            bn.visit_params_mut(f);
        }
    }

    fn name(&self) -> &'static str {
        "resblock"
    }
}

/// Flattens `[b, c, h, w]` to `[b, c*h*w]` (no-op on the data).
#[derive(Debug, Default)]
pub struct Flatten {
    in_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, mut x: Tensor, _train: bool) -> Tensor {
        self.in_shape = x.shape().to_vec();
        let b = self.in_shape[0];
        let rest = x.len() / b;
        x.reshape(vec![b, rest]).expect("Flatten: reshape");
        x
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        dy.reshape(self.in_shape.clone())
            .expect("Flatten: reshape back");
        dy
    }

    fn visit_params(&self, _f: &mut dyn FnMut(&Param)) {}
    fn visit_params_mut(&mut self, _f: &mut dyn FnMut(&mut Param)) {}

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// A residual CNN for `[b, 3, res, res]` inputs (ResNet-50 stand-in).
pub fn resnet_lite(width: usize, classes: usize, rng: &mut StdRng) -> Sequential {
    let w = width;
    Sequential::new(
        vec![
            Box::new(Conv2d::new(3, w, 3, 1, rng)),
            Box::new(BatchNorm2d::new(w)),
            Box::new(Relu::new()),
            Box::new(ResidualBlock::new(w, w, 1, rng)),
            Box::new(ResidualBlock::new(w, 2 * w, 2, rng)),
            Box::new(ResidualBlock::new(2 * w, 2 * w, 1, rng)),
            Box::new(ResidualBlock::new(2 * w, 4 * w, 2, rng)),
            Box::new(GlobalAvgPool::new()),
            Box::new(Linear::new(4 * w, classes, rng)),
        ],
        classes,
    )
}

/// A plain CNN with a large fully connected head (VGG-19 stand-in) for
/// `[b, 3, res, res]` inputs with `res` divisible by 4.
pub fn vgg_lite(width: usize, res: usize, classes: usize, rng: &mut StdRng) -> Sequential {
    assert!(
        res.is_multiple_of(4),
        "vgg_lite: resolution must be divisible by 4"
    );
    let w = width;
    let flat = 2 * w * (res / 4) * (res / 4);
    Sequential::new(
        vec![
            Box::new(Conv2d::new(3, w, 3, 1, rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new()),
            Box::new(Conv2d::new(w, 2 * w, 3, 1, rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(flat, 128, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(128, classes, rng)),
        ],
        classes,
    )
}

/// A plain MLP over flat `[b, in_dim]` inputs.
pub fn mlp(in_dim: usize, hidden: usize, classes: usize, rng: &mut StdRng) -> Sequential {
    Sequential::new(
        vec![
            Box::new(Linear::new(in_dim, hidden, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(hidden, hidden, rng)),
            Box::new(Relu::new()),
            Box::new(Linear::new(hidden, classes, rng)),
        ],
        classes,
    )
}

/// One pre-norm Transformer encoder block:
/// `a = x + Attn(LN1(x)); y = a + FFN(LN2(a))`.
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: SelfAttention,
    ln2: LayerNorm,
    ff1: Linear,
    ff_relu: Relu,
    ff2: Linear,
}

impl std::fmt::Debug for TransformerBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TransformerBlock")
    }
}

impl TransformerBlock {
    /// Creates a block over `dim`-dimensional tokens in length-`seq`
    /// sequences, with a 4× FFN expansion.
    pub fn new(dim: usize, seq: usize, rng: &mut StdRng) -> Self {
        Self {
            ln1: LayerNorm::new(dim),
            attn: SelfAttention::new(dim, seq, rng),
            ln2: LayerNorm::new(dim),
            ff1: Linear::new(dim, 4 * dim, rng),
            ff_relu: Relu::new(),
            ff2: Linear::new(4 * dim, dim, rng),
        }
    }
}

impl Layer for TransformerBlock {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let h = self.ln1.forward(x.clone(), train);
        let h = self.attn.forward(h, train);
        let mut a = x;
        a.add_assign(&h).expect("TransformerBlock: attn residual");

        let h = self.ln2.forward(a.clone(), train);
        let h = self.ff1.forward(h, train);
        let h = self.ff_relu.forward(h, train);
        let h = self.ff2.forward(h, train);
        let mut y = a;
        y.add_assign(&h).expect("TransformerBlock: ffn residual");
        y
    }

    fn backward(&mut self, dy: Tensor) -> Tensor {
        // FFN branch.
        let g = self.ff2.backward(dy.clone());
        let g = self.ff_relu.backward(g);
        let g = self.ff1.backward(g);
        let mut da = self.ln2.backward(g);
        ops::add_assign(da.as_mut_slice(), dy.as_slice());
        // Attention branch.
        let g = self.attn.backward(da.clone());
        let mut dx = self.ln1.backward(g);
        ops::add_assign(dx.as_mut_slice(), da.as_slice());
        dx
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        self.ln1.visit_params(f);
        self.attn.visit_params(f);
        self.ln2.visit_params(f);
        self.ff1.visit_params(f);
        self.ff2.visit_params(f);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.ln1.visit_params_mut(f);
        self.attn.visit_params_mut(f);
        self.ln2.visit_params_mut(f);
        self.ff1.visit_params_mut(f);
        self.ff2.visit_params_mut(f);
    }

    fn name(&self) -> &'static str {
        "transformer-block"
    }
}

/// A token-sequence classifier: embedding → encoder blocks → mean pool →
/// linear head (the Transformer stand-in for the convergence experiments).
pub struct TransformerModel {
    embed: Embedding,
    blocks: Vec<TransformerBlock>,
    head: Linear,
    seq: usize,
    dim: usize,
    /// Batch size of the last training forward, until backward consumes it.
    cached_batch: Option<usize>,
}

impl std::fmt::Debug for TransformerModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformerModel")
            .field("blocks", &self.blocks.len())
            .field("dim", &self.dim)
            .field("seq", &self.seq)
            .finish()
    }
}

impl TransformerModel {
    /// Creates a model with `n_blocks` encoder blocks.
    pub fn new(
        vocab: usize,
        dim: usize,
        seq: usize,
        n_blocks: usize,
        classes: usize,
        rng: &mut StdRng,
    ) -> Self {
        Self {
            embed: Embedding::new(vocab, dim, seq, rng),
            blocks: (0..n_blocks)
                .map(|_| TransformerBlock::new(dim, seq, rng))
                .collect(),
            head: Linear::new(dim, classes, rng),
            seq,
            dim,
            cached_batch: None,
        }
    }

    fn visit_all(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.embed.tokens);
        f(&self.embed.positions);
        for b in &self.blocks {
            b.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn visit_all_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.embed.tokens);
        f(&mut self.embed.positions);
        for b in &mut self.blocks {
            b.visit_params_mut(f);
        }
        self.head.visit_params_mut(f);
    }
}

impl Model for TransformerModel {
    fn forward(&mut self, input: &Input, train: bool) -> Tensor {
        let Input::Tokens { ids, seq_len } = input else {
            panic!("TransformerModel: expected token input");
        };
        assert_eq!(*seq_len, self.seq, "TransformerModel: seq length mismatch");
        let batch = ids.len() / self.seq;
        let mut h = self.embed.forward(ids, self.seq, train);
        for b in &mut self.blocks {
            h = b.forward(h, train);
        }
        // Mean-pool over the sequence: [batch*seq, dim] -> [batch, dim].
        let mut pooled = Tensor::zeros(vec![batch, self.dim]);
        for bi in 0..batch {
            let dst = &mut pooled.as_mut_slice()[bi * self.dim..(bi + 1) * self.dim];
            for t in 0..self.seq {
                let src = &h.as_slice()
                    [(bi * self.seq + t) * self.dim..(bi * self.seq + t + 1) * self.dim];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
            dst.iter_mut().for_each(|v| *v /= self.seq as f32);
        }
        self.cached_batch = train.then_some(batch);
        self.head.forward(pooled, train)
    }

    fn backward(&mut self, dlogits: Tensor) {
        let batch = self
            .cached_batch
            .take()
            .expect("TransformerModel: backward before forward");
        let dpooled = self.head.backward(dlogits);
        // Un-pool: broadcast /seq to every position.
        let mut dh = Tensor::zeros(vec![batch * self.seq, self.dim]);
        let inv = 1.0 / self.seq as f32;
        for bi in 0..batch {
            let src = &dpooled.as_slice()[bi * self.dim..(bi + 1) * self.dim];
            for t in 0..self.seq {
                let dst = &mut dh.as_mut_slice()
                    [(bi * self.seq + t) * self.dim..(bi * self.seq + t + 1) * self.dim];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = s * inv;
                }
            }
        }
        let mut g = dh;
        for b in self.blocks.iter_mut().rev() {
            g = b.backward(g);
        }
        self.embed.backward(&g);
    }

    fn param_count(&self) -> usize {
        let mut n = 0;
        self.visit_all(&mut |p| n += p.len());
        n
    }

    fn layer_ranges(&self) -> Vec<ParamRange> {
        let mut ranges = Vec::new();
        let mut offset = 0;
        self.visit_all(&mut |p| {
            ranges.push(ParamRange {
                offset,
                len: p.len(),
            });
            offset += p.len();
        });
        ranges
    }

    fn read_params(&self, out: &mut [f32]) {
        let mut offset = 0;
        self.visit_all(&mut |p| {
            out[offset..offset + p.len()].copy_from_slice(&p.value);
            offset += p.len();
        });
    }

    fn write_params(&mut self, src: &[f32]) {
        let mut offset = 0;
        self.visit_all_mut(&mut |p| {
            let n = p.len();
            p.value.copy_from_slice(&src[offset..offset + n]);
            offset += n;
        });
    }

    fn read_grads(&self, out: &mut [f32]) {
        let mut offset = 0;
        self.visit_all(&mut |p| {
            out[offset..offset + p.len()].copy_from_slice(&p.grad);
            offset += p.len();
        });
    }

    fn zero_grads(&mut self) {
        self.visit_all_mut(&mut |p| p.zero_grad());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::softmax_cross_entropy;
    use cloudtrain_tensor::init::{self, rng_from_seed};

    #[test]
    fn resnet_forward_shapes() {
        let mut rng = rng_from_seed(1);
        let mut m = resnet_lite(8, 10, &mut rng);
        let mut x = init::uniform_tensor(2 * 3 * 16 * 16, -1.0, 1.0, &mut rng);
        x.reshape(vec![2, 3, 16, 16]).unwrap();
        let y = m.forward(&Input::Dense(x), true);
        assert_eq!(y.shape(), &[2, 10]);
        assert!(m.param_count() > 10_000);
    }

    #[test]
    fn residual_block_gradcheck() {
        let mut rng = rng_from_seed(2);
        let mut blk = ResidualBlock::new(2, 4, 2, &mut rng);
        let mut x = init::uniform_tensor(2 * 4 * 4, -1.0, 1.0, &mut rng);
        x.reshape(vec![1, 2, 4, 4]).unwrap();
        let y = blk.forward(x.clone(), true);
        let dx = blk.backward(y);

        let eps = 1e-2;
        let loss = |b: &mut ResidualBlock, x: &Tensor| {
            let y = b.forward(x.clone(), true);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };
        for idx in [0usize, 9, 21, 31] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut blk, &xp);
            xp.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut blk, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 0.08 * numeric.abs().max(1.0),
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }
    }

    #[test]
    fn vgg_params_dominated_by_fc() {
        let mut rng = rng_from_seed(3);
        let m = vgg_lite(8, 16, 10, &mut rng);
        let ranges = m.layer_ranges();
        let total = m.param_count();
        let largest = ranges.iter().map(|r| r.len).max().unwrap();
        // The first FC weight dwarfs everything else.
        assert!(largest as f64 > 0.6 * total as f64);
    }

    #[test]
    fn transformer_forward_shapes_and_param_access() {
        let mut rng = rng_from_seed(4);
        let mut m = TransformerModel::new(16, 8, 4, 2, 5, &mut rng);
        let input = Input::Tokens {
            ids: vec![1, 2, 3, 4, 5, 6, 7, 8],
            seq_len: 4,
        };
        let y = m.forward(&input, true);
        assert_eq!(y.shape(), &[2, 5]);

        let d = m.param_count();
        let ranges = m.layer_ranges();
        assert_eq!(ranges.iter().map(|r| r.len).sum::<usize>(), d);

        let (_, grad) = softmax_cross_entropy(&y, &[0, 1]);
        m.backward(grad);
        let mut g = vec![0.0; d];
        m.read_grads(&mut g);
        assert!(g.iter().any(|v| *v != 0.0));
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn transformer_backward_after_an_evaluation_forward_panics() {
        let mut m = TransformerModel::new(16, 8, 4, 1, 5, &mut rng_from_seed(7));
        let tokens = |ids: Vec<u32>| Input::Tokens { ids, seq_len: 4 };
        let y = m.forward(&tokens(vec![1, 2, 3, 4]), true);
        let (_, grad) = softmax_cross_entropy(&y, &[0]);
        let _ = m.forward(&tokens(vec![5; 12]), false);
        m.backward(grad);
    }

    /// A validation forward between two training steps — at another batch
    /// size, through every reused buffer — changes no bit of either step.
    #[test]
    fn evaluation_between_steps_changes_no_training_bit() {
        use crate::data::{Batch, SyntheticImages, SyntheticSeq};
        fn run(
            model: &mut dyn Model,
            batch_at: &dyn Fn(u64, usize) -> Batch,
            eval: bool,
        ) -> Vec<u32> {
            let mut grads = vec![0.0; model.param_count()];
            let mut trace = Vec::new();
            for step in 0..2 {
                let batch = batch_at(step * 8, 8);
                let y = model.forward(&batch.input, true);
                let (loss, dy) = softmax_cross_entropy(&y, &batch.labels);
                model.backward(dy);
                model.read_grads(&mut grads);
                model.zero_grads();
                trace.push(loss.to_bits());
                trace.extend(grads.iter().map(|g| g.to_bits()));
                if eval {
                    let _ = model.forward(&batch_at(1000, 64).input, false);
                }
            }
            trace
        }
        let images = SyntheticImages::new(10, 3, 8, 0.6, 7);
        let seqs = SyntheticSeq::new(10, 64, 16, 7);
        let [plain, evaluated] = [false, true].map(|eval| {
            let mut resnet = resnet_lite(8, 10, &mut rng_from_seed(8));
            let mut tfm = TransformerModel::new(64, 16, 16, 2, 10, &mut rng_from_seed(8));
            (
                run(&mut resnet, &|at, b| images.batch(at, b), eval),
                run(&mut tfm, &|at, b| seqs.batch(at, b), eval),
            )
        });
        assert_eq!(plain, evaluated);
    }

    #[test]
    fn models_learn_a_tiny_task() {
        // One SGD step on a fixed batch must reduce the loss (sanity that
        // gradients point downhill through the full stacks).
        let mut rng = rng_from_seed(5);
        let mut m = resnet_lite(4, 3, &mut rng);
        let mut x = init::uniform_tensor(6 * 3 * 8 * 8, -1.0, 1.0, &mut rng);
        x.reshape(vec![6, 3, 8, 8]).unwrap();
        let input = Input::Dense(x);
        let labels = [0u32, 1, 2, 0, 1, 2];

        let d = m.param_count();
        let mut params = vec![0.0; d];
        let mut grads = vec![0.0; d];

        let y = m.forward(&input, true);
        let (l0, dy) = softmax_cross_entropy(&y, &labels);
        m.backward(dy);
        m.read_params(&mut params);
        m.read_grads(&mut grads);
        ops::axpy(-0.05, &grads, &mut params);
        m.write_params(&params);
        m.zero_grads();

        let y = m.forward(&input, true);
        let (l1, _) = softmax_cross_entropy(&y, &labels);
        assert!(l1 < l0, "loss did not decrease: {l0} -> {l1}");
    }

    #[test]
    fn transformer_learns_a_tiny_task() {
        let mut rng = rng_from_seed(6);
        let mut m = TransformerModel::new(8, 8, 4, 1, 2, &mut rng);
        let input = Input::Tokens {
            ids: vec![1, 1, 1, 1, 2, 2, 2, 2],
            seq_len: 4,
        };
        let labels = [0u32, 1];
        let d = m.param_count();
        let mut params = vec![0.0; d];
        let mut grads = vec![0.0; d];
        let mut losses = Vec::new();
        for _ in 0..30 {
            let y = m.forward(&input, true);
            let (l, dy) = softmax_cross_entropy(&y, &labels);
            losses.push(l);
            m.backward(dy);
            m.read_params(&mut params);
            m.read_grads(&mut grads);
            ops::axpy(-0.5, &grads, &mut params);
            m.write_params(&params);
            m.zero_grads();
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "transformer failed to learn: {losses:?}"
        );
    }
}
