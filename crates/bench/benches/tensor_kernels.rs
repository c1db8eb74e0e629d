//! Criterion: the hot tensor kernels (the streaming passes MSTopK and the
//! collectives are built from).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use cloudtrain::tensor::half::roundtrip_f16;
use cloudtrain::tensor::{init, ops};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tensor_kernels");
    let mut rng = init::rng_from_seed(3);
    for d in [1usize << 16, 1 << 20] {
        let x = init::gradient_like_tensor(d, &mut rng).into_vec();
        let y = init::gradient_like_tensor(d, &mut rng).into_vec();
        group.throughput(Throughput::Elements(d as u64));

        group.bench_with_input(BenchmarkId::new("count_ge", d), &x, |b, x| {
            let thres = ops::mean_abs(x);
            b.iter(|| black_box(ops::count_ge(x, thres)))
        });
        group.bench_with_input(BenchmarkId::new("mean_abs", d), &x, |b, x| {
            b.iter(|| black_box(ops::mean_abs(x)))
        });
        group.bench_with_input(BenchmarkId::new("axpy", d), &x, |b, x| {
            let mut acc = y.clone();
            b.iter(|| {
                ops::axpy(0.5, x, &mut acc);
                black_box(acc[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("l2_norm", d), &x, |b, x| {
            b.iter(|| black_box(ops::l2_norm(x)))
        });
        group.bench_with_input(BenchmarkId::new("f16_roundtrip", d), &x, |b, x| {
            let mut buf = x.clone();
            b.iter(|| {
                buf.copy_from_slice(x);
                roundtrip_f16(&mut buf);
                black_box(buf[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("scatter_add_1pct", d), &x, |b, x| {
            let k = d / 100;
            let idx: Vec<u32> = (0..k as u32).map(|i| i * 100).collect();
            let vals: Vec<f32> = x.iter().step_by(100).take(k).copied().collect();
            let mut acc = vec![0.0f32; d];
            b.iter(|| {
                ops::scatter_add(&mut acc, &idx, &vals);
                black_box(acc[0])
            })
        });
    }
    group.finish();
}

/// Forward + backward of one training batch through each of the eight
/// convolution shapes of `resnet_lite(8, _)` on 16×16 inputs — the layer
/// calls that are most of a training step's CPU time.
fn bench_conv(c: &mut Criterion) {
    use cloudtrain::dnn::conv::Conv2d;
    use cloudtrain::dnn::layer::Layer;
    let mut group = c.benchmark_group("conv2d_fwd_bwd");
    group.sample_size(20);
    let batch = 8usize;
    // (in_c, out_c, k, stride, input h = w)
    for (in_c, out_c, k, stride, h) in [
        (3usize, 8usize, 3usize, 1usize, 16usize),
        (8, 8, 3, 1, 16),
        (8, 16, 3, 2, 16),
        (16, 16, 3, 1, 8),
        (16, 32, 3, 2, 8),
        (32, 32, 3, 1, 4),
        (8, 16, 1, 2, 16),
        (16, 32, 1, 2, 8),
    ] {
        let mut rng = init::rng_from_seed(8);
        let oh = h.div_ceil(stride);
        let mut x = init::uniform_tensor(batch * in_c * h * h, -1.0, 1.0, &mut rng);
        x.reshape(vec![batch, in_c, h, h]).unwrap();
        let mut dy = init::uniform_tensor(batch * out_c * oh * oh, -1.0, 1.0, &mut rng);
        dy.reshape(vec![batch, out_c, oh, oh]).unwrap();
        let mut conv = Conv2d::new(in_c, out_c, k, stride, &mut init::rng_from_seed(9));
        // Multiply-accumulates: one forward GEMM, two backward GEMMs.
        let macs = 3 * batch * out_c * in_c * k * k * oh * oh;
        group.throughput(Throughput::Elements(macs as u64));
        let id = format!("{in_c}to{out_c}_k{k}s{stride}_{h}x{h}");
        group.bench_function(&id, |b| {
            b.iter(|| {
                let y = conv.forward(x.clone(), true);
                let dx = conv.backward(dy.clone());
                black_box((y.as_slice()[0], dx.as_slice()[0]))
            })
        });
    }
    group.finish();
}

/// The non-GEMM layers of the reference models at the models' own shapes
/// (batch 8): forward + backward of one training call — the per-layer table
/// of DESIGN.md §6.4.
fn bench_elementwise_layers(c: &mut Criterion) {
    use cloudtrain::dnn::activation::Relu;
    use cloudtrain::dnn::conv::Conv2d;
    use cloudtrain::dnn::layer::Layer;
    use cloudtrain::dnn::norm::{BatchNorm2d, LayerNorm};
    use cloudtrain::tensor::Tensor;

    let mut group = c.benchmark_group("dnn_layers_fwd_bwd");
    let mut rng = init::rng_from_seed(10);
    let mut activation = |shape: Vec<usize>| {
        let mut x = init::normal_tensor(shape.iter().product(), 0.0, 1.0, &mut rng);
        x.reshape(shape).unwrap();
        x
    };
    let mut bench = |id: &str, layer: &mut dyn Layer, x: Tensor, dy: Tensor| {
        group.throughput(Throughput::Elements(dy.len() as u64));
        group.bench_function(id, |b| {
            b.iter(|| {
                let y = layer.forward(x.clone(), true);
                let dx = layer.backward(dy.clone());
                black_box((y.as_slice()[0], dx.as_slice()[0]))
            })
        });
    };

    // ResNet-lite(8) on 16×16 inputs: 8, 16 and 32 channels at 16×16, 8×8
    // and 4×4 — 16,384, 8,192 and 4,096 activations a call.
    for (ch, hw) in [(8usize, 16usize), (16, 8), (32, 4)] {
        let shape = vec![8, ch, hw, hw];
        let id = format!("{ch}x{hw}x{hw}");
        let (x, dy) = (activation(shape.clone()), activation(shape.clone()));
        bench(&format!("relu/{id}"), &mut Relu::new(), x, dy);
        let (x, dy) = (activation(shape.clone()), activation(shape));
        bench(
            &format!("batchnorm2d/{id}"),
            &mut BatchNorm2d::new(ch),
            x,
            dy,
        );
    }
    // The Transformer's token rows: 8 sequences of 16 tokens, dim 16; and
    // the FFN's ReLU on the 4× expansion.
    let (x, dy) = (activation(vec![128, 16]), activation(vec![128, 16]));
    bench("layernorm/128x16", &mut LayerNorm::new(16), x, dy);
    let (x, dy) = (activation(vec![128, 64]), activation(vec![128, 64]));
    bench("relu/128x64", &mut Relu::new(), x, dy);

    // The conv-backward prologue — bias-gradient row sums plus the `dy`
    // transposition — at the models' output shapes: with one input channel
    // and a 1×1 kernel the three GEMMs are rank-1, so the prologue is what
    // is left of the call.
    for (out_c, hw) in [(8usize, 16usize), (16, 8), (32, 4)] {
        let mut conv = Conv2d::new(1, out_c, 1, 1, &mut init::rng_from_seed(9));
        let (x, dy) = (
            activation(vec![8, 1, hw, hw]),
            activation(vec![8, out_c, hw, hw]),
        );
        bench(
            &format!("conv_prologue/{out_c}x{hw}x{hw}"),
            &mut conv,
            x,
            dy,
        );
    }
    group.finish();

    // Where those layers add up: one training step (forward, loss, backward)
    // of the two benchmark models at batch 8, and the 64-sample validation
    // forward the trainer runs every epoch.
    use cloudtrain::dnn::data::{SyntheticImages, SyntheticSeq};
    use cloudtrain::dnn::loss::softmax_cross_entropy;
    use cloudtrain::dnn::model::Model;
    use cloudtrain::dnn::models::{resnet_lite, TransformerModel};
    let mut group = c.benchmark_group("dnn_models");
    let images = SyntheticImages::new(10, 3, 16, 0.6, 7);
    let seqs = SyntheticSeq::new(10, 64, 16, 7);
    let mut resnet = resnet_lite(8, 10, &mut init::rng_from_seed(7));
    let mut tfm = TransformerModel::new(64, 16, 16, 2, 10, &mut init::rng_from_seed(7));
    let models: [(&str, &mut dyn Model, _, _); 2] = [
        (
            "resnet_lite8",
            &mut resnet,
            images.batch(0, 8),
            images.batch(8, 64),
        ),
        ("transformer", &mut tfm, seqs.batch(0, 8), seqs.batch(8, 64)),
    ];
    for (name, model, train, validation) in models {
        group.bench_function(&format!("{name}/train_step_b8"), |b| {
            b.iter(|| {
                let logits = model.forward(&train.input, true);
                let (loss, dlogits) = softmax_cross_entropy(&logits, &train.labels);
                model.backward(dlogits);
                model.zero_grads();
                black_box(loss)
            })
        });
        group.bench_function(&format!("{name}/validation_forward_b64"), |b| {
            b.iter(|| black_box(model.forward(&validation.input, false).as_slice()[0]))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_conv, bench_elementwise_layers);
criterion_main!(benches);
