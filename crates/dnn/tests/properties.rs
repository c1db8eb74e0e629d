//! Property-based tests for the DNN framework, and the golden
//! fingerprints of its reference models.

use cloudtrain_dnn::conv::Conv2d;
use cloudtrain_dnn::data::{Batch, SyntheticImages, SyntheticSeq};
use cloudtrain_dnn::loss::{softmax_cross_entropy, top_k_accuracy};
use cloudtrain_dnn::math::{matmul, matmul_bt, softmax_rows, transpose};
use cloudtrain_dnn::model::{Input, Model};
use cloudtrain_dnn::models::{mlp, resnet_lite, vgg_lite, TransformerModel};
use cloudtrain_dnn::Layer;
use cloudtrain_tensor::{init, ops};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-entropy gradient rows always sum to ~0 (softmax simplex
    /// tangent) and the loss is non-negative.
    #[test]
    fn loss_gradient_rows_sum_to_zero(
        batch in 1usize..8,
        classes in 2usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = init::rng_from_seed(seed);
        let logits = init::uniform_tensor(batch * classes, -5.0, 5.0, &mut rng);
        let mut logits = logits;
        logits.reshape(vec![batch, classes]).unwrap();
        let labels: Vec<u32> = (0..batch as u32).map(|i| i % classes as u32).collect();
        let (loss, grad) = softmax_cross_entropy(&logits, &labels);
        prop_assert!(loss >= 0.0);
        for row in grad.as_slice().chunks(classes) {
            prop_assert!(row.iter().sum::<f32>().abs() < 1e-5);
        }
    }

    /// Top-k accuracy is monotone non-decreasing in k and reaches 1 at
    /// k = classes.
    #[test]
    fn topk_accuracy_is_monotone(
        batch in 1usize..8,
        classes in 2usize..10,
        seed in 0u64..1000,
    ) {
        let mut rng = init::rng_from_seed(seed);
        let mut logits = init::uniform_tensor(batch * classes, -3.0, 3.0, &mut rng);
        logits.reshape(vec![batch, classes]).unwrap();
        let labels: Vec<u32> = (0..batch as u32).map(|i| i % classes as u32).collect();
        let mut prev = 0.0;
        for k in 1..=classes {
            let acc = top_k_accuracy(&logits, &labels, k);
            prop_assert!(acc >= prev - 1e-6);
            prev = acc;
        }
        prop_assert_eq!(prev, 1.0);
    }

    /// Model parameter save/restore is lossless: two replicas with synced
    /// parameters produce identical logits.
    #[test]
    fn param_roundtrip_syncs_replicas(seed in 0u64..500, other in 500u64..1000) {
        let mut a = mlp(12, 8, 3, &mut init::rng_from_seed(seed));
        let mut b = mlp(12, 8, 3, &mut init::rng_from_seed(other));
        let d = a.param_count();
        let mut buf = vec![0.0; d];
        a.read_params(&mut buf);
        b.write_params(&buf);
        let mut rng = init::rng_from_seed(seed ^ other);
        let mut x = init::uniform_tensor(2 * 12, -1.0, 1.0, &mut rng);
        x.reshape(vec![2, 12]).unwrap();
        let ya = a.forward(&Input::Dense(x.clone()), false);
        let yb = b.forward(&Input::Dense(x), false);
        prop_assert_eq!(ya, yb);
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ over random shapes.
    #[test]
    fn matmul_transpose_identity(
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
        seed in 0u64..1000,
    ) {
        let mut rng = init::rng_from_seed(seed);
        let a = init::uniform_tensor(m * k, -2.0, 2.0, &mut rng).into_vec();
        let b = init::uniform_tensor(k * n, -2.0, 2.0, &mut rng).into_vec();
        let mut ab = vec![0.0; m * n];
        matmul(&a, &b, &mut ab, m, k, n);
        // Bᵀ·Aᵀ via matmul_bt: (Bᵀ)(Aᵀ) where Bᵀ is n×k, Aᵀ is k×m.
        let bt = transpose(&b, k, n);
        let mut btat = vec![0.0; n * m];
        matmul_bt(&bt, &transpose(&transpose(&a, m, k), k, m), &mut btat, n, k, m);
        let abt = transpose(&ab, m, n);
        for (x, y) in abt.iter().zip(&btat) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// Softmax rows are probability vectors and order-preserving.
    #[test]
    fn softmax_rows_are_distributions(
        rows in 1usize..6,
        n in 2usize..10,
        seed in 0u64..1000,
    ) {
        let mut rng = init::rng_from_seed(seed);
        let x = init::uniform_tensor(rows * n, -10.0, 10.0, &mut rng).into_vec();
        let mut p = x.clone();
        softmax_rows(&mut p, rows, n);
        for (xr, pr) in x.chunks(n).zip(p.chunks(n)) {
            prop_assert!((pr.iter().sum::<f32>() - 1.0).abs() < 1e-5);
            prop_assert!(pr.iter().all(|v| *v > 0.0));
            // Order preserved.
            for i in 0..n {
                for j in 0..n {
                    if xr[i] > xr[j] {
                        prop_assert!(pr[i] >= pr[j]);
                    }
                }
            }
        }
    }

    /// Synthetic datasets are deterministic and label-consistent.
    #[test]
    fn datasets_are_deterministic(idx in 0u64..10_000, seed in 0u64..100) {
        let img = SyntheticImages::new(7, 3, 8, 0.4, seed);
        let (xa, la) = img.sample(idx);
        let (xb, lb) = img.sample(idx);
        prop_assert_eq!(&xa, &xb);
        prop_assert_eq!(la, lb);
        prop_assert_eq!(la, (idx % 7) as u32);

        let seq = SyntheticSeq::new(4, 32, 12, seed);
        let (ta, ya) = seq.sample(idx);
        let (tb, yb) = seq.sample(idx);
        prop_assert_eq!(&ta, &tb);
        prop_assert_eq!(ya, yb);
        prop_assert!(ta.contains(&ya));
    }

    /// A `Conv2d` that has already been driven at other batch sizes, modes
    /// and geometries answers like a fresh layer with the same parameters,
    /// bit for bit: its reused lowering scratch carries nothing over.
    #[test]
    fn conv_scratch_reuse_is_invisible(
        stride in 1usize..3,
        k_half in 0usize..2,
        h in 1usize..9,
        w in 1usize..9,
        warm_h in 1usize..9,
        warm_w in 1usize..9,
        seed in 0u64..1000,
    ) {
        let k = 2 * k_half + 1;
        let mut rng = init::rng_from_seed(seed);
        let mut image = |b: usize, c: usize, h: usize, w: usize| {
            let mut x = init::uniform_tensor(b * c * h * w, -1.0, 1.0, &mut rng);
            x.reshape(vec![b, c, h, w]).unwrap();
            x
        };
        let mut used = Conv2d::new(2, 3, k, stride, &mut init::rng_from_seed(seed));
        let mut fresh = Conv2d::new(2, 3, k, stride, &mut init::rng_from_seed(seed));
        // Warm the scratch at another geometry, then in evaluation mode.
        let y = used.forward(image(3, 2, warm_h, warm_w), true);
        let _ = used.backward(y);
        let _ = used.forward(image(5, 2, h, w), false);
        used.visit_params_mut(&mut |p| p.zero_grad());

        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        let x = image(2, 2, h, w);
        let (y_used, y_fresh) = (used.forward(x.clone(), true), fresh.forward(x, true));
        prop_assert_eq!(bits(y_used.as_slice()), bits(y_fresh.as_slice()));
        let (dx_used, dx_fresh) = (used.backward(y_used), fresh.backward(y_fresh));
        prop_assert_eq!(bits(dx_used.as_slice()), bits(dx_fresh.as_slice()));
        let grads = |c: &Conv2d| {
            let mut g = Vec::new();
            c.visit_params(&mut |p| g.extend(bits(&p.grad)));
            g
        };
        prop_assert_eq!(grads(&used), grads(&fresh));
    }

    /// One gradient step on a fixed batch reduces the loss for any seed
    /// (the descent direction property, end to end through the MLP).
    #[test]
    fn gradient_step_descends(seed in 0u64..50) {
        let mut m = mlp(8, 16, 3, &mut init::rng_from_seed(seed));
        let d = m.param_count();
        let mut rng = init::rng_from_seed(seed + 777);
        let mut x = init::uniform_tensor(4 * 8, -1.0, 1.0, &mut rng);
        x.reshape(vec![4, 8]).unwrap();
        let input = Input::Dense(x);
        let labels = vec![0u32, 1, 2, 0];

        let y = m.forward(&input, true);
        let (l0, dy) = softmax_cross_entropy(&y, &labels);
        m.backward(dy);
        let mut params = vec![0.0; d];
        let mut grads = vec![0.0; d];
        m.read_params(&mut params);
        m.read_grads(&mut grads);
        cloudtrain_tensor::ops::axpy(-0.01, &grads, &mut params);
        m.write_params(&params);
        let y = m.forward(&input, true);
        let (l1, _) = softmax_cross_entropy(&y, &labels);
        prop_assert!(l1 <= l0 + 1e-6, "loss rose: {l0} -> {l1}");
    }
}

// --- Golden fingerprints ----------------------------------------------------
//
// The constants were captured on the commit *before* the `dnn::math` kernels
// were register-tiled and `Conv2d` moved to layer-owned scratch. Every sum in
// those kernels keeps its per-element order (DESIGN.md §6.4), so losses and
// gradients are bit for bit what they were; a later kernel edit that reorders
// a reduction fails here, in tier-1, rather than in an end-to-end fingerprint
// three crates up.

const GOLDEN_BATCH: usize = 8;

fn fnv1a(hash: &mut u64, bits: u32) {
    for byte in bits.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over the loss bits and the flat gradient of each of three
/// plain-SGD training steps, every step on its own batch.
fn three_step_fingerprint(model: &mut dyn Model, batch_at: &dyn Fn(u64) -> Batch) -> u64 {
    let d = model.param_count();
    let (mut params, mut grads) = (vec![0.0f32; d], vec![0.0f32; d]);
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for step in 0..3 {
        let batch = batch_at(step);
        let logits = model.forward(&batch.input, true);
        let (loss, dlogits) = softmax_cross_entropy(&logits, &batch.labels);
        fnv1a(&mut hash, loss.to_bits());
        model.backward(dlogits);
        model.read_grads(&mut grads);
        model.zero_grads();
        for g in &grads {
            fnv1a(&mut hash, g.to_bits());
        }
        model.read_params(&mut params);
        ops::axpy(-0.05, &grads, &mut params);
        model.write_params(&params);
    }
    hash
}

fn golden_images() -> impl Fn(u64) -> Batch {
    let data = SyntheticImages::new(10, 3, 16, 0.6, 7);
    move |step| data.batch(step * GOLDEN_BATCH as u64, GOLDEN_BATCH)
}

#[test]
fn resnet_lite_three_steps_match_golden() {
    let mut model = resnet_lite(8, 10, &mut init::rng_from_seed(7));
    assert_eq!(
        three_step_fingerprint(&mut model, &golden_images()),
        0x44db_8599_9b3a_292d
    );
}

#[test]
fn vgg_lite_three_steps_match_golden() {
    let mut model = vgg_lite(8, 16, 10, &mut init::rng_from_seed(7));
    assert_eq!(
        three_step_fingerprint(&mut model, &golden_images()),
        0x9e12_88a0_2e99_c7ec
    );
}

#[test]
fn transformer_three_steps_match_golden() {
    let mut model = TransformerModel::new(64, 16, 16, 2, 10, &mut init::rng_from_seed(7));
    let data = SyntheticSeq::new(10, 64, 16, 7);
    let batch_at = move |step: u64| data.batch(step * GOLDEN_BATCH as u64, GOLDEN_BATCH);
    assert_eq!(
        three_step_fingerprint(&mut model, &batch_at),
        0x1fa1_be12_c540_851d
    );
}
