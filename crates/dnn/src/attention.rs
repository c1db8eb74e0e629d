//! Single-head scaled dot-product self-attention.
//!
//! Operates on `[batch * seq, dim]` activations with a fixed sequence
//! length, attending within each sequence. A single head keeps the manual
//! backward tractable while exercising the same compute/communication
//! profile as the paper's Transformer (large dense projection matrices).

use cloudtrain_tensor::{init, ops, Tensor};
use rand::rngs::StdRng;

use crate::layer::{Layer, Param};
use crate::math::{matmul, matmul_at_acc, matmul_bt, softmax_rows, transpose_into};

/// The working set of one [`SelfAttention`]: owned by the layer, sized on
/// first use and reused across steps (DESIGN.md §6.4), so from the second
/// training step on neither pass allocates any of it.
#[derive(Debug, Default)]
struct Scratch {
    // What a forward computes and a training backward reads, all batches
    // concatenated: the projections, the softmax probabilities
    // (`[batch][s][s]`) and the attended values.
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    attn: Vec<f32>,
    o: Vec<f32>,
    // Backward only: the gradients of `o`, `q`, `k`, `v` and one projection's
    // share of `dx` (`[rows, dim]` each) ...
    d_o: Vec<f32>,
    dq: Vec<f32>,
    dk: Vec<f32>,
    dv: Vec<f32>,
    tmp: Vec<f32>,
    // ... and one sequence's `[s, s]` score gradients.
    da: Vec<f32>,
    ds: Vec<f32>,
    ds_t: Vec<f32>,
}

/// Self-attention with Q/K/V/O projections (`y = Attn(x) W_o^T`).
#[derive(Debug)]
pub struct SelfAttention {
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    dim: usize,
    seq: usize,
    scratch: Scratch,
    /// The input of the last training forward, until backward consumes it
    /// (and with it the forward half of `scratch`).
    x: Option<Tensor>,
}

impl SelfAttention {
    /// Creates an attention layer over `dim`-dimensional tokens attending
    /// within length-`seq` windows.
    pub fn new(dim: usize, seq: usize, rng: &mut StdRng) -> Self {
        let mk = |name: &str, rng: &mut StdRng| {
            let mut w = vec![0.0; dim * dim];
            init::fill_xavier(&mut w, dim, dim, rng);
            Param::new(format!("attn.{name}"), w)
        };
        Self {
            wq: mk("wq", rng),
            wk: mk("wk", rng),
            wv: mk("wv", rng),
            wo: mk("wo", rng),
            dim,
            seq,
            scratch: Scratch::default(),
            x: None,
        }
    }
}

impl Layer for SelfAttention {
    fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let (d, s) = (self.dim, self.seq);
        let rows = x.len() / d;
        assert_eq!(rows % s, 0, "SelfAttention: rows not a multiple of seq");
        let batches = rows / s;
        let xs = x.as_slice();

        // Every buffer is overwritten in full, so stale contents are fine.
        let Scratch {
            q, k, v, attn, o, ..
        } = &mut self.scratch;
        for buf in [&mut *q, &mut *k, &mut *v, &mut *o] {
            buf.resize(rows * d, 0.0);
        }
        attn.resize(batches * s * s, 0.0);
        matmul_bt(xs, &self.wq.value, q, rows, d, d);
        matmul_bt(xs, &self.wk.value, k, rows, d, d);
        matmul_bt(xs, &self.wv.value, v, rows, d, d);

        let scale = 1.0 / (d as f32).sqrt();
        for b in 0..batches {
            let qb = &q[b * s * d..(b + 1) * s * d];
            let kb = &k[b * s * d..(b + 1) * s * d];
            let vb = &v[b * s * d..(b + 1) * s * d];
            let ab = &mut attn[b * s * s..(b + 1) * s * s];
            matmul_bt(qb, kb, ab, s, d, s);
            ab.iter_mut().for_each(|x| *x *= scale);
            softmax_rows(ab, s, s);
            matmul(ab, vb, &mut o[b * s * d..(b + 1) * s * d], s, s, d);
        }

        let mut y = Tensor::zeros(vec![rows, d]);
        matmul_bt(o, &self.wo.value, y.as_mut_slice(), rows, d, d);
        // Evaluation has no backward: record nothing.
        self.x = train.then_some(x);
        y
    }

    fn backward(&mut self, mut dy: Tensor) -> Tensor {
        let x = self
            .x
            .take()
            .expect("SelfAttention: backward before forward");
        let (d, s) = (self.dim, self.seq);
        let rows = x.len() / d;
        assert_eq!(dy.len(), rows * d, "SelfAttention: backward shape");
        let xs = x.as_slice();
        let dys = dy.as_slice();
        let scale = 1.0 / (d as f32).sqrt();

        let Scratch {
            q,
            k,
            v,
            attn,
            o,
            d_o,
            dq,
            dk,
            dv,
            tmp,
            da,
            ds,
            ds_t,
        } = &mut self.scratch;
        // All overwritten in full, except the accumulator `dv`.
        for buf in [&mut *d_o, &mut *dq, &mut *dk, &mut *tmp] {
            buf.resize(rows * d, 0.0);
        }
        dv.clear();
        dv.resize(rows * d, 0.0);
        for buf in [&mut *da, &mut *ds, &mut *ds_t] {
            buf.resize(s * s, 0.0);
        }

        // dO = dY @ Wo; dWo += dY^T @ O.
        matmul(dys, &self.wo.value, d_o, rows, d, d);
        matmul_at_acc(dys, o, &mut self.wo.grad, rows, d, d);

        for b in 0..rows / s {
            let ab = &attn[b * s * s..(b + 1) * s * s];
            let vb = &v[b * s * d..(b + 1) * s * d];
            let qb = &q[b * s * d..(b + 1) * s * d];
            let kb = &k[b * s * d..(b + 1) * s * d];
            let dob = &d_o[b * s * d..(b + 1) * s * d];

            // dA = dO @ V^T; dV = A^T @ dO.
            matmul_bt(dob, vb, da, s, d, s);
            matmul_at_acc(ab, dob, &mut dv[b * s * d..(b + 1) * s * d], s, s, d);

            // Softmax backward row-wise: dS = A ∘ (dA - rowsum(dA ∘ A)).
            for r in 0..s {
                let a_row = &ab[r * s..(r + 1) * s];
                let da_row = &da[r * s..(r + 1) * s];
                let dot: f32 = a_row.iter().zip(da_row).map(|(a, g)| a * g).sum();
                for c in 0..s {
                    ds[r * s + c] = a_row[c] * (da_row[c] - dot) * scale;
                }
            }

            // dQ = dS @ K; dK = dS^T @ Q.
            matmul(ds, kb, &mut dq[b * s * d..(b + 1) * s * d], s, s, d);
            transpose_into(ds, ds_t, s, s);
            matmul(ds_t, qb, &mut dk[b * s * d..(b + 1) * s * d], s, s, d);
        }

        // Projection gradients and input gradient.
        matmul_at_acc(dq, xs, &mut self.wq.grad, rows, d, d);
        matmul_at_acc(dk, xs, &mut self.wk.grad, rows, d, d);
        matmul_at_acc(dv, xs, &mut self.wv.grad, rows, d, d);

        // `dy` has been read for the last time: `dx` takes its place.
        if dy.shape() != [rows, d] {
            dy.reshape(vec![rows, d]).expect("length checked above");
        }
        let dx = dy.as_mut_slice();
        dx.fill(0.0);
        for (grad, w) in [(&*dq, &self.wq), (&*dk, &self.wk), (&*dv, &self.wv)] {
            matmul(grad, &w.value, tmp, rows, d, d);
            ops::add_assign(dx, tmp);
        }
        dy
    }

    fn visit_params(&self, f: &mut dyn FnMut(&Param)) {
        f(&self.wq);
        f(&self.wk);
        f(&self.wv);
        f(&self.wo);
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
    }

    fn name(&self) -> &'static str {
        "self-attention"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::bits;
    use cloudtrain_tensor::init::rng_from_seed;

    #[test]
    fn attention_rows_mix_within_sequence_only() {
        let mut rng = rng_from_seed(1);
        let mut attn = SelfAttention::new(4, 2, &mut rng);
        // Two batches of two tokens; perturbing batch 0 must not affect
        // batch 1 outputs.
        let mut x = init::uniform_tensor(4 * 4, -1.0, 1.0, &mut rng);
        x.reshape(vec![4, 4]).unwrap();
        let y0 = attn.forward(x.clone(), true);
        let mut x2 = x.clone();
        x2.as_mut_slice()[0] += 1.0; // token 0 of batch 0
        let y1 = attn.forward(x2, true);
        // Batch 0 rows change...
        assert_ne!(&y0.as_slice()[..8], &y1.as_slice()[..8]);
        // ...batch 1 rows do not.
        assert_eq!(&y0.as_slice()[8..], &y1.as_slice()[8..]);
    }

    #[test]
    fn gradcheck_all_projections_and_input() {
        let mut rng = rng_from_seed(2);
        let mut attn = SelfAttention::new(3, 2, &mut rng);
        let mut x = init::uniform_tensor(2 * 2 * 3, -1.0, 1.0, &mut rng);
        x.reshape(vec![4, 3]).unwrap();

        let y = attn.forward(x.clone(), true);
        let dx = attn.backward(y);

        let eps = 1e-3;
        let loss = |a: &mut SelfAttention, x: &Tensor| -> f32 {
            let y = a.forward(x.clone(), true);
            y.as_slice().iter().map(|v| v * v).sum::<f32>() / 2.0
        };

        // Input gradient.
        for idx in [0usize, 4, 11] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let lp = loss(&mut attn, &xp);
            xp.as_mut_slice()[idx] -= 2.0 * eps;
            let lm = loss(&mut attn, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - numeric).abs() < 0.05 * numeric.abs().max(0.2),
                "dx[{idx}]: {} vs {numeric}",
                dx.as_slice()[idx]
            );
        }

        // One coordinate of each projection. Re-run fwd/bwd to refresh
        // parameter gradients (they were consumed above).
        let grads: Vec<f32> = {
            let mut attn2 = SelfAttention::new(3, 2, &mut rng_from_seed(2));
            let y = attn2.forward(x.clone(), true);
            let _ = attn2.backward(y);
            let mut all = Vec::new();
            attn2.visit_params(&mut |p| all.push(p.grad[2]));
            all
        };
        let mut fresh = SelfAttention::new(3, 2, &mut rng_from_seed(2));
        for (pi, analytic) in grads.iter().enumerate() {
            let probe = |a: &mut SelfAttention, delta: f32| {
                let mut i = 0;
                a.visit_params_mut(&mut |p| {
                    if i == pi {
                        p.value[2] += delta;
                    }
                    i += 1;
                });
            };
            probe(&mut fresh, eps);
            let lp = loss(&mut fresh, &x);
            probe(&mut fresh, -2.0 * eps);
            let lm = loss(&mut fresh, &x);
            probe(&mut fresh, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 0.05 * numeric.abs().max(0.2),
                "param {pi}[2]: {analytic} vs {numeric}"
            );
        }
    }

    fn random_rows(rows: usize, d: usize, rng: &mut StdRng) -> Tensor {
        let mut x = init::uniform_tensor(rows * d, -1.0, 1.0, rng);
        x.reshape(vec![rows, d]).unwrap();
        x
    }

    /// A fresh layer (empty scratch) with `attn`'s parameters.
    fn fresh_twin(attn: &SelfAttention) -> SelfAttention {
        let mut twin = SelfAttention::new(attn.dim, attn.seq, &mut rng_from_seed(0));
        for (dst, src) in [
            (&mut twin.wq, &attn.wq),
            (&mut twin.wk, &attn.wk),
            (&mut twin.wv, &attn.wv),
            (&mut twin.wo, &attn.wo),
        ] {
            dst.value.copy_from_slice(&src.value);
        }
        twin
    }

    fn grads(attn: &SelfAttention) -> Vec<Vec<u32>> {
        let mut all = Vec::new();
        attn.visit_params(&mut |p| all.push(bits(&p.grad)));
        all
    }

    /// One layer driven train b = 8 → eval b = 64 → train → a smaller
    /// batch equals a fresh layer bit for bit at every step: the reused
    /// scratch (the accumulator `dv` included) carries nothing over.
    #[test]
    fn reused_scratch_matches_a_fresh_layer_at_every_step() {
        let mut rng = rng_from_seed(10);
        let (d, s) = (16, 16);
        let mut attn = SelfAttention::new(d, s, &mut rng);
        for (train, b) in [(true, 8usize), (false, 64), (true, 8), (true, 3)] {
            let mut fresh = fresh_twin(&attn);
            let x = random_rows(b * s, d, &mut rng);
            let y = attn.forward(x.clone(), train);
            let y_fresh = fresh.forward(x, train);
            assert_eq!(bits(y.as_slice()), bits(y_fresh.as_slice()));
            if !train {
                assert!(attn.x.is_none());
                continue;
            }
            let dy = random_rows(b * s, d, &mut rng);
            let dx = attn.backward(dy.clone());
            let dx_fresh = fresh.backward(dy);
            assert_eq!(dx.shape(), dx_fresh.shape());
            assert_eq!(bits(dx.as_slice()), bits(dx_fresh.as_slice()));
            assert_eq!(grads(&attn), grads(&fresh));
            attn.visit_params_mut(&mut |p| p.zero_grad());
        }
    }

    #[test]
    fn steady_state_allocates_no_scratch() {
        let mut rng = rng_from_seed(11);
        let (d, s) = (16, 16);
        let mut attn = SelfAttention::new(d, s, &mut rng);
        let mut step = |attn: &mut SelfAttention, b: usize| {
            let y = attn.forward(random_rows(b * s, d, &mut rng), true);
            // `dx` is written over the consumed `dy`.
            let at = y.as_slice().as_ptr();
            assert_eq!(attn.backward(y).as_slice().as_ptr(), at);
            let t = &attn.scratch;
            [
                &t.q, &t.k, &t.v, &t.attn, &t.o, &t.d_o, &t.dq, &t.dk, &t.dv, &t.tmp, &t.da, &t.ds,
                &t.ds_t,
            ]
            .map(|v| (v.as_ptr(), v.capacity()))
        };
        let first = step(&mut attn, 8);
        assert_eq!(step(&mut attn, 8), first);
        // A smaller batch fits in what is there.
        assert_eq!(step(&mut attn, 3), first);
        assert_eq!(step(&mut attn, 8), first);
        // The forward half is the working set of an evaluation forward too:
        // a 64-sample validation batch grows it once, and never again.
        let validation = Tensor::zeros(vec![64 * s, d]);
        let _ = attn.forward(validation.clone(), false);
        let grown = step(&mut attn, 8);
        let _ = attn.forward(validation, false);
        assert_eq!(step(&mut attn, 8), grown);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_without_forward_panics() {
        let mut attn = SelfAttention::new(2, 2, &mut rng_from_seed(12));
        attn.backward(Tensor::zeros(vec![2, 2]));
    }

    /// An evaluation forward overwrites `q`, `k`, `v` and the probabilities,
    /// so the training forward before it can no longer be differentiated.
    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_an_evaluation_forward_panics() {
        let mut attn = SelfAttention::new(2, 2, &mut rng_from_seed(13));
        let _ = attn.forward(Tensor::zeros(vec![2, 2]), true);
        let y = attn.forward(Tensor::zeros(vec![4, 2]), false);
        attn.backward(y);
    }

    #[test]
    fn attention_probabilities_sum_to_one() {
        let mut rng = rng_from_seed(3);
        let mut attn = SelfAttention::new(4, 3, &mut rng);
        let mut x = init::uniform_tensor(3 * 4, -1.0, 1.0, &mut rng);
        x.reshape(vec![3, 4]).unwrap();
        let _ = attn.forward(x, true);
        for row in attn.scratch.attn.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }
}
