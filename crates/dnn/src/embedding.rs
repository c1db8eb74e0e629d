//! Token and positional embeddings for the Transformer.

use cloudtrain_tensor::{init, Tensor};
use rand::rngs::StdRng;

use crate::layer::Param;

/// Learned token embedding plus learned positional embedding:
/// `[batch, seq]` token ids → `[batch * seq, dim]` vectors.
///
/// Not a [`crate::Layer`] — its input is integer tokens, so the Transformer
/// model drives it directly.
#[derive(Debug)]
pub struct Embedding {
    /// Token table `[vocab, dim]`.
    pub tokens: Param,
    /// Positional table `[max_len, dim]`.
    pub positions: Param,
    vocab: usize,
    dim: usize,
    max_len: usize,
    /// Ids of the last training lookup (a reused buffer) ...
    cached_ids: Vec<u32>,
    /// ... and its sequence length, until backward consumes it.
    cached_len: Option<usize>,
}

impl Embedding {
    /// Creates embedding tables with N(0, 0.02) init (the Transformer
    /// convention).
    pub fn new(vocab: usize, dim: usize, max_len: usize, rng: &mut StdRng) -> Self {
        let mut tok = vec![0.0; vocab * dim];
        init::fill_normal(&mut tok, 0.0, 0.02, rng);
        let mut pos = vec![0.0; max_len * dim];
        init::fill_normal(&mut pos, 0.0, 0.02, rng);
        Self {
            tokens: Param::new("embed.tokens", tok),
            positions: Param::new("embed.positions", pos),
            vocab,
            dim,
            max_len,
            cached_ids: Vec::new(),
            cached_len: None,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Looks up `ids` (batch-major, `seq_len` tokens per row). Only a
    /// `train` lookup records what [`Embedding::backward`] needs.
    ///
    /// # Panics
    /// Panics if a token id is out of vocabulary or the sequence exceeds
    /// `max_len`.
    pub fn forward(&mut self, ids: &[u32], seq_len: usize, train: bool) -> Tensor {
        assert!(seq_len <= self.max_len, "Embedding: sequence too long");
        assert_eq!(ids.len() % seq_len, 0, "Embedding: ragged batch");
        let rows = ids.len();
        let mut out = Tensor::zeros(vec![rows, self.dim]);
        for (r, &id) in ids.iter().enumerate() {
            assert!(
                (id as usize) < self.vocab,
                "Embedding: token {id} out of vocab"
            );
            let tok = &self.tokens.value[id as usize * self.dim..(id as usize + 1) * self.dim];
            let pos_idx = r % seq_len;
            let pos = &self.positions.value[pos_idx * self.dim..(pos_idx + 1) * self.dim];
            let dst = &mut out.as_mut_slice()[r * self.dim..(r + 1) * self.dim];
            for ((d, t), p) in dst.iter_mut().zip(tok).zip(pos) {
                *d = t + p;
            }
        }
        self.cached_ids.clear();
        if train {
            self.cached_ids.extend_from_slice(ids);
        }
        self.cached_len = train.then_some(seq_len);
        out
    }

    /// Accumulates gradients for the rows of the last training lookup.
    ///
    /// # Panics
    /// Panics unless a training [`Embedding::forward`] came last.
    pub fn backward(&mut self, dy: &Tensor) {
        let seq_len = self
            .cached_len
            .take()
            .expect("Embedding: backward before forward");
        assert_eq!(dy.len(), self.cached_ids.len() * self.dim);
        for (r, &id) in self.cached_ids.iter().enumerate() {
            let g = &dy.as_slice()[r * self.dim..(r + 1) * self.dim];
            let tok = &mut self.tokens.grad[id as usize * self.dim..(id as usize + 1) * self.dim];
            for (t, v) in tok.iter_mut().zip(g) {
                *t += v;
            }
            let pos_idx = r % seq_len;
            let pos = &mut self.positions.grad[pos_idx * self.dim..(pos_idx + 1) * self.dim];
            for (p, v) in pos.iter_mut().zip(g) {
                *p += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudtrain_tensor::init::rng_from_seed;

    #[test]
    fn lookup_adds_token_and_position() {
        let mut rng = rng_from_seed(1);
        let mut e = Embedding::new(10, 4, 8, &mut rng);
        let out = e.forward(&[3, 7], 2, true);
        for i in 0..4 {
            assert_eq!(
                out.as_slice()[i],
                e.tokens.value[3 * 4 + i] + e.positions.value[i]
            );
            assert_eq!(
                out.as_slice()[4 + i],
                e.tokens.value[7 * 4 + i] + e.positions.value[4 + i]
            );
        }
    }

    #[test]
    fn backward_scatters_to_used_rows_only() {
        let mut rng = rng_from_seed(2);
        let mut e = Embedding::new(10, 2, 4, &mut rng);
        let _ = e.forward(&[5, 5], 2, true);
        let dy = Tensor::from_vec_1d(vec![1.0, 2.0, 3.0, 4.0]);
        e.backward(&dy);
        // Token 5 used twice: grads accumulate.
        assert_eq!(&e.tokens.grad[10..12], &[4.0, 6.0]);
        assert!(e.tokens.grad[..10].iter().all(|g| *g == 0.0));
        // Positions 0 and 1 each used once.
        assert_eq!(&e.positions.grad[0..2], &[1.0, 2.0]);
        assert_eq!(&e.positions.grad[2..4], &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn backward_after_an_evaluation_lookup_panics() {
        let mut rng = rng_from_seed(4);
        let mut e = Embedding::new(4, 2, 4, &mut rng);
        let _ = e.forward(&[1, 2], 2, true);
        let _ = e.forward(&[3, 3, 3, 3], 2, false);
        e.backward(&Tensor::zeros(vec![2, 2]));
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn oov_token_panics() {
        let mut rng = rng_from_seed(3);
        let mut e = Embedding::new(4, 2, 4, &mut rng);
        e.forward(&[4], 1, true);
    }
}
