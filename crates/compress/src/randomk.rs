//! Random-k sparsification: selects `k` coordinates uniformly at random,
//! ignoring magnitudes.
//!
//! Not used by the paper's system, but it is the standard convergence
//! control for sparsified SGD experiments — it isolates how much of top-k's
//! benefit comes from *magnitude-aware* selection versus mere traffic
//! reduction — and the ablation benches use it for exactly that.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{Compressor, SparseGrad};

/// Uniform random-k selection with a seeded RNG.
#[derive(Debug)]
pub struct RandomK {
    rng: StdRng,
}

impl RandomK {
    /// Creates a random-k compressor with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Compressor for RandomK {
    fn compress(&mut self, x: &[f32], k: usize) -> SparseGrad {
        let d = x.len();
        let k = k.min(d);
        if k == 0 {
            return SparseGrad::empty(d);
        }
        // Floyd's algorithm: k distinct indices in O(k) expected draws.
        #[expect(
            clippy::disallowed_types,
            reason = "hasher order is washed out by the sort_unstable on the next line before anything observes it"
        )]
        let mut chosen = std::collections::HashSet::with_capacity(k);
        for j in (d - k)..d {
            let t = self.rng.random_range(0..=j);
            if !chosen.insert(t as u32) {
                chosen.insert(j as u32);
            }
        }
        let mut indices: Vec<u32> = chosen.into_iter().collect();
        indices.sort_unstable();
        let values = indices.iter().map(|&i| x[i as usize]).collect();
        SparseGrad::new(values, indices, d)
    }

    fn name(&self) -> &'static str {
        "RandomK"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_k_distinct_indices() {
        let x: Vec<f32> = (0..1000).map(|i| i as f32).collect();
        let mut op = RandomK::new(42);
        for k in [0usize, 1, 10, 500, 1000] {
            let s = op.compress(&x, k);
            assert_eq!(s.len(), k);
            let mut idx = s.indices.clone();
            idx.dedup();
            assert_eq!(idx.len(), k);
        }
    }

    #[test]
    fn selection_is_roughly_uniform() {
        let x = vec![1.0f32; 100];
        let mut op = RandomK::new(7);
        let mut counts = vec![0usize; 100];
        for _ in 0..2000 {
            for &i in &op.compress(&x, 10).indices {
                counts[i as usize] += 1;
            }
        }
        // Expected 200 hits per coordinate; allow generous slack.
        assert!(counts.iter().all(|&c| c > 100 && c < 320), "{counts:?}");
    }

    #[test]
    fn k_ge_d_selects_everything() {
        let x = [5.0f32, 6.0, 7.0];
        let s = RandomK::new(1).compress(&x, 99);
        assert_eq!(s.indices, vec![0, 1, 2]);
        assert_eq!(s.values, vec![5.0, 6.0, 7.0]);
    }
}
