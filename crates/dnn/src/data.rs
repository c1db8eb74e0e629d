//! Deterministic synthetic datasets (the ImageNet / WMT17 substitutes).
//!
//! Convergence experiments need a task where (a) gradients are real, (b)
//! accuracy is measurable, and (c) every worker can generate its shard
//! reproducibly without a 150 GB download. Both generators are
//! class-conditional with controllable noise, so models genuinely have to
//! learn the class structure.

use cloudtrain_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::model::Input;

/// A labelled batch ready for [`crate::Model::forward`].
#[derive(Debug, Clone)]
pub struct Batch {
    /// Model input.
    pub input: Input,
    /// Per-row labels.
    pub labels: Vec<u32>,
}

/// Class-conditional image generator: each class has a fixed prototype
/// image; samples are the prototype plus Gaussian noise, deterministic in
/// `(seed, sample_index)`.
#[derive(Debug, Clone)]
pub struct SyntheticImages {
    prototypes: Vec<Vec<f32>>,
    classes: usize,
    channels: usize,
    res: usize,
    noise: f32,
    seed: u64,
}

impl SyntheticImages {
    /// Creates a generator for `classes` classes of `channels × res × res`
    /// images with the given noise level (higher = harder task).
    pub fn new(classes: usize, channels: usize, res: usize, noise: f32, seed: u64) -> Self {
        let dim = channels * res * res;
        let mut rng = StdRng::seed_from_u64(seed);
        let prototypes = (0..classes)
            .map(|_| init::uniform_tensor(dim, -1.0, 1.0, &mut rng).into_vec())
            .collect();
        Self {
            prototypes,
            classes,
            channels,
            res,
            noise,
            seed,
        }
    }

    /// Per-sample input dimension.
    pub fn dim(&self) -> usize {
        self.channels * self.res * self.res
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Writes the sample with global index `idx` into `out` and returns its
    /// label: the noise is drawn straight into `out` and the class prototype
    /// added there (`noise + proto` is `proto + noise` bit for bit) — no
    /// temporary per sample.
    fn sample_into(&self, idx: u64, out: &mut [f32]) -> u32 {
        let label = (idx % self.classes as u64) as u32;
        let mut rng = StdRng::seed_from_u64(self.seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        init::fill_normal(out, 0.0, self.noise, &mut rng);
        for (v, p) in out.iter_mut().zip(&self.prototypes[label as usize]) {
            *v += p;
        }
        label
    }

    /// Generates the sample with global index `idx` (deterministic).
    pub fn sample(&self, idx: u64) -> (Vec<f32>, u32) {
        let mut x = vec![0.0; self.dim()];
        let label = self.sample_into(idx, &mut x);
        (x, label)
    }

    /// The batch of the `n` samples `ids`, each generated in its slot of
    /// the batch buffer.
    fn collect(&self, n: usize, ids: impl Iterator<Item = u64>) -> Batch {
        let dim = self.dim();
        let mut data = vec![0.0; n * dim];
        let labels = ids
            .enumerate()
            .map(|(i, id)| self.sample_into(id, &mut data[i * dim..(i + 1) * dim]))
            .collect();
        let tensor = Tensor::from_vec(data, vec![n, self.channels, self.res, self.res])
            .expect("batch shape");
        Batch {
            input: Input::Dense(tensor),
            labels,
        }
    }

    /// Builds the batch of samples `[start, start + batch)`.
    pub fn batch(&self, start: u64, batch: usize) -> Batch {
        self.collect(batch, (start..).take(batch))
    }

    /// Builds a batch from explicit sample indices (for sharded sampling).
    pub fn batch_from_ids(&self, ids: &[u64]) -> Batch {
        self.collect(ids.len(), ids.iter().copied())
    }
}

/// Class-conditional token sequences: each class has a set of "marker"
/// tokens; a sample is mostly noise tokens with the class markers planted
/// at random positions. The model must learn to spot the markers.
#[derive(Debug, Clone)]
pub struct SyntheticSeq {
    classes: usize,
    vocab: usize,
    seq: usize,
    markers_per_class: usize,
    seed: u64,
}

impl SyntheticSeq {
    /// Creates a generator over a `vocab`-token vocabulary and length-`seq`
    /// sequences.
    ///
    /// # Panics
    /// Panics unless `vocab >= 2 * classes` (markers must be distinct from
    /// noise space).
    pub fn new(classes: usize, vocab: usize, seq: usize, seed: u64) -> Self {
        assert!(vocab >= 2 * classes, "SyntheticSeq: vocab too small");
        Self {
            classes,
            vocab,
            seq,
            markers_per_class: 3,
            seed,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Sequence length.
    pub fn seq_len(&self) -> usize {
        self.seq
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// Generates sample `idx`: `(token ids, label)`.
    pub fn sample(&self, idx: u64) -> (Vec<u32>, u32) {
        let label = (idx % self.classes as u64) as u32;
        let mut rng = StdRng::seed_from_u64(self.seed ^ idx.wrapping_mul(0xD1B5_4A32_D192_ED03));
        // Noise tokens come from the upper vocab range; the class marker is
        // token `label` (lower range), planted at a few random positions.
        let mut ids: Vec<u32> = (0..self.seq)
            .map(|_| rng.random_range(self.classes as u32..self.vocab as u32))
            .collect();
        for _ in 0..self.markers_per_class {
            let pos = rng.random_range(0..self.seq);
            ids[pos] = label;
        }
        (ids, label)
    }

    /// Builds the batch of samples `[start, start + batch)`.
    pub fn batch(&self, start: u64, batch: usize) -> Batch {
        let mut ids = Vec::with_capacity(batch * self.seq);
        let mut labels = Vec::with_capacity(batch);
        for i in 0..batch {
            let (x, y) = self.sample(start + i as u64);
            ids.extend_from_slice(&x);
            labels.push(y);
        }
        Batch {
            input: Input::Tokens {
                ids,
                seq_len: self.seq,
            },
            labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `SyntheticImages::sample` as it was before samples were generated in
    /// place: prototype clone, noise vector, add.
    fn reference_sample(g: &SyntheticImages, idx: u64) -> (Vec<f32>, u32) {
        let label = (idx % g.classes as u64) as u32;
        let mut rng = StdRng::seed_from_u64(g.seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut x = g.prototypes[label as usize].clone();
        let mut noise = vec![0.0; x.len()];
        init::fill_normal(&mut noise, 0.0, g.noise, &mut rng);
        for (v, n) in x.iter_mut().zip(&noise) {
            *v += n;
        }
        (x, label)
    }

    #[test]
    fn in_place_samples_match_the_reference_bitwise() {
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        // Odd and even sample lengths: Box–Muller fills two values a draw.
        for (channels, res, seed) in [(3usize, 16usize, 7u64), (1, 3, 8), (3, 8, 9)] {
            let g = SyntheticImages::new(10, channels, res, 0.6, seed);
            let ids = [0u64, 7, 13, 13, 1 << 40, u64::MAX];
            let mut expect = Vec::new();
            for &id in &ids {
                let (x_ref, label_ref) = reference_sample(&g, id);
                let (x, label) = g.sample(id);
                assert_eq!((bits(&x), label), (bits(&x_ref), label_ref));
                expect.extend(x_ref);
            }
            let batch = g.batch_from_ids(&ids);
            let Input::Dense(t) = &batch.input else {
                panic!()
            };
            assert_eq!(bits(t.as_slice()), bits(&expect));
            assert_eq!(batch.labels, ids.map(|id| (id % 10) as u32));

            let contiguous = g.batch(21, 5);
            let Input::Dense(t) = &contiguous.input else {
                panic!()
            };
            let expect: Vec<f32> = (21..26).flat_map(|id| reference_sample(&g, id).0).collect();
            assert_eq!(bits(t.as_slice()), bits(&expect));
            assert_eq!(contiguous.labels, vec![1, 2, 3, 4, 5]);
        }
    }

    #[test]
    fn images_are_deterministic_and_class_structured() {
        let g = SyntheticImages::new(4, 3, 8, 0.3, 7);
        let (a, la) = g.sample(10);
        let (b, lb) = g.sample(10);
        assert_eq!(a, b);
        assert_eq!(la, lb);
        // Same class, different samples: correlated but not identical.
        let (c, lc) = g.sample(14);
        assert_eq!(lc, 10 % 4);
        assert_ne!(a, c);
        // Samples of the same class are closer than cross-class samples.
        let dist =
            |x: &[f32], y: &[f32]| -> f32 { x.iter().zip(y).map(|(a, b)| (a - b).powi(2)).sum() };
        let (d, _) = g.sample(11); // different class
        assert!(dist(&a, &c) < dist(&a, &d));
    }

    #[test]
    fn image_batch_shapes() {
        let g = SyntheticImages::new(10, 3, 8, 0.2, 1);
        let b = g.batch(0, 5);
        let Input::Dense(t) = &b.input else { panic!() };
        assert_eq!(t.shape(), &[5, 3, 8, 8]);
        assert_eq!(b.labels, vec![0, 1, 2, 3, 4]);
        let b2 = g.batch_from_ids(&[3, 3, 7]);
        assert_eq!(b2.labels, vec![3, 3, 7]);
    }

    #[test]
    fn sequences_contain_their_class_marker() {
        let g = SyntheticSeq::new(4, 32, 16, 5);
        for idx in 0..20 {
            let (ids, label) = g.sample(idx);
            assert_eq!(ids.len(), 16);
            assert!(
                ids.contains(&label),
                "sample {idx} lacks marker {label}: {ids:?}"
            );
            assert!(ids.iter().all(|&t| (t as usize) < 32));
        }
    }

    #[test]
    fn seq_batch_shapes() {
        let g = SyntheticSeq::new(2, 16, 8, 3);
        let b = g.batch(4, 3);
        let Input::Tokens { ids, seq_len } = &b.input else {
            panic!()
        };
        assert_eq!(ids.len(), 24);
        assert_eq!(*seq_len, 8);
        assert_eq!(b.labels, vec![0, 1, 0]);
    }

    #[test]
    #[should_panic(expected = "vocab too small")]
    fn tiny_vocab_panics() {
        SyntheticSeq::new(10, 12, 8, 0);
    }
}
