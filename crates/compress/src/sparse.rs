use cloudtrain_tensor::ops;

/// A sparsified gradient: `k` `(value, index)` pairs drawn from a dense
/// vector of dimension `dim`.
///
/// This is the unit of data moved by the sparse collectives: the paper
/// transmits the value vector and the index vector as two separate messages
/// (two All-Gathers, §3.2), so they are stored as parallel arrays rather
/// than an array of pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseGrad {
    /// Selected gradient values.
    pub values: Vec<f32>,
    /// Original coordinates of `values` within the dense vector, strictly
    /// ascending and unique in every selection a [`crate::Compressor`]
    /// returns.
    pub indices: Vec<u32>,
    /// Dimension of the dense vector the selection was taken from.
    pub dim: usize,
}

impl SparseGrad {
    /// Creates a sparse gradient from parallel value/index arrays.
    ///
    /// # Panics
    /// Panics if the arrays have different lengths.
    pub fn new(values: Vec<f32>, indices: Vec<u32>, dim: usize) -> Self {
        assert_eq!(
            values.len(),
            indices.len(),
            "SparseGrad: values and indices must be parallel arrays"
        );
        Self {
            values,
            indices,
            dim,
        }
    }

    /// An empty selection over a `dim`-element vector.
    pub fn empty(dim: usize) -> Self {
        Self {
            values: Vec::new(),
            indices: Vec::new(),
            dim,
        }
    }

    /// Number of selected elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no elements were selected.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Materialises the selection as a dense vector with zeros elsewhere —
    /// `TopK(x, k)` as defined in Eq. (2) of the paper.
    pub fn densify(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        ops::scatter_add(&mut out, &self.indices, &self.values);
        out
    }

    /// Adds this selection into an existing dense accumulator
    /// (`y[indices[i]] += values[i]`), the aggregation step of Algorithm 2.
    ///
    /// # Panics
    /// Panics if `y.len() != self.dim`.
    pub fn add_into(&self, y: &mut [f32]) {
        assert_eq!(y.len(), self.dim, "add_into: dimension mismatch");
        ops::scatter_add(y, &self.indices, &self.values);
    }

    /// Wire size in bytes: FP32 values plus 32-bit indices (the paper's `2k`
    /// elements per worker, §3.2).
    pub fn wire_bytes(&self) -> usize {
        self.values.len() * 4 + self.indices.len() * 4
    }

    /// Sum of |value| over the selection — the "captured mass", used to
    /// compare approximate selections against the exact top-k.
    pub fn abs_mass(&self) -> f32 {
        self.values.iter().map(|v| v.abs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn densify_places_values() {
        let s = SparseGrad::new(vec![5.0, -2.0], vec![1, 3], 5);
        assert_eq!(s.densify(), vec![0.0, 5.0, 0.0, -2.0, 0.0]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn add_into_accumulates() {
        let s = SparseGrad::new(vec![1.0, 2.0], vec![0, 2], 3);
        let mut y = vec![10.0, 10.0, 10.0];
        s.add_into(&mut y);
        s.add_into(&mut y);
        assert_eq!(y, vec![12.0, 10.0, 14.0]);
    }

    #[test]
    fn wire_bytes_counts_both_arrays() {
        let s = SparseGrad::new(vec![1.0; 10], vec![0; 10], 100);
        assert_eq!(s.wire_bytes(), 80);
    }

    #[test]
    fn abs_mass_sums_magnitudes() {
        let s = SparseGrad::new(vec![1.0, -3.0], vec![0, 1], 2);
        assert_eq!(s.abs_mass(), 4.0);
    }

    #[test]
    fn empty_selection() {
        let s = SparseGrad::empty(4);
        assert!(s.is_empty());
        assert_eq!(s.densify(), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "parallel arrays")]
    fn mismatched_arrays_panic() {
        SparseGrad::new(vec![1.0], vec![0, 1], 4);
    }
}
