//! Contiguous range partitioning of a `d`-element vector over `P` workers.
//!
//! Three subsystems share this indexing scheme and must agree on it exactly:
//!
//! * ring **ReduceScatter** assigns shard `j` to GPU `j` (Eq. 4 of the paper),
//! * **HiTopKComm** runs MSTopK on each GPU's ReduceScatter shard (Eq. 5),
//! * the **parallel tensor operator** partitions a replicated tensor over
//!   workers (Eq. 13).
//!
//! The scheme: the first `d % P` shards get `ceil(d / P)` elements and the
//! rest get `floor(d / P)`, so shard sizes differ by at most one and
//! concatenating the shards in rank order reconstructs the vector.

/// Half-open range `[start, end)` of a shard within a flat vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// First element index (inclusive).
    pub start: usize,
    /// One past the last element index (exclusive).
    pub end: usize,
}

impl Shard {
    /// Number of elements in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The `i`-th `len`-element piece of the shard: the last piece may be
    /// short, and pieces past the end are empty.
    pub fn piece(&self, i: usize, len: usize) -> Shard {
        let start = self.end.min(self.start + i * len);
        Shard {
            start,
            end: self.end.min(start + len),
        }
    }

    /// Borrows the shard's elements from a flat slice.
    pub fn slice<'a>(&self, x: &'a [f32]) -> &'a [f32] {
        &x[self.start..self.end]
    }

    /// Mutably borrows the shard's elements from a flat slice.
    pub fn slice_mut<'a>(&self, x: &'a mut [f32]) -> &'a mut [f32] {
        &mut x[self.start..self.end]
    }
}

/// Returns the shard owned by `rank` when a `d`-element vector is split over
/// `parts` workers.
///
/// # Panics
/// Panics if `parts == 0` or `rank >= parts`.
pub fn shard_for(d: usize, parts: usize, rank: usize) -> Shard {
    assert!(parts > 0, "shard_for: parts must be positive");
    assert!(
        rank < parts,
        "shard_for: rank {rank} out of range for {parts} parts"
    );
    let base = d / parts;
    let extra = d % parts;
    let start = rank * base + rank.min(extra);
    let len = base + usize::from(rank < extra);
    Shard {
        start,
        end: start + len,
    }
}

/// All `parts` shards in rank order.
pub fn shards(d: usize, parts: usize) -> Vec<Shard> {
    (0..parts).map(|r| shard_for(d, parts, r)).collect()
}

/// Partitions `count` items (e.g. model layers) over `parts` workers and
/// returns the item range owned by `rank` — the layer assignment used by
/// PTO-LARS ("the first GPU calculates 1 to 2 layers' learning rates, ...").
pub fn item_range_for(count: usize, parts: usize, rank: usize) -> std::ops::Range<usize> {
    let s = shard_for(count, parts, rank);
    s.start..s.end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_tile_the_vector() {
        for d in [0usize, 1, 7, 8, 100, 101] {
            for p in [1usize, 2, 3, 8] {
                let ss = shards(d, p);
                assert_eq!(ss.len(), p);
                assert_eq!(ss[0].start, 0);
                assert_eq!(ss[p - 1].end, d);
                for w in ss.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    #[test]
    fn shard_sizes_differ_by_at_most_one() {
        let ss = shards(103, 8);
        let min = ss.iter().map(Shard::len).min().unwrap();
        let max = ss.iter().map(Shard::len).max().unwrap();
        assert!(max - min <= 1);
        assert_eq!(ss.iter().map(Shard::len).sum::<usize>(), 103);
    }

    #[test]
    fn slicing_matches_ranges() {
        let x: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let s = shard_for(10, 3, 1);
        assert_eq!(s.slice(&x), &[4.0, 5.0, 6.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn pieces_tile_the_shard_and_run_empty_past_the_end() {
        let s = Shard { start: 4, end: 11 };
        let pieces: Vec<Shard> = (0..4).map(|i| s.piece(i, 3)).collect();
        let want = [(4, 7), (7, 10), (10, 11), (11, 11)];
        for (got, (start, end)) in pieces.iter().zip(want) {
            assert_eq!(*got, Shard { start, end });
        }
        assert_eq!(s.piece(0, 100), s);
    }

    #[test]
    fn layer_assignment_covers_all_layers() {
        // 161 ResNet-50 layers over 128 GPUs: first 33 GPUs get 2, rest get 1.
        let mut seen = [false; 161];
        for rank in 0..128 {
            for l in item_range_for(161, 128, rank) {
                assert!(!seen[l]);
                seen[l] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(item_range_for(161, 128, 0), 0..2);
        assert_eq!(item_range_for(161, 128, 127), 160..161);
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_out_of_range_panics() {
        shard_for(10, 2, 2);
    }
}
