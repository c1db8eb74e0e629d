//! 2D-Torus AllReduce ("2DTAR", Mikami et al. 2018; Cho et al. 2019) — the
//! paper's strongest dense baseline.
//!
//! The cluster is viewed as an `m × n` grid (m nodes, n GPUs per node;
//! rank = node * n + gpu). The AllReduce decomposes into three phases that
//! keep the bulk of the traffic on the fast intra-node links:
//!
//! 1. intra-node ring ReduceScatter (n GPUs, NVLink),
//! 2. inter-node ring AllReduce of each GPU's shard (m nodes, Ethernet) —
//!    n of these run concurrently, one per GPU index,
//! 3. intra-node ring AllGather (n GPUs, NVLink).
//!
//! Only phase 2 crosses the slow links, and it moves `d/n` elements per
//! GPU instead of `d`.

use cloudtrain_tensor::partition::shard_for;

use crate::group::Transport;
use crate::ring::{ring_all_gather, ring_all_reduce, ring_reduce_scatter};

/// Grid coordinates of a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPos {
    /// Node index `i` in `[0, m)`.
    pub node: usize,
    /// GPU index `j` within the node, in `[0, n)`.
    pub gpu: usize,
}

/// Splits `rank` into grid coordinates for an `m × n` grid.
///
/// # Panics
/// Panics if `rank >= m * n`.
pub fn grid_pos(rank: usize, m: usize, n: usize) -> GridPos {
    assert!(rank < m * n, "rank {rank} outside {m}x{n} grid");
    GridPos {
        node: rank / n,
        gpu: rank % n,
    }
}

/// Ranks of all GPUs in node `i` (the intra-node ring).
pub fn intra_node_members(i: usize, n: usize) -> Vec<usize> {
    (0..n).map(|j| i * n + j).collect()
}

/// Ranks of GPU `j` across all nodes (the inter-node ring / communication
/// stream `j`).
pub fn inter_node_members(j: usize, m: usize, n: usize) -> Vec<usize> {
    (0..m).map(|i| i * n + j).collect()
}

/// 2D-Torus AllReduce over the full `m × n` group: on return every rank's
/// `x` holds the element-wise sum over all `m * n` ranks.
///
/// Over a `ResilientPeer` this is the dense baseline under the retry
/// ladder: dense traffic never degrades, so the sum is exact whatever the
/// fault plan, and the peer's report shows what the BSP barrier paid.
///
/// # Panics
/// Panics if the group size is not `m * n`.
pub fn torus_all_reduce<T: Transport + ?Sized>(peer: &T, x: &mut [f32], m: usize, n: usize) {
    assert_eq!(peer.size(), m * n, "torus_all_reduce: group is not m*n");
    let pos = grid_pos(peer.rank(), m, n);
    let intra = intra_node_members(pos.node, n);
    let inter = inter_node_members(pos.gpu, m, n);

    // Phase 1: intra-node ReduceScatter. This GPU ends owning shard `gpu`.
    let shard = ring_reduce_scatter(peer, x, &intra);
    debug_assert_eq!(shard, shard_for(x.len(), n, pos.gpu));

    // Phase 2: inter-node AllReduce of the owned shard (stream `gpu`).
    ring_all_reduce(peer, shard.slice_mut(x), &inter);

    // Phase 3: intra-node AllGather reassembles the full vector.
    ring_all_gather(peer, x, &intra);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::run_on_group;
    use cloudtrain_tensor::{init, ops};

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(3000 + rank as u64);
        init::uniform_tensor(d, -1.0, 1.0, &mut rng).into_vec()
    }

    fn expected_sum(p: usize, d: usize) -> Vec<f32> {
        let mut acc = vec![0.0; d];
        for r in 0..p {
            ops::add_assign(&mut acc, &vec_for(r, d));
        }
        acc
    }

    #[test]
    fn torus_matches_sequential_sum() {
        for (m, n, d) in [
            (2usize, 2usize, 16usize),
            (2, 4, 37),
            (4, 2, 100),
            (3, 3, 50),
        ] {
            let p = m * n;
            let expect = expected_sum(p, d);
            let results = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                torus_all_reduce(peer, &mut x, m, n);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert!(
                    ops::approx_eq(x, &expect, 1e-4),
                    "m={m} n={n} d={d} rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn all_ranks_agree_bitwise() {
        let (m, n, d) = (4, 4, 999);
        let results = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            torus_all_reduce(peer, &mut x, m, n);
            x
        });
        for r in 1..m * n {
            assert_eq!(results[0], results[r]);
        }
    }

    #[test]
    fn grid_helpers() {
        assert_eq!(grid_pos(11, 4, 8), GridPos { node: 1, gpu: 3 });
        assert_eq!(intra_node_members(2, 4), vec![8, 9, 10, 11]);
        assert_eq!(inter_node_members(3, 4, 8), vec![3, 11, 19, 27]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_rank_panics() {
        grid_pos(8, 2, 4);
    }

    #[test]
    fn degenerate_grids() {
        // 1 node: torus degenerates to intra RS + intra AG (inter ring is 1).
        let results = run_on_group(4, |peer| {
            let mut x = vec![1.0f32; 8];
            torus_all_reduce(peer, &mut x, 1, 4);
            x
        });
        assert_eq!(results[0], vec![4.0; 8]);
        // 1 GPU per node: pure inter-node ring.
        let results = run_on_group(4, |peer| {
            let mut x = vec![1.0f32; 8];
            torus_all_reduce(peer, &mut x, 4, 1);
            x
        });
        assert_eq!(results[0], vec![4.0; 8]);
    }
}
