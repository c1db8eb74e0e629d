//! Step (iii) of the O(k) sparse allreduce — balanced index partitioning
//! with split-and-merge reduction (Li & Hoefler, *Near-Optimal Sparse
//! Allreduce*, PPoPP 2022) — run by the sparse hierarchy's one body as
//! [`InterStep::SplitMerge`](crate::hierarchical::InterStep::SplitMerge).
//!
//! HiTopKComm's inter-node step is a sparse All**Gather**: every member
//! broadcasts its whole `k̃`-selection to the other `m-1` members, costing
//! `O(m·k̃)` wire bytes per member. Split-and-merge replaces it:
//!
//! 1. **Partition.** The shard's index space is split into `m` balanced,
//!    contiguous ranges, one owned by each inter-group member (in member
//!    order). Each member *splits* its selection by owner.
//! 2. **Split.** Each member sends partition `t` of its selection to member
//!    `t` — point-to-point, `O(k̃)` bytes total per member.
//! 3. **Merge.** Each member reduces the `m` partition lists it holds (its
//!    own plus `m-1` received) into a dense accumulator over its range, in
//!    member order, then extracts the surviving nonzeros in ascending index
//!    order — the *merged* list, at most `range · 1` and typically `≈ k̃`
//!    entries thanks to selection overlap.
//! 4. **AllGather.** One sparse AllGather of the (already reduced) merged
//!    lists hands every member the blocks step (iv) scatters.
//!
//! **Determinism contract.** For every index, contributions accumulate in
//! inter-member order — the same order the AllGather's scatter-accumulate
//! uses — so with the same compressor state the aggregated vector is
//! *bitwise identical* to HiTopKComm's. Only the wire schedule (and hence
//! the byte accounting) differs. The merged lists cover disjoint ranges and
//! step (iv) scatters them into a `+0.0` shard, so a member's merged length
//! is the count of non-zeros in its owner range of the output.

use cloudtrain_compress::SparseGrad;
use cloudtrain_tensor::partition::{shards, Shard};

use crate::group::Transport;
use crate::hierarchical::pair_wire_bytes;
use crate::ring::{all_gather_pairs_scratch, frame_pair, member_index, unframe_pair};
use crate::scratch::CommScratch;

/// Owner ordinal of shard-relative index `idx` under the balanced
/// contiguous partition `ranges`.
fn owner_of(ranges: &[Shard], idx: usize) -> usize {
    ranges.partition_point(|r| r.end <= idx)
}

/// The entries of `indices` — strictly ascending, as every selection's
/// are — that owner `t` holds under `ranges`: one contiguous run.
fn owned_run(indices: &[u32], ranges: &[Shard], t: usize) -> std::ops::Range<usize> {
    let owned_before = |t| indices.partition_point(|&i| owner_of(ranges, i as usize) < t);
    owned_before(t)..owned_before(t + 1)
}

/// Accumulates one partition list into the dense accumulator over
/// `my_range`.
fn merge_into_range(acc: &mut [f32], my_range: Shard, vals: &[f32], idxs: &[u32]) {
    for (v, i) in vals.iter().zip(idxs) {
        let off = *i as usize - my_range.start;
        acc[off] += v;
    }
}

/// The merge step, whatever the transport: accumulates the partition lists
/// for `my_range` in member order — this member's own run of `selection`
/// at ordinal `me_ord`, every other ordinal's framed list as `recv(t)`
/// delivers it, recycled once added — and extracts the merged nonzeros in
/// ascending index order. Per index this is the same member-order
/// accumulation the hitopk scatter performs — the bitwise-identity hinge.
/// Returns `(merged_vals, merged_idxs)`, both scratch-backed, indices
/// shard-relative.
fn merge_and_extract(
    selection: &SparseGrad,
    me_ord: usize,
    ranges: &[Shard],
    mut recv: impl FnMut(usize) -> Vec<u32>,
    scratch: &mut CommScratch,
) -> (Vec<f32>, Vec<u32>) {
    let my_range = ranges[me_ord];
    let mut acc = scratch.take_f32(my_range.len());
    // Entries merged, an upper bound on the non-zeros: only a coordinate
    // some run names can turn non-zero.
    let mut entries = 0;
    for t in 0..ranges.len() {
        if t == me_ord {
            let own = owned_run(&selection.indices, ranges, t);
            let (vals, idxs) = (&selection.values[own.clone()], &selection.indices[own]);
            merge_into_range(&mut acc, my_range, vals, idxs);
            entries += idxs.len();
        } else {
            let (vals, idxs) = unframe_pair(recv(t), scratch);
            merge_into_range(&mut acc, my_range, &vals, &idxs);
            entries += idxs.len();
            scratch.put_f32(vals);
            scratch.put_u32(idxs);
        }
    }
    let mut merged_vals = scratch.take_f32(entries);
    let mut merged_idxs = scratch.take_u32(entries);
    let mut merged = 0;
    for (off, v) in acc.iter().enumerate() {
        if *v != 0.0 {
            merged_vals[merged] = *v;
            merged_idxs[merged] = (my_range.start + off) as u32;
            merged += 1;
        }
    }
    merged_vals.truncate(merged);
    merged_idxs.truncate(merged);
    scratch.put_f32(acc);
    (merged_vals, merged_idxs)
}

/// Split → merge → AllGather over whichever transport the caller holds.
/// `selection` is this member's (possibly empty) shard-relative
/// contribution over a `shard_len`-element shard; `inter` fixes both the
/// member order of the reduction and the partition ownership. Returns the
/// gathered merged lists as value and index blocks in member order — each
/// strictly ascending, their ranges disjoint — for step (iv) to scatter,
/// and the bytes attributed to this member: its split partitions plus its
/// merged list's broadcast to the `q - 1` others, values and indices each
/// ([`pair_wire_bytes`]).
pub(crate) fn split_merge<T: Transport + ?Sized>(
    peer: &T,
    shard_len: usize,
    selection: &SparseGrad,
    inter: &[usize],
    scratch: &mut CommScratch,
) -> (Vec<Vec<f32>>, Vec<Vec<u32>>, usize) {
    let q = inter.len();
    let me_ord = member_index(inter, peer.rank());
    let ranges = shards(shard_len, q);

    // Split: send member `t` the run of the selection it owns
    // (non-blocking sends, so every member can post all q-1 sends before
    // its first receive — deadlock-free without any ordering between
    // groups).
    let mut split_entries_sent = 0;
    for t in (0..q).filter(|&t| t != me_ord) {
        let run = owned_run(&selection.indices, &ranges, t);
        split_entries_sent += run.len();
        let frame = frame_pair(
            &selection.values[run.clone()],
            &selection.indices[run],
            scratch,
        );
        peer.send_u32(inter[t], frame);
    }

    let (merged_vals, merged_idxs) = merge_and_extract(
        selection,
        me_ord,
        &ranges,
        |t| peer.recv_u32(inter[t]),
        scratch,
    );
    let wire_bytes =
        pair_wire_bytes(split_entries_sent) + pair_wire_bytes(merged_vals.len()) * (q - 1);

    // AllGather of the merged (already reduced) lists. Ranges are
    // disjoint, so scattering them writes each coordinate exactly once.
    let blocks = all_gather_pairs_scratch(peer, &merged_vals, &merged_idxs, inter, scratch);
    scratch.put_f32(merged_vals);
    scratch.put_u32(merged_idxs);
    let (value_blocks, index_blocks) = blocks.into_iter().unzip();
    (value_blocks, index_blocks, wire_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{run_on_group, Peer};
    use crate::hierarchical::{
        group_wire_bytes, hitopk_all_reduce, hitopk_all_reduce_ef, shard_k, HiTopKReport, InterStep,
    };
    use crate::resilience::{CommFaults, ResiliencePolicy, ResilientPeer};
    use crate::torus::grid_pos;
    use cloudtrain_compress::exact::SortTopK;
    use cloudtrain_compress::{Compressor, ErrorFeedback, MsTopK};
    use cloudtrain_tensor::init;
    use cloudtrain_tensor::partition::shard_for;

    const STEP: InterStep = InterStep::SplitMerge;

    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(14_000 + rank as u64);
        init::gradient_like_tensor(d, &mut rng).into_vec()
    }

    fn shard_len(d: usize, n: usize, rank: usize) -> usize {
        shard_for(d, n, rank % n).len()
    }

    /// A plain O(k) run: the sparse hierarchy with split-and-merge over a
    /// fresh zero residual and a fresh arena.
    fn ok_sparse<C: Compressor + ?Sized>(
        peer: &Peer,
        x: &mut [f32],
        m: usize,
        n: usize,
        rho: f64,
        c: &mut C,
    ) -> HiTopKReport {
        let mut ef = ErrorFeedback::new(shard_len(x.len(), n, peer.rank()));
        hitopk_all_reduce_ef(
            peer,
            x,
            m,
            n,
            rho,
            STEP,
            c,
            &mut ef,
            &mut CommScratch::new(),
        )
    }

    /// `rank`'s merged-list length, read from the aggregated output: the
    /// non-zeros of its owner range within its shard.
    fn merged_len(x: &[f32], m: usize, n: usize, rank: usize) -> usize {
        let pos = grid_pos(rank, m, n);
        let shard = shard_for(x.len(), n, pos.gpu);
        let owned = shards(shard.len(), m)[pos.node];
        let nonzero = |v: &&f32| **v != 0.0;
        owned.slice(shard.slice(x)).iter().filter(nonzero).count()
    }

    /// `(m, n, d, rho)` grids both bitwise tests run: regular shapes, then
    /// the degenerate ones — shards shorter than `m` (empty owner ranges),
    /// `d < n` (empty shards), `d = 1` and a single node.
    const SHAPES: [(usize, usize, usize, f64); 8] = [
        (2, 4, 300, 0.05),
        (4, 2, 257, 0.1),
        (3, 2, 128, 0.2),
        (2, 2, 31, 0.5),
        (4, 2, 5, 0.5),
        (2, 4, 3, 0.5),
        (2, 2, 1, 0.5),
        (1, 3, 50, 0.2),
    ];

    /// The determinism contract: same compressor state → bitwise identical
    /// aggregate to the hitopk twin (only the wire schedule differs).
    #[test]
    fn matches_hitopk_bitwise() {
        for (m, n, d, rho) in SHAPES {
            let hitopk = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let rep = hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
                (x, rep.shard_nonzeros)
            });
            let oksparse = run_on_group(m * n, |peer| {
                let mut x = vec_for(peer.rank(), d);
                let mut c = MsTopK::new(25, peer.rank() as u64);
                let rep = ok_sparse(peer, &mut x, m, n, rho, &mut c);
                assert!(rep.shard_nonzeros >= 1 || shard_len(d, n, peer.rank()) == 0);
                (x, rep.shard_nonzeros)
            });
            assert_eq!(hitopk, oksparse, "m={m} n={n} d={d}: schedules diverged");
        }
    }

    #[test]
    fn ef_matches_hitopk_ef_bitwise_over_rounds() {
        for (m, n, d, rho) in SHAPES {
            let run = |step: InterStep| {
                run_on_group(m * n, move |peer| {
                    let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                    let mut c = SortTopK;
                    let mut scratch = CommScratch::new();
                    let mut out = Vec::new();
                    for round in 0..3 {
                        let mut x = vec_for(100 * round + peer.rank(), d);
                        let (c, ef, scratch) = (&mut c, &mut ef, &mut scratch);
                        hitopk_all_reduce_ef(peer, &mut x, m, n, rho, step, c, ef, scratch);
                        out.push(x);
                    }
                    (out, ef.residual().to_vec())
                })
            };
            let run_hitopk = run(InterStep::AllGatherPairs);
            let run_oksparse = run(STEP);
            assert_eq!(run_hitopk, run_oksparse, "m={m} n={n} d={d}");
        }
    }

    /// Gradients in the regime sparse training targets: a shared set of
    /// structural heavy coordinates (the same layer positions are large on
    /// every node) plus small per-rank noise, so node selections largely
    /// coincide.
    fn heavy_hitter_vec(rank: usize, d: usize) -> Vec<f32> {
        let mut v = vec_for(rank, d);
        let heavies = d / 10;
        for j in 0..heavies {
            let i = (j * 613) % d;
            let sign = if j % 2 == 0 { 1.0 } else { -1.0 };
            v[i] += sign * 10.0 * ((j % 7) as f32 + 1.0);
        }
        v
    }

    /// The point of the schedule: past two nodes, with overlapping
    /// selections split-and-merge moves fewer inter-node bytes than
    /// hitopk's selection broadcast.
    #[test]
    fn beats_hitopk_traffic_from_three_nodes() {
        let (n, d, rho) = (2usize, 480usize, 0.05f64);
        for m in [3usize, 4, 6] {
            let pairs = run_on_group(m * n, move |peer| {
                let mut x = heavy_hitter_vec(peer.rank(), d);
                let mut c = SortTopK;
                let ok = ok_sparse(peer, &mut x, m, n, rho, &mut c);
                let mut y = heavy_hitter_vec(peer.rank(), d);
                let hi = hitopk_all_reduce(peer, &mut y, m, n, rho, &mut c);
                (ok, hi)
            });
            for (r, (ok, hi)) in pairs.iter().enumerate() {
                assert!(
                    ok.inter_bytes_sent < hi.inter_bytes_sent,
                    "m={m} rank {r}: O(k) sent {} >= hitopk's {}",
                    ok.inter_bytes_sent,
                    hi.inter_bytes_sent
                );
            }
        }
    }

    #[test]
    fn report_byte_accounting_is_exact() {
        let (m, n, d, rho) = (4usize, 2usize, 400usize, 0.1f64);
        let reports = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            let rep = ok_sparse(peer, &mut x, m, n, rho, &mut c);
            (rep, merged_len(&x, m, n, peer.rank()))
        });
        let k = shard_k(d, n, rho);
        for (rep, merged_len) in &reports {
            assert_eq!(rep.k_per_shard, k);
            // Split sends at most the whole selection; merged entries are at
            // most the range, at least ceil(k/m) when selections collide.
            assert!(
                rep.inter_bytes_sent <= pair_wire_bytes(k) + pair_wire_bytes(*merged_len) * (m - 1)
            );
            assert!(*merged_len >= 1);
            assert!(rep.shard_nonzeros <= m * k);
        }
    }

    /// `pair_wire_bytes` and `group_wire_bytes` agree on identical traffic,
    /// so O(k) and hitopk byte reports are directly comparable.
    #[test]
    fn wire_byte_helpers_agree() {
        let sel = SparseGrad {
            values: vec![1.0; 7],
            indices: (0..7).collect(),
            dim: 64,
        };
        for g in 1..6 {
            assert_eq!(
                group_wire_bytes(&sel, g),
                pair_wire_bytes(sel.values.len()) * g.saturating_sub(1)
            );
        }
    }

    #[test]
    fn resilient_clean_plan_is_bitwise_identical_to_plain() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..2 {
                let mut x = vec_for(60 * round + peer.rank(), d);
                hitopk_all_reduce_ef(peer, &mut x, m, n, rho, STEP, &mut c, &mut ef, &mut scratch);
                out.push(x);
            }
            (out, ef.residual().to_vec())
        });
        let resilient = run_on_group(m * n, |peer| {
            let rp = ResilientPeer::new(peer, CommFaults::new(7), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut out = Vec::new();
            for round in 0..2 {
                let mut x = vec_for(60 * round + peer.rank(), d);
                hitopk_all_reduce_ef(&rp, &mut x, m, n, rho, STEP, &mut c, &mut ef, &mut scratch);
                out.push(x);
            }
            (out, ef.residual().to_vec())
        });
        assert_eq!(plain, resilient);
    }

    #[test]
    fn hostile_faults_keep_replicas_identical_and_mass_in_residuals() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let faults = CommFaults::new(11).with_drops(0.2).straggle(5, 0.9);
        let results = run_on_group(m * n, move |peer| {
            let rp = ResilientPeer::new(peer, faults.clone(), ResiliencePolicy::default());
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            let mut c = SortTopK;
            let mut scratch = CommScratch::new();
            let mut x = Vec::new();
            for round in 0..3 {
                x = vec_for(60 * round + peer.rank(), d);
                hitopk_all_reduce_ef(&rp, &mut x, m, n, rho, STEP, &mut c, &mut ef, &mut scratch);
            }
            (x, ef.residual_norm(), rp.report())
        });
        for r in 1..m * n {
            assert_eq!(results[0].0, results[r].0, "rank {r} replica diverged");
        }
        // The straggler's degraded contributions stay in its residual.
        assert!(results[5].1 > 0.0, "straggler residual should hold mass");
        assert!(
            results.iter().any(|(_, _, rep)| rep.degraded_members > 0),
            "the plan should degrade someone"
        );
    }

    /// A caller-held arena, reused across rounds, hands back the bits a
    /// fresh arena per call does.
    #[test]
    fn reused_arena_is_bitwise_identical_to_fresh_ones() {
        let (m, n, d, rho) = (2usize, 4usize, 300usize, 0.05f64);
        let plain = run_on_group(m * n, |peer| {
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut out = Vec::new();
            for round in 0..3 {
                let mut x = vec_for(50 * round + peer.rank(), d);
                let rep = ok_sparse(peer, &mut x, m, n, rho, &mut c);
                out.push((x, rep));
            }
            out
        });
        let scratched = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = MsTopK::new(25, peer.rank() as u64);
            let mut out = Vec::new();
            for round in 0..3 {
                let mut x = vec_for(50 * round + peer.rank(), d);
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                let (c, ef, scratch) = (&mut c, &mut ef, &mut scratch);
                let rep = hitopk_all_reduce_ef(peer, &mut x, m, n, rho, STEP, c, ef, scratch);
                out.push((x, rep));
            }
            out
        });
        assert_eq!(plain, scratched);
    }

    #[test]
    fn reaches_zero_miss_steady_state() {
        let (m, n, d, rho) = (2usize, 4usize, 240usize, 0.05f64);
        let miss_growth = run_on_group(m * n, |peer| {
            let mut scratch = CommScratch::new();
            let mut c = SortTopK;
            let mut x = vec_for(peer.rank(), d);
            let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
            hitopk_all_reduce_ef(peer, &mut x, m, n, rho, STEP, &mut c, &mut ef, &mut scratch);
            let warm = scratch.misses();
            for round in 1..4 {
                let mut y = vec_for(50 * round + peer.rank(), d);
                let mut ef = ErrorFeedback::new(shard_len(d, n, peer.rank()));
                hitopk_all_reduce_ef(peer, &mut y, m, n, rho, STEP, &mut c, &mut ef, &mut scratch);
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(
                total, warm,
                "rank {r}: steady-state oksparse allocated communication buffers"
            );
        }
    }

    #[test]
    fn single_node_degenerates_gracefully() {
        let (m, n, d, rho) = (1usize, 4usize, 96usize, 0.2f64);
        let hitopk = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            hitopk_all_reduce(peer, &mut x, m, n, rho, &mut c);
            x
        });
        let oksparse = run_on_group(m * n, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let mut c = SortTopK;
            ok_sparse(peer, &mut x, m, n, rho, &mut c);
            x
        });
        assert_eq!(hitopk, oksparse);
    }

    #[test]
    fn owner_lookup_covers_ranges() {
        let ranges = shards(10, 3); // [0,4) [4,7) [7,10)
        assert_eq!(owner_of(&ranges, 0), 0);
        assert_eq!(owner_of(&ranges, 3), 0);
        assert_eq!(owner_of(&ranges, 4), 1);
        assert_eq!(owner_of(&ranges, 6), 1);
        assert_eq!(owner_of(&ranges, 7), 2);
        assert_eq!(owner_of(&ranges, 9), 2);
    }
}
