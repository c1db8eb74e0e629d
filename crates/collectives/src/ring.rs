//! Ring collectives over an arbitrary member subset.
//!
//! Every function runs over a [`Transport`] — a clean `Peer` or a
//! `ResilientPeer` charging each message against a fault plan — and takes a
//! `members` slice: the global ranks participating, in a fixed order shared
//! by all callers, the calling peer among them. Sub-communicators are
//! therefore just rank lists: the 2D-torus and hierarchical algorithms pass
//! "the GPUs of my node" or "the j-th GPU of every node".
//!
//! Chunking follows `cloudtrain_tensor::partition`: member `r` (by position
//! in `members`) ends a ReduceScatter owning shard `r`, matching Eq. (4) of
//! the paper where GPU `j` owns the `j`-th `d/n` segment.
//!
//! The dense ReduceScatter and AllGather move a hop's chunk as a lockstep
//! pipeline of [`ops::REDUCE_BLOCK`]-element pieces (DESIGN.md §6.6): the
//! receiver folds each piece in while it is still in cache, and no
//! shard-sized wire buffer ever exists. Piecing changes neither the member
//! schedule nor the order in which any element is reduced. Over a
//! `ResilientPeer` each piece is one message, so it is one fault draw.

use cloudtrain_compress::FoldSink;
use cloudtrain_tensor::ops;
use cloudtrain_tensor::partition::{shard_for, shards, Shard};

use crate::group::Transport;
use crate::scratch::CommScratch;

/// Elements per hop piece: one [`ops::REDUCE_BLOCK`] (256 KB of `f32`), so
/// a piece is still cache-resident when the receiver folds it in.
pub(crate) const HOP_PIECE: usize = ops::REDUCE_BLOCK;

/// Position of `rank` within `members`.
///
/// # Panics
/// Panics if `rank` is not a member — collectives must only be called by
/// participants.
pub(crate) fn member_index(members: &[usize], rank: usize) -> usize {
    members
        .iter()
        .position(|&m| m == rank)
        // lint:allow(panic_free, reason = "a rank outside its own member list is a schedule construction bug, documented in the Panics section above")
        .unwrap_or_else(|| panic!("rank {rank} is not in members {members:?}"))
}

/// Ring ReduceScatter over `members`: on return, `x` holds the fully
/// reduced values in this member's own shard (other positions of `x` hold
/// partial sums and must be treated as garbage). Returns the owned shard.
///
/// Cost: `P-1` steps, each transferring `d/P` elements — Eq. (7) with
/// per-byte volume `(P-1) d/P`.
pub fn ring_reduce_scatter<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    members: &[usize],
) -> Shard {
    ring_reduce_scatter_scratch(peer, x, members, &mut CommScratch::new())
}

/// [`ring_reduce_scatter`] drawing its send buffers from `scratch`.
///
/// A hop's chunk crosses the channel as pieces of [`ops::REDUCE_BLOCK`]
/// elements in lockstep: copy and send piece `i`, receive piece `i`, fold
/// it in. Each piece takes one pooled buffer and recycles the one it
/// received, so the pool's flow is balanced, steady-state iterations
/// allocate nothing, and the arena never holds more than piece-sized
/// buffers.
pub fn ring_reduce_scatter_scratch<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Shard {
    // Step s: send chunk (me - s - 1) mod p, receive and accumulate chunk
    // (me - s - 2) mod p. After p-1 steps this member fully owns chunk `me`.
    ring_pass_pieced(
        peer,
        x,
        members,
        scratch,
        HOP_PIECE,
        0,
        ops::add_assign,
        None,
    )
}

/// [`ring_reduce_scatter_scratch`] whose last hop lands in an error-feedback
/// residual: each arriving piece of this member's own chunk is folded as
/// `residual[j] += x[j] + piece[j]` with `x[j]` zeroed behind it, so the
/// reduced shard is never written to `x`. `residual` (this member's chunk
/// long) ends bitwise as `add_assign(residual, shard)` after the plain
/// ReduceScatter would leave it. The pass also drains what it sends: each
/// piece is zeroed right after its copy into the wire buffer, while it is
/// still in cache, so all of `x` — the shard through the fold, every other
/// chunk through the drain — comes back `+0.0`, ready for a sparse
/// AllGather to scatter into. On a ring of one the fold is local:
/// `residual += x`, `x` zeroed.
///
/// Given a `sink`, the last hop folds each piece through it instead — the
/// same additions, which the sink may sweep while the piece is in cache —
/// handing it the pieces of the residual in order. A ring of one has no
/// last hop and never calls the sink.
pub(crate) fn ring_reduce_scatter_ef<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    members: &[usize],
    residual: &mut [f32],
    scratch: &mut CommScratch,
    piece: usize,
    mut sink: Option<&mut dyn FoldSink>,
) -> Shard {
    if members.len() == 1 {
        ops::add_assign(residual, x);
        ops::fill(x, 0.0);
        return shard_for(x.len(), 1, 0);
    }
    ring_pass_pieced(
        peer,
        x,
        members,
        scratch,
        piece,
        0,
        ops::add_assign,
        Some(&mut |at, mine: &mut [f32], arrived: &[f32]| {
            let acc = &mut residual[at..at + mine.len()];
            match sink.as_deref_mut() {
                Some(sink) => sink.fold(at, acc, mine, arrived),
                None => ops::add_sum_drain(acc, mine, arrived),
            }
        }),
    )
}

/// Ring AllGather of sparse chunks over `members`: this member's chunk of
/// `x` has been assembled from the `(values, indices)` blocks — indices
/// relative to the chunk — and every other chunk of `x` must be `+0.0`.
/// Step `s` hands the blocks of chunk `(me - s) mod p` to the right-hand
/// neighbour by move and scatter-adds those of chunk `(me - s - 1) mod p`,
/// arriving from the left, block by block in order into its slot. The slot
/// thus sees the owner's own `+=` sequence from `+0.0`, so every chunk
/// comes out bitwise as its owner assembled it, `-0.0` included.
///
/// Nothing is copied: the blocks themselves travel, `2·blocks` messages per
/// hop. Returns the ones that arrived last — as many as the member brought,
/// so recycling them keeps the pool's flow balanced. Every member must
/// bring the same number of blocks.
pub(crate) fn ring_all_gather_blocks<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    members: &[usize],
    mut values: Vec<Vec<f32>>,
    mut indices: Vec<Vec<u32>>,
) -> (Vec<Vec<f32>>, Vec<Vec<u32>>) {
    let p = members.len();
    let me = member_index(members, peer.rank());
    let chunks = shards(x.len(), p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p.saturating_sub(1) {
        for (vals, idxs) in values.iter_mut().zip(&mut indices) {
            peer.send_f32(right, std::mem::take(vals));
            peer.send_u32(right, std::mem::take(idxs));
        }
        let slot = chunks[(me + 2 * p - s - 1) % p].slice_mut(x);
        for (vals, idxs) in values.iter_mut().zip(&mut indices) {
            *vals = peer.recv_f32(left);
            *idxs = peer.recv_u32(left);
            ops::scatter_add(slot, idxs, vals);
        }
    }
    (values, indices)
}

/// Ring AllGather over `members`: each member contributes its own shard of
/// `x` (shard `r` for member position `r`) and on return every member's `x`
/// holds all shards.
///
/// Cost: `P-1` steps of `d/P` elements each.
pub fn ring_all_gather<T: Transport + ?Sized>(peer: &T, x: &mut [f32], members: &[usize]) {
    ring_all_gather_scratch(peer, x, members, &mut CommScratch::new());
}

/// [`ring_all_gather`] drawing its send buffers from `scratch` (pieced
/// hops, take one, recycle one — see [`ring_reduce_scatter_scratch`]).
pub fn ring_all_gather_scratch<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) {
    // Step s: forward chunk (me - s) mod p, receive chunk (me - s - 1) mod p.
    ring_pass_pieced(
        peer,
        x,
        members,
        scratch,
        HOP_PIECE,
        1,
        <[f32]>::copy_from_slice,
        None,
    );
}

/// A fold for the last step of [`ring_pass_pieced`], told the piece's offset
/// within its chunk.
type LastFold<'a> = &'a mut dyn FnMut(usize, &mut [f32], &[f32]);

/// One pass around the ring, `piece` elements per message: step `s` sends
/// chunk `(me + lead - s - 1) mod p` to the right and `fold`s the chunk
/// before it, arriving from the left, into its slot of `x`. Given a `last`
/// fold, the last step folds with `last(at, slot, piece)` instead, `at`
/// being the piece's offset within its chunk, and each piece sent is zeroed
/// in `x` right after its copy into the wire buffer: the one pass with a
/// `last` fold is the EF ReduceScatter, which leaves `x` drained for a
/// sparse AllGather to scatter into. Returns this member's own shard.
///
/// Pieces partition a chunk, so whatever `piece` is, each element is folded
/// exactly once per step, in the step order of whole-chunk hops. Sends never
/// block (the channels are unbounded) and a piece is only sent once the
/// previous one has arrived, so no member runs more than `p - 1` pieces
/// ahead of another and at most that many buffers are in flight per link.
#[allow(clippy::too_many_arguments)]
fn ring_pass_pieced<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
    piece: usize,
    lead: usize,
    fold: impl Fn(&mut [f32], &[f32]),
    mut last: Option<LastFold<'_>>,
) -> Shard {
    let p = members.len();
    let me = member_index(members, peer.rank());
    let d = x.len();
    if p == 1 {
        return shard_for(d, 1, 0);
    }
    let chunks = shards(d, p);
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    // Counted on the longest chunk, ceil(d / p), so every member exchanges
    // the same number of pieces per step; a chunk one element shorter may
    // end with an empty piece.
    let pieces = d.div_ceil(p).div_ceil(piece);
    let drain = last.is_some();

    for s in 0..p - 1 {
        let send_idx = (me + lead + p - s - 1) % p;
        let recv_idx = (send_idx + p - 1) % p;
        for i in 0..pieces {
            let sent = chunks[send_idx].piece(i, piece);
            let send_chunk = scratch.copy_f32(sent.slice(x));
            if drain {
                ops::fill(sent.slice_mut(x), 0.0);
            }
            peer.send_f32(right, send_chunk);
            let recv = peer.recv_f32(left);
            let slot = chunks[recv_idx].piece(i, piece);
            match last.as_mut() {
                Some(last) if s + 2 == p => {
                    let at = slot.start - chunks[recv_idx].start;
                    last(at, slot.slice_mut(x), &recv);
                }
                _ => fold(slot.slice_mut(x), &recv),
            }
            scratch.put_f32(recv);
        }
    }
    chunks[me]
}

/// Ring AllReduce = ReduceScatter + AllGather. On return every member's `x`
/// holds the element-wise sum over all members.
pub fn ring_all_reduce<T: Transport + ?Sized>(peer: &T, x: &mut [f32], members: &[usize]) {
    ring_all_reduce_scratch(peer, x, members, &mut CommScratch::new());
}

/// [`ring_all_reduce`] drawing all per-hop buffers from `scratch`.
pub fn ring_all_reduce_scratch<T: Transport + ?Sized>(
    peer: &T,
    x: &mut [f32],
    members: &[usize],
    scratch: &mut CommScratch,
) {
    ring_reduce_scatter_scratch(peer, x, members, scratch);
    ring_all_gather_scratch(peer, x, members, scratch);
}

/// AllGather of variable payloads: every member contributes `mine` and
/// receives the concatenation of all members' payloads in member order.
///
/// This is the primitive behind the sparse AllGathers of Algorithm 2 (lines
/// 12–13), where each member contributes exactly `k` values and `k` indices.
/// Implemented as a ring pipeline: `P-1` steps forwarding the youngest
/// block.
pub fn all_gather_f32<T: Transport + ?Sized>(
    peer: &T,
    mine: &[f32],
    members: &[usize],
) -> Vec<Vec<f32>> {
    all_gather_f32_scratch(peer, mine, members, &mut CommScratch::new())
}

/// [`all_gather_f32`] drawing its block copies from `scratch`.
///
/// Ownership contract: the returned blocks belong to the caller; to keep
/// the pool balanced across iterations the caller should `put_f32` each
/// block back once consumed (the hierarchical collectives do).
pub fn all_gather_f32_scratch<T: Transport + ?Sized>(
    peer: &T,
    mine: &[f32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<Vec<f32>> {
    let p = members.len();
    let me = member_index(members, peer.rank());
    let mut blocks: Vec<Option<Vec<f32>>> = vec![None; p];
    blocks[me] = Some(scratch.copy_f32(mine));
    if p == 1 {
        // lint:allow(panic_free, reason = "single-member ring: the only block was filled on the previous line")
        return blocks.into_iter().map(Option::unwrap).collect();
    }
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + 2 * p - s - 1) % p;
        // Pooled copy instead of a per-hop clone: the forwarded block stays
        // in `blocks` for the caller while its copy rides the channel.
        // lint:allow(panic_free, reason = "the ring schedule fills block s before step s sends it; a hole is an unconditional schedule bug")
        let src = blocks[send_idx].as_deref().expect("ring schedule hole");
        let payload = scratch.copy_f32(src);
        peer.send_f32(right, payload);
        blocks[recv_idx] = Some(peer.recv_f32(left));
    }
    // lint:allow(panic_free, reason = "after p-1 ring steps every block has been received; a hole is an unconditional schedule bug")
    blocks.into_iter().map(Option::unwrap).collect()
}

/// AllGather of `(values, indices)` pairs in **one** ring pipeline.
///
/// The separate [`all_gather_f32`] + [`all_gather_u32`] idiom runs two
/// serialized `P-1`-hop pipelines over the same members — `2(P-1)` channel
/// round-trips for what is logically one block exchange. This primitive
/// frames each member's pair as a single `u32` payload
/// `[len, indices…, value-bits…]` (values ride as `f32::to_bits`
/// reinterpretations; no arithmetic ever touches the bit-cast words), so
/// the exchange costs `P-1` hops. Blocks come back split into owned
/// `(values, indices)` pairs in member order, bit-exact — downstream
/// consumers see exactly what the two-pipeline idiom would have produced.
///
/// Ownership contract as in [`all_gather_f32_scratch`]: the caller recycles
/// each returned pair (`put_f32` + `put_u32`) once consumed.
pub fn all_gather_pairs_scratch<T: Transport + ?Sized>(
    peer: &T,
    values: &[f32],
    indices: &[u32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<(Vec<f32>, Vec<u32>)> {
    assert_eq!(
        values.len(),
        indices.len(),
        "all_gather_pairs: values and indices must pair up"
    );
    let mine = frame_pair(values, indices, scratch);
    let framed = all_gather_u32_scratch(peer, &mine, members, scratch);
    scratch.put_u32(mine);
    framed
        .into_iter()
        .map(|block| unframe_pair(block, scratch))
        .collect()
}

/// Packs a `(values, indices)` pair into one `u32` frame:
/// `[len, indices…, value-bits…]`. The inverse of [`unframe_pair`].
/// The frame is taken from `scratch` at its full length, so a pooled
/// buffer too small for it counts as the miss it is.
pub(crate) fn frame_pair(values: &[f32], indices: &[u32], scratch: &mut CommScratch) -> Vec<u32> {
    let len = values.len();
    debug_assert_eq!(len, indices.len(), "frame_pair: unpaired entries");
    let mut frame = scratch.take_u32(1 + 2 * len);
    let words = std::iter::once(len as u32)
        .chain(indices.iter().copied())
        .chain(values.iter().map(|v| v.to_bits()));
    for (slot, w) in frame.iter_mut().zip(words) {
        *slot = w;
    }
    frame
}

/// Unpacks a frame built by [`frame_pair`] into buffers taken at the
/// frame's length, recycling the frame buffer.
pub(crate) fn unframe_pair(block: Vec<u32>, scratch: &mut CommScratch) -> (Vec<f32>, Vec<u32>) {
    let len = block.first().map_or(0, |&w| w as usize);
    let mut idxs = scratch.take_u32(len);
    let mut vals = scratch.take_f32(len);
    let mut words = block.iter().skip(1);
    for (i, w) in idxs.iter_mut().zip(words.by_ref()) {
        *i = *w;
    }
    for (v, w) in vals.iter_mut().zip(words) {
        *v = f32::from_bits(*w);
    }
    scratch.put_u32(block);
    (vals, idxs)
}

/// AllGather of index payloads (see [`all_gather_f32`]).
pub fn all_gather_u32<T: Transport + ?Sized>(
    peer: &T,
    mine: &[u32],
    members: &[usize],
) -> Vec<Vec<u32>> {
    all_gather_u32_scratch(peer, mine, members, &mut CommScratch::new())
}

/// [`all_gather_u32`] drawing its block copies from `scratch` (ownership
/// contract as in [`all_gather_f32_scratch`]).
pub fn all_gather_u32_scratch<T: Transport + ?Sized>(
    peer: &T,
    mine: &[u32],
    members: &[usize],
    scratch: &mut CommScratch,
) -> Vec<Vec<u32>> {
    let p = members.len();
    let me = member_index(members, peer.rank());
    let mut blocks: Vec<Option<Vec<u32>>> = vec![None; p];
    blocks[me] = Some(scratch.copy_u32(mine));
    if p == 1 {
        // lint:allow(panic_free, reason = "single-member ring: the only block was filled on the previous line")
        return blocks.into_iter().map(Option::unwrap).collect();
    }
    let right = members[(me + 1) % p];
    let left = members[(me + p - 1) % p];
    for s in 0..p - 1 {
        let send_idx = (me + p - s) % p;
        let recv_idx = (me + 2 * p - s - 1) % p;
        // lint:allow(panic_free, reason = "the ring schedule fills block s before step s sends it; a hole is an unconditional schedule bug")
        let src = blocks[send_idx].as_deref().expect("ring schedule hole");
        let payload = scratch.copy_u32(src);
        peer.send_u32(right, payload);
        blocks[recv_idx] = Some(peer.recv_u32(left));
    }
    // lint:allow(panic_free, reason = "after p-1 ring steps every block has been received; a hole is an unconditional schedule bug")
    blocks.into_iter().map(Option::unwrap).collect()
}

/// The whole-chunk hop loops the pieced primitives replaced: one message
/// per hop, however long the chunk. Kept as the oracle the pieced loops
/// must equal bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use crate::group::Peer;

    pub(crate) fn reduce_scatter(peer: &Peer, x: &mut [f32], members: &[usize]) -> Shard {
        let p = members.len();
        let me = member_index(members, peer.rank());
        if p == 1 {
            return shard_for(x.len(), 1, 0);
        }
        let chunks = shards(x.len(), p);
        let right = members[(me + 1) % p];
        let left = members[(me + p - 1) % p];
        for s in 0..p - 1 {
            let send_chunk = chunks[(me + p - s - 1) % p].slice(x).to_vec();
            peer.send_f32(right, send_chunk);
            let recv = peer.recv_f32(left);
            ops::add_assign(chunks[(me + 2 * p - s - 2) % p].slice_mut(x), &recv);
        }
        chunks[me]
    }

    pub(crate) fn all_gather(peer: &Peer, x: &mut [f32], members: &[usize]) {
        let p = members.len();
        let me = member_index(members, peer.rank());
        if p == 1 {
            return;
        }
        let chunks = shards(x.len(), p);
        let right = members[(me + 1) % p];
        let left = members[(me + p - 1) % p];
        for s in 0..p - 1 {
            let send_chunk = chunks[(me + p - s) % p].slice(x).to_vec();
            peer.send_f32(right, send_chunk);
            let recv = peer.recv_f32(left);
            chunks[(me + 2 * p - s - 1) % p]
                .slice_mut(x)
                .copy_from_slice(&recv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{run_on_group, Peer};
    use cloudtrain_tensor::init;
    use proptest::prelude::*;

    /// Per-rank deterministic test vector.
    fn vec_for(rank: usize, d: usize) -> Vec<f32> {
        let mut rng = init::rng_from_seed(1000 + rank as u64);
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
    fn all_reduce_matches_sequential_sum() {
        for (p, d) in [(2usize, 10usize), (4, 37), (8, 64), (3, 5)] {
            let members: Vec<usize> = (0..p).collect();
            let expect = expected_sum(p, d);
            let results = run_on_group(p, |peer| {
                let mut x = vec_for(peer.rank(), d);
                ring_all_reduce(peer, &mut x, &members);
                x
            });
            for (r, x) in results.iter().enumerate() {
                assert!(
                    ops::approx_eq(x, &expect, 1e-4),
                    "p={p} d={d} rank {r} diverged"
                );
            }
        }
    }

    #[test]
    fn all_reduce_is_bitwise_identical_across_ranks() {
        let p = 8;
        let d = 1000;
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce(peer, &mut x, &members);
            x
        });
        for r in 1..p {
            assert_eq!(results[0], results[r], "rank {r} differs bitwise");
        }
    }

    #[test]
    fn reduce_scatter_owns_correct_shard() {
        let p = 4;
        let d = 26; // non-divisible: shards of 7,7,6,6
        let members: Vec<usize> = (0..p).collect();
        let expect = expected_sum(p, d);
        let results = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            let shard = ring_reduce_scatter(peer, &mut x, &members);
            (shard, x)
        });
        for (r, (shard, x)) in results.iter().enumerate() {
            assert_eq!(*shard, shard_for(d, p, r));
            assert!(
                ops::approx_eq(shard.slice(x), shard.slice(&expect), 1e-4),
                "rank {r} shard wrong"
            );
        }
    }

    #[test]
    fn all_gather_reconstructs_vector() {
        let p = 4;
        let d = 26;
        let members: Vec<usize> = (0..p).collect();
        // Start from a known full vector; each rank zeroes everything except
        // its shard, then AllGather must reconstruct the whole.
        let full: Vec<f32> = (0..d).map(|i| i as f32).collect();
        let results = run_on_group(p, |peer| {
            let mut x = vec![0.0; d];
            let s = shard_for(d, p, peer.rank());
            s.slice_mut(&mut x).copy_from_slice(s.slice(&full));
            ring_all_gather(peer, &mut x, &members);
            x
        });
        for x in &results {
            assert_eq!(*x, full);
        }
    }

    #[test]
    fn subset_collectives_leave_non_members_untouched() {
        let p = 6;
        let d = 12;
        let members = vec![1usize, 3, 5];
        let results = run_on_group(p, |peer| {
            let mut x = vec![peer.rank() as f32; d];
            if members.contains(&peer.rank()) {
                ring_all_reduce(peer, &mut x, &members);
            }
            x
        });
        let expect_sum = vec![(1 + 3 + 5) as f32; d];
        for &m in &members {
            assert_eq!(results[m], expect_sum);
        }
        for r in [0usize, 2, 4] {
            assert_eq!(results[r], vec![r as f32; d]);
        }
    }

    #[test]
    fn variable_all_gather_returns_blocks_in_member_order() {
        let p = 3;
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mine = vec![peer.rank() as f32; peer.rank() + 1];
            all_gather_f32(peer, &mine, &members)
        });
        for blocks in &results {
            assert_eq!(blocks.len(), 3);
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(*b, vec![r as f32; r + 1]);
            }
        }
    }

    #[test]
    fn u32_all_gather_matches() {
        let p = 4;
        let members: Vec<usize> = (0..p).collect();
        let results = run_on_group(p, |peer| {
            let mine = vec![peer.rank() as u32 * 10, peer.rank() as u32 * 10 + 1];
            all_gather_u32(peer, &mine, &members)
        });
        for blocks in &results {
            for (r, b) in blocks.iter().enumerate() {
                assert_eq!(*b, vec![r as u32 * 10, r as u32 * 10 + 1]);
            }
        }
    }

    #[test]
    fn scratch_variants_are_bitwise_identical_to_plain() {
        let (p, d) = (4usize, 53usize);
        let members: Vec<usize> = (0..p).collect();
        let plain = run_on_group(p, |peer| {
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce(peer, &mut x, &members);
            let blocks = all_gather_f32(peer, &x[..5], &members);
            let idx = all_gather_u32(peer, &[peer.rank() as u32; 3], &members);
            (x, blocks, idx)
        });
        let scratched = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            ring_all_reduce_scratch(peer, &mut x, &members, &mut scratch);
            let blocks = all_gather_f32_scratch(peer, &x[..5], &members, &mut scratch);
            let idx =
                all_gather_u32_scratch(peer, &[peer.rank() as u32; 3], &members, &mut scratch);
            (x, blocks, idx)
        });
        assert_eq!(plain, scratched);
    }

    #[test]
    fn ring_collectives_reach_zero_miss_steady_state() {
        let (p, d) = (4usize, 26usize);
        let members: Vec<usize> = (0..p).collect();
        let miss_growth = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let mut x = vec_for(peer.rank(), d);
            // Warmup iteration populates the pool...
            ring_all_reduce_scratch(peer, &mut x, &members, &mut scratch);
            let warm = scratch.misses();
            // ...after which further iterations must not allocate at all.
            for round in 0..3 {
                let mut y = vec_for(10 * round + peer.rank(), d);
                ring_all_reduce_scratch(peer, &mut y, &members, &mut scratch);
            }
            (warm, scratch.misses())
        });
        for (r, (warm, total)) in miss_growth.iter().enumerate() {
            assert!(*warm > 0, "rank {r}: warmup should allocate");
            assert_eq!(total, warm, "rank {r}: steady state allocated");
        }
    }

    #[test]
    fn variable_gather_pool_balances_when_blocks_are_recycled() {
        let (p, k) = (3usize, 8usize);
        let members: Vec<usize> = (0..p).collect();
        let miss_growth = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let payload = vec![peer.rank() as f32; k];
            let warm = {
                let blocks = all_gather_f32_scratch(peer, &payload, &members, &mut scratch);
                for b in blocks {
                    scratch.put_f32(b);
                }
                scratch.misses()
            };
            for _ in 0..3 {
                let blocks = all_gather_f32_scratch(peer, &payload, &members, &mut scratch);
                for b in blocks {
                    scratch.put_f32(b);
                }
            }
            (warm, scratch.misses())
        });
        for (warm, total) in &miss_growth {
            assert_eq!(total, warm, "recycled gathers must not re-allocate");
        }
    }

    /// A frame outgrowing the pooled buffer it is cut from is an
    /// allocation, and the arena counts it; its unpacked halves are taken
    /// at the frame's length too, and the round trip is bit-exact.
    #[test]
    fn framing_counts_the_buffers_it_grows() {
        let values: Vec<f32> = (0..20).map(|i| i as f32 - 7.5).collect();
        let indices: Vec<u32> = (0..20).map(|i| 3 * i).collect();
        let mut scratch = CommScratch::new();
        scratch.put_u32(Vec::with_capacity(16));
        let frame = frame_pair(&values, &indices, &mut scratch);
        assert_eq!(frame.len(), 41);
        assert_eq!(scratch.u32_stats().misses, 1, "a 41-word frame in 16 words");

        scratch.put_f32(Vec::with_capacity(16));
        scratch.put_u32(Vec::with_capacity(16));
        let (vals, idxs) = unframe_pair(frame, &mut scratch);
        assert_eq!((bits(&vals), idxs), (bits(&values), indices));
        assert_eq!(scratch.f32_stats().misses, 1, "20 values in 16 words");
        assert_eq!(scratch.u32_stats().misses, 2, "20 indices in 16 words");
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The two public primitives' passes, at a chosen piece size.
    fn reduce_scatter_pieced(
        peer: &Peer,
        x: &mut [f32],
        members: &[usize],
        scratch: &mut CommScratch,
        piece: usize,
    ) -> Shard {
        ring_pass_pieced(peer, x, members, scratch, piece, 0, ops::add_assign, None)
    }

    fn all_gather_pieced(
        peer: &Peer,
        x: &mut [f32],
        members: &[usize],
        scratch: &mut CommScratch,
        piece: usize,
    ) {
        ring_pass_pieced(
            peer,
            x,
            members,
            scratch,
            piece,
            1,
            <[f32]>::copy_from_slice,
            None,
        );
    }

    /// Runs ReduceScatter, the AllGather that completes it into an
    /// AllReduce, and an AllGather of untouched per-rank vectors through
    /// both the pieced loops and the whole-chunk reference on every rank,
    /// and requires every element of every rank's vector — unowned partial
    /// sums included — to agree `to_bits` for `to_bits`.
    fn assert_pieced_equals_reference(p: usize, d: usize, piece: usize) {
        let members: Vec<usize> = (0..p).collect();
        run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let what = format!("p={p} d={d} piece={piece} rank {}", peer.rank());

            let (mut got, mut want) = (vec_for(peer.rank(), d), vec_for(peer.rank(), d));
            let shard = reduce_scatter_pieced(peer, &mut got, &members, &mut scratch, piece);
            assert_eq!(shard, reference::reduce_scatter(peer, &mut want, &members));
            assert_eq!(bits(&got), bits(&want), "reduce-scatter, {what}");

            all_gather_pieced(peer, &mut got, &members, &mut scratch, piece);
            reference::all_gather(peer, &mut want, &members);
            assert_eq!(bits(&got), bits(&want), "all-reduce, {what}");

            let (mut got, mut want) = (vec_for(7 + peer.rank(), d), vec_for(7 + peer.rank(), d));
            all_gather_pieced(peer, &mut got, &members, &mut scratch, piece);
            reference::all_gather(peer, &mut want, &members);
            assert_eq!(bits(&got), bits(&want), "all-gather, {what}");

            // Take one, recycle one: whatever the piece count, one buffer
            // per rank circulates.
            assert!(scratch.pooled() <= 1, "{what}: {scratch:?}");
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn pieced_hops_match_whole_chunk_hops_bitwise(
            p in 1usize..6,
            d in 0usize..258,
            piece in 1usize..20,
        ) {
            assert_pieced_equals_reference(p, d, piece);
        }
    }

    #[test]
    fn chunks_with_different_piece_counts_stay_in_lockstep() {
        // d = p·piece + 1: chunk 0 is one element — one whole piece — longer
        // than the rest. On three or more members a rank can send and
        // receive short chunks in a hop where its neighbour handles the
        // long one; all of them must still exchange the same piece count.
        for (p, piece) in [(2usize, 4usize), (3, 4), (5, 3), (4, 1)] {
            assert_pieced_equals_reference(p, p * piece + 1, piece);
        }
    }

    #[test]
    fn degenerate_shapes_survive_piecing() {
        // Fewer elements than members (empty chunks), nothing at all, a
        // ring of one, and a piece longer than the whole vector.
        for (p, d, piece) in [
            (4usize, 3usize, 2usize),
            (5, 1, 1),
            (3, 0, 4),
            (1, 9, 2),
            (3, 10, 64),
        ] {
            assert_pieced_equals_reference(p, d, piece);
        }
    }

    #[test]
    fn public_primitives_piece_at_the_reduce_block() {
        // Long enough that each chunk spans two full pieces and a tail at
        // the shipped piece size.
        let (p, d) = (2usize, 2 * (2 * HOP_PIECE + 5) + 1);
        let members: Vec<usize> = (0..p).collect();
        let pooled = run_on_group(p, |peer| {
            let mut scratch = CommScratch::new();
            let (mut got, mut want) = (vec_for(peer.rank(), d), vec_for(peer.rank(), d));
            ring_all_reduce_scratch(peer, &mut got, &members, &mut scratch);
            reference::reduce_scatter(peer, &mut want, &members);
            reference::all_gather(peer, &mut want, &members);
            assert_eq!(bits(&got), bits(&want), "rank {}", peer.rank());
            scratch.pooled_bytes()
        });
        for bytes in pooled {
            assert_eq!(
                bytes,
                4 * HOP_PIECE,
                "arena must hold one piece, not a shard"
            );
        }
    }

    #[test]
    fn ef_reduce_scatter_drains_all_of_x() {
        // Every chunk comes back +0.0 — the owned one through the fold into
        // the residual, the others through the drain behind each send —
        // and the residual ends as `residual + shard` of the whole-chunk
        // ReduceScatter. A -0.0 input must come back as +0.0 too.
        for p in 1usize..=4 {
            for (d, piece) in [
                (p - 1, 3),
                (2 * p + 1, HOP_PIECE),
                (7 * p + 1, 3),
                (11 * p + p / 2, 3),
            ] {
                let members: Vec<usize> = (0..p).collect();
                run_on_group(p, |peer| {
                    let what = format!("p={p} d={d} piece={piece} rank {}", peer.rank());
                    let mut scratch = CommScratch::new();
                    let mut x = vec_for(peer.rank(), d);
                    if let Some(first) = x.first_mut() {
                        *first = -0.0;
                    }
                    let mut reduced = x.clone();
                    let shard = reference::reduce_scatter(peer, &mut reduced, &members);
                    let mut residual = vec_for(50 + peer.rank(), shard.len());
                    let mut want = residual.clone();
                    ops::add_assign(&mut want, shard.slice(&reduced));

                    let got = ring_reduce_scatter_ef(
                        peer,
                        &mut x,
                        &members,
                        &mut residual,
                        &mut scratch,
                        piece,
                        None,
                    );
                    assert_eq!(got, shard, "{what}");
                    assert_eq!(bits(&residual), bits(&want), "residual, {what}");
                    assert!(x.iter().all(|v| v.to_bits() == 0), "x not +0.0, {what}");
                });
            }
        }
    }

    #[test]
    fn block_all_gather_scatters_every_chunk_as_its_owner_did() {
        // Each member assembles its own chunk from the same three blocks —
        // overlapping, one empty, one cancelling to +0.0 — and forwards
        // them; every member must end with every chunk bitwise as its owner
        // built it, handed back the blocks of the last chunk it received.
        for (p, d) in [(1usize, 9usize), (2, 17), (3, 3), (4, 41)] {
            let members: Vec<usize> = (0..p).collect();
            let chunks = shards(d, p);
            // Multiples of 6 cancel to +0.0 (or stay 0.0 + -0.0 = +0.0).
            let blocks_of = |c: usize| -> (Vec<Vec<f32>>, Vec<Vec<u32>>) {
                let len = chunks[c].len() as u32;
                let every = |step: u32, sign: f32| -> (Vec<f32>, Vec<u32>) {
                    let idxs: Vec<u32> = (0..len).filter(|i| i % step == 0).collect();
                    let vals = idxs.iter().map(|&i| sign * (c as f32 + i as f32)).collect();
                    (vals, idxs)
                };
                let (halves, thirds) = (every(2, 1.0), every(3, -1.0));
                (
                    vec![halves.0, Vec::new(), thirds.0],
                    vec![halves.1, Vec::new(), thirds.1],
                )
            };
            let mut want = vec![0.0f32; d];
            for (c, chunk) in chunks.iter().enumerate() {
                let (vals, idxs) = blocks_of(c);
                for (v, i) in vals.iter().zip(&idxs) {
                    ops::scatter_add(chunk.slice_mut(&mut want), i, v);
                }
            }
            let results = run_on_group(p, |peer| {
                let me = peer.rank();
                let (vals, idxs) = blocks_of(me);
                let mut x = vec![0.0f32; d];
                for (v, i) in vals.iter().zip(&idxs) {
                    ops::scatter_add(chunks[me].slice_mut(&mut x), i, v);
                }
                let last = ring_all_gather_blocks(peer, &mut x, &members, vals, idxs);
                (bits(&x), last)
            });
            for (me, (x, last)) in results.into_iter().enumerate() {
                assert_eq!(x, bits(&want), "p={p} d={d}");
                assert!(last == blocks_of((me + 1) % p), "p={p} d={d} rank {me}");
            }
        }
    }

    #[test]
    fn single_member_collectives_are_identity() {
        let results = run_on_group(1, |peer| {
            let mut x = vec![1.0, 2.0];
            ring_all_reduce(peer, &mut x, &[0]);
            let blocks = all_gather_f32(peer, &x, &[0]);
            (x, blocks)
        });
        assert_eq!(results[0].0, vec![1.0, 2.0]);
        assert_eq!(results[0].1, vec![vec![1.0, 2.0]]);
    }
}
