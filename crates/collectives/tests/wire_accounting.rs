//! Wire-byte accounting of the sparse hierarchy.
//!
//! A hitopk call moves exactly the same inter-node traffic over a plain
//! `Peer` and over a clean-plan `ResilientPeer`. Both charge that traffic
//! through one shared helper
//! (`group_wire_bytes(selection, g) == pair_wire_bytes(k) * (g - 1)`), so
//! a divergence here means a variant grew its own byte math again.
//!
//! And for either step (iii), the bytes the reports claim are the bytes a
//! counting transport sees cross between nodes.

use std::cell::Cell;

use cloudtrain_collectives::group::{run_on_group, Transport};
use cloudtrain_collectives::hierarchical::{
    hitopk_all_reduce_ef, hitopk_all_reduce_ef_scratch, pair_wire_bytes, HiTopKReport, InterStep,
};
use cloudtrain_collectives::{CommFaults, CommScratch, Peer, ResiliencePolicy, ResilientPeer};
use cloudtrain_compress::exact::SortTopK;
use cloudtrain_compress::ErrorFeedback;
use cloudtrain_tensor::{init, partition};

const M: usize = 3;
const N: usize = 2;
const D: usize = 252;
const RHO: f64 = 0.1;

fn vec_for(rank: usize, d: usize) -> Vec<f32> {
    let mut rng = init::rng_from_seed(26_000 + rank as u64);
    init::gradient_like_tensor(d, &mut rng).into_vec()
}

fn shard_len(rank: usize) -> usize {
    partition::shards(D, N)[rank % N].len()
}

/// Runs one EF round of a hitopk variant on the standard payloads and
/// returns each rank's report.
type Variant = dyn Fn(
        &cloudtrain_collectives::Peer,
        &mut [f32],
        &mut SortTopK,
        &mut ErrorFeedback,
        &mut CommScratch,
    ) -> HiTopKReport
    + Sync;

fn reports_of(f: &Variant) -> Vec<HiTopKReport> {
    run_on_group(M * N, move |peer| {
        let mut x = vec_for(peer.rank(), D);
        let mut c = SortTopK;
        let mut ef = ErrorFeedback::new(shard_len(peer.rank()));
        let mut scratch = CommScratch::new();
        f(peer, &mut x, &mut c, &mut ef, &mut scratch)
    })
}

#[test]
fn all_hitopk_variants_report_identical_wire_bytes_for_identical_traffic() {
    let staged = reports_of(&|peer, x, c, ef, scratch| {
        hitopk_all_reduce_ef_scratch(peer, x, M, N, RHO, c, ef, scratch)
    });
    let resilient = reports_of(&|peer, x, c, ef, scratch| {
        let rp = ResilientPeer::new(peer, CommFaults::new(7), ResiliencePolicy::default());
        hitopk_all_reduce_ef_scratch(&rp, x, M, N, RHO, c, ef, scratch)
    });
    assert_eq!(
        resilient, staged,
        "the resilient run disagrees with the staged report"
    );

    // The shared helper is the single source of the byte math: every rank
    // selects exactly k̃ entries under error feedback, and the inter phase
    // gathers them across the m-member node group.
    for rep in &staged {
        assert_eq!(
            rep.inter_bytes_sent,
            pair_wire_bytes(rep.k_per_shard) * (M - 1),
            "staged report bytes disagree with pair_wire_bytes * (m - 1)"
        );
    }
}

/// A clean peer that sums the payload bytes this rank sends to ranks on
/// other nodes.
struct Counting<'a> {
    peer: &'a Peer,
    inter_node_bytes: Cell<usize>,
}

impl Counting<'_> {
    fn count(&self, to: usize, bytes: usize) {
        if to / N != self.peer.rank() / N {
            self.inter_node_bytes
                .set(self.inter_node_bytes.get() + bytes);
        }
    }
}

impl Transport for Counting<'_> {
    fn rank(&self) -> usize {
        self.peer.rank()
    }

    fn size(&self) -> usize {
        self.peer.size()
    }

    fn send_f32(&self, to: usize, data: Vec<f32>) {
        self.count(to, 4 * data.len());
        self.peer.send_f32(to, data);
    }

    fn send_u32(&self, to: usize, data: Vec<u32>) {
        self.count(to, 4 * data.len());
        self.peer.send_u32(to, data);
    }

    fn recv_f32(&self, from: usize) -> Vec<f32> {
        self.peer.recv_f32(from)
    }

    fn recv_u32(&self, from: usize) -> Vec<u32> {
        self.peer.recv_u32(from)
    }
}

#[test]
fn reported_inter_node_bytes_are_the_bytes_moved() {
    for step in [InterStep::AllGatherPairs, InterStep::SplitMerge] {
        // Per rank: (reported, moved).
        let bytes = run_on_group(M * N, |peer| {
            let counting = Counting {
                peer,
                inter_node_bytes: Cell::new(0),
            };
            let mut x = vec_for(peer.rank(), D);
            let mut ef = ErrorFeedback::new(shard_len(peer.rank()));
            let (c, ef, scratch) = (&mut SortTopK, &mut ef, &mut CommScratch::new());
            let rep = hitopk_all_reduce_ef(&counting, &mut x, M, N, RHO, step, c, ef, scratch);
            (rep.inter_bytes_sent, counting.inter_node_bytes.get())
        });
        // Split-and-merge frames each message as [len, indices, values]:
        // per group, M·(M-1) split frames and M·(M-1) ring forwards of the
        // merged lists, each with one 4-byte length word the reports do
        // not charge.
        let framing = match step {
            InterStep::AllGatherPairs => 0,
            InterStep::SplitMerge => 4 * 2 * M * (M - 1),
        };
        // Totals per inter-node group, not per rank: a ring forwards other
        // members' blocks, so a rank's report is attribution, not its own
        // sends.
        for gpu in 0..N {
            let group: Vec<usize> = (0..M).map(|node| node * N + gpu).collect();
            let reported: usize = group.iter().map(|&r| bytes[r].0).sum();
            let moved: usize = group.iter().map(|&r| bytes[r].1).sum();
            assert!(reported > 0, "{step:?} gpu {gpu}: nothing reported");
            assert_eq!(reported + framing, moved, "{step:?} gpu {gpu}");
        }
    }
}
