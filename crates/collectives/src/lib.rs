//! In-process collective communication.
//!
//! This crate is the *correctness plane* of the reproduction: it implements
//! the communication algorithms the paper runs over NCCL — moving real bytes
//! between worker threads — so that every aggregation scheme can be tested
//! for bit-exactness against a sequential reference. (Its *performance*
//! twin, `cloudtrain-simnet`, charges simulated α–β time for the same
//! schedules.)
//!
//! Implemented collectives:
//!
//! * [`ring`] — ring ReduceScatter / AllGather / AllReduce over an arbitrary
//!   member subset (sub-communicators are just rank lists, which is how the
//!   hierarchical algorithms address "GPUs of one node" and "the j-th GPU of
//!   every node").
//! * [`tree`] — double-binary-tree AllReduce ("TreeAR", the NCCL baseline of
//!   Fig. 7).
//! * [`torus`] — 2D-Torus AllReduce ("2DTAR", Mikami et al. 2018): intra-row
//!   ReduceScatter, inter-row AllReduce on the shard, intra-row AllGather.
//! * [`hierarchical`] — **HiTopKComm** (§3.2, Algorithm 2): the paper's
//!   hierarchical sparse aggregation, plus the flat `NaiveAG` sparse
//!   baseline. One body serves every sparse-hierarchy path; its inter-node
//!   step (iii) is named by [`hierarchical::InterStep`]: the paper's
//!   AllGather, or the **O(k) split-and-merge** of Li & Hoefler (PPoPP
//!   2022), which replaces the `O(m·k̃)` AllGather with an `O(k̃)` schedule
//!   and leaves bitwise the same values. The error feedback folds the last
//!   intra-node ReduceScatter hop straight into the residual, so the dense
//!   node sum is never materialized between reduction and selection.
//! * [`gtopk`] — gTop-k recursive-doubling sparse AllReduce with error
//!   feedback (Shi et al. 2019, cited in §6).
//! * [`quantized`] — AllReduce of QSGD/TernGrad/sign-quantized gradients.
//! * [`primitives`] — rooted Broadcast/Reduce (parameter seeding, metric
//!   collection).
//! * [`scratch`] — the [`CommScratch`] buffer arena backing the
//!   `*_scratch` collective variants: pooled send copies instead of
//!   per-hop allocations, so steady-state training iterations are
//!   allocation-free on the communication path.
//! * [`resilience`] — fault decisions ([`resilience::CommFaults`]) and
//!   [`resilience::ResilientPeer`], the [`group::Transport`] that charges
//!   every message a timeout/retry/backoff ladder and draws graceful
//!   degradation (a contribution that misses its deadline is an empty
//!   sparse block, safe under error feedback) for the error-feedback
//!   bodies of the sparse hierarchy and gTop-k. Every collective runs over it
//!   unchanged. The lateness-vs-budget tail model itself lives in
//!   `cloudtrain-simnet` (`SimResilience::deadline_bounded`).
//! * [`reorder`] — topology-aware ring ordering: a pairwise α–β cost model
//!   and a seeded deterministic ring-order optimizer, which the
//!   performance plane prices. A reordered ring is
//!   [`ring::ring_all_reduce`] over a permuted member list.
//!
//! All collectives run on a [`group::Group`] of mesh-connected peers created
//! with [`group::Group::connect`]; each worker thread owns one
//! [`group::Peer`]. Collective bodies are generic over
//! [`group::Transport`], so one body per algorithm serves the clean peer
//! and the fault-charging [`ResilientPeer`] alike: the transport decides
//! when bytes land and whether a sparse contribution is withheld.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod group;
pub mod gtopk;
pub mod hierarchical;
pub mod primitives;
pub mod quantized;
pub mod reorder;
pub mod resilience;
pub mod ring;
pub mod scratch;
mod sparse_allreduce;
pub mod torus;
pub mod tree;

pub use group::{Group, Peer};
pub use reorder::{optimize_ring_order, PairCost};
pub use resilience::{CommFaults, ResiliencePolicy, ResilienceReport, ResilientPeer};
pub use scratch::CommScratch;
