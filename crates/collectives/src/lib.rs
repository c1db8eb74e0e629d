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
//!   baseline. The error-feedback path folds the last intra-node
//!   ReduceScatter hop straight into the residual, so the dense node sum
//!   is never materialized between reduction and selection.
//! * [`gtopk`] — gTop-k recursive-doubling sparse AllReduce (Shi et al.
//!   2019, cited in §6).
//! * [`quantized`] — AllReduce of QSGD/TernGrad/sign-quantized gradients.
//! * [`rhd`] — recursive halving-doubling AllReduce (the classic
//!   latency-optimal MPI algorithm).
//! * [`primitives`] — rooted Broadcast/Reduce (parameter seeding, metric
//!   collection).
//! * [`scratch`] — the [`CommScratch`] buffer arena backing the
//!   `*_scratch` collective variants: pooled send copies instead of
//!   per-hop allocations, so steady-state training iterations are
//!   allocation-free on the communication path.
//! * [`resilience`] — fault decisions ([`resilience::CommFaults`]) and the
//!   [`resilience::ResilientPeer`] wrapper applying timeout/retry/backoff
//!   accounting to dense collectives and graceful degradation (empty
//!   sparse blocks, safe under error feedback) to HiTopKComm / gTop-k.
//! * [`reorder`] — topology-probed rank reordering: a pairwise α–β cost
//!   model, a seeded deterministic ring-order optimizer, and the ring /
//!   torus / HiTopKComm collectives run over a permuted member list
//!   (bitwise identical under the identity order).
//! * [`deadline`] — deadline-bounded collectives: per-hop budgets derived
//!   from probed α/β; late dense chunks are discarded (partial
//!   aggregates), late sparse contributions degrade to empty blocks under
//!   error feedback (bitwise identical to the plain twins on clean runs).
//!   The sparse one, like the reordered HiTopKComm, is a call into
//!   [`hierarchical`]'s one error-feedback body.
//! * [`sparse_allreduce`] — the **O(k) sparse allreduce** (Li & Hoefler,
//!   PPoPP 2022): balanced index partitioning plus split-and-merge
//!   reduction replaces HiTopKComm's `O(m·k̃)` inter-node AllGather with an
//!   `O(k̃)` schedule, bitwise identical in value to the hitopk paths;
//!   plain, error-feedback and resilient entry points.
//!
//! All collectives run on a [`group::Group`] of mesh-connected peers created
//! with [`group::Group::connect`]; each worker thread owns one
//! [`group::Peer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deadline;
pub mod group;
pub mod gtopk;
pub mod hierarchical;
pub mod primitives;
pub mod quantized;
pub mod reorder;
pub mod resilience;
pub mod rhd;
pub mod ring;
pub mod scratch;
pub mod sparse_allreduce;
pub mod torus;
pub mod tree;

pub use deadline::{DeadlineFaults, DeadlinePolicy, DeadlineReport};
pub use group::{Group, Peer};
pub use reorder::{optimize_ring_order, PairCost};
pub use resilience::{CommFaults, ResiliencePolicy, ResilienceReport, ResilientPeer};
pub use scratch::CommScratch;
pub use sparse_allreduce::OkSparseReport;
