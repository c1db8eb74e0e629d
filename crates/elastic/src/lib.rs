//! Elastic cluster control plane (ROADMAP item 1).
//!
//! The source paper targets public cloud clusters, where the defining
//! failure is not a dropped packet but a node dying mid-run and a
//! replacement joining later. This crate is the deterministic control
//! plane for that churn, split into three layers:
//!
//! * [`membership`] — a heartbeat coordinator on the fault plane's
//!   virtual clock: members turn Suspect and are Evicted on timeout,
//!   joiners are admitted, and the event log plus `elastic/*`
//!   counters/gauges/spans publish into `cloudtrain-obs` byte-stably.
//! * [`ring`] — consistent-hash sample ownership with virtual nodes, so
//!   a single topology change moves `~1/m` of the data set (<5% on the
//!   clusters the gauntlet runs) and **never** moves a sample between two
//!   survivors — versus ~97% for the modulo rehash it replaces.
//! * [`scenario`] — scripted churn (evict, evict+join, correlated rack
//!   loss) folded to an epoch-level membership timeline: evictions roll
//!   back to the start of their detection epoch (the last commit point),
//!   joins defer to the next boundary.
//!
//! The engine consumes the timeline in `DistTrainer::run_elastic`,
//! cutting sharded checkpoints at every membership boundary and replaying
//! deterministically; the datacache consumes the ring for cooperative
//! cache ownership. Everything here is pure in the scenario seed — no
//! wall clock, no ambient randomness, ordered maps only.

#![warn(missing_docs)]

pub mod membership;
pub mod ring;
pub mod scenario;

pub use membership::{
    Coordinator, HeartbeatConfig, MemberState, MembershipEvent, MembershipEventKind,
};
pub use ring::{reshard_stats, HashRing, ReshardStats, DEFAULT_VNODES};
pub use scenario::{ElasticScenario, MembershipTimeline, ReshardEvent, ScriptedChange};
