//! Discrete-event α–β network simulator for hierarchical cloud GPU
//! clusters.
//!
//! This crate is the *performance plane* of the reproduction: the paper's
//! testbed — 16 Tencent Cloud nodes with NVLink inside each node and shared
//! 25 Gbps Ethernet between nodes — is replaced by a simulator that charges
//! α–β time (per-message latency + per-byte transfer) for every
//! point-to-point transfer, with these physical constraints:
//!
//! * each node has **one inter-node NIC** (full duplex): concurrent
//!   cross-node transfers from the same node serialize on it — this is what
//!   makes flat AllGather/AllReduce collapse on cloud clusters and what the
//!   hierarchical algorithms are designed around;
//! * intra-node transfers use per-GPU NVLink ports (full duplex), orders of
//!   magnitude faster;
//! * every GPU has a local clock; transfers and compute advance it, so
//!   pipelined algorithms (rings) and tree dependencies are timed
//!   faithfully.
//!
//! [`collectives`] builds the paper's aggregation schemes (ring, double
//! tree, 2D-torus, NaiveAG, HiTopKComm, O(k), gTop-k, quantized AllGather)
//! as schedules of transfers on the simulator and reports per-phase
//! timings — the source of Figs. 7 and 8 and the communication leg of
//! Tables 3–5. Each scheme is one body: a list of labelled phases that a
//! single phase player times, the rings over any list of member groups,
//! and the hierarchical schemes over their inter-node streams (natural or
//! reordered).
//! [`jitter`] adds multi-tenant compute jitter and straggler statistics
//! for the BSP-penalty ablation.
//! [`faults`] injects seeded link faults (drops, latency spikes, transient
//! degradation) and node-level stragglers so resilience policies can be
//! evaluated deterministically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clouds;
pub mod collectives;
pub mod faults;
pub mod jitter;
mod netsim;
pub mod probe;
pub mod timeline;
mod topology;
pub mod tuner;

pub use faults::{
    DeadlineMode, FaultCounters, FaultEvent, FaultEventKind, FaultPlan, LinkDegrade, SimResilience,
    Straggler,
};
pub use netsim::{NetSim, TransferEvent};
pub use probe::{probe_pairwise, ProbeEstimate};
pub use topology::{ClusterSpec, LinkSpec};
