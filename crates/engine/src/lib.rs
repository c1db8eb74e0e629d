//! The distributed training engine: the paper's full system (Fig. 4)
//! assembled from the workspace's substrates.
//!
//! Two planes, matching the reproduction strategy in DESIGN.md:
//!
//! * **Convergence plane** ([`trainer`]) — real synchronous data-parallel
//!   SGD over worker threads: real models (`cloudtrain-dnn`), real
//!   collectives (`cloudtrain-collectives`), real compression with error
//!   feedback, LARS with PTO. Reproduces Fig. 10 and Table 2.
//! * **Performance plane** ([`perf`], [`dawnbench`]) — the iteration-time
//!   model: measured-throughput compute profiles ([`profile`]) composed
//!   with simulated communication (`cloudtrain-simnet`), compression cost
//!   models, the DataCache I/O model, and wait-free-backprop overlap.
//!   Reproduces Fig. 1, Fig. 9, Tables 3–5.
//!
//! [`strategy::Strategy`] names the four aggregation schemes the paper
//! compares and is shared by both planes.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod autotune;
pub mod checkpoint;
pub mod dawnbench;
pub mod elastic_run;
pub mod fusion;
pub mod perf;
pub mod profile;
pub mod strategy;
pub mod trainer;

pub use autotune::{autotune_layers, AutotuneConfig, AutotuneReport, CommModel, CommScheme};
pub use elastic_run::{ElasticReport, ElasticSegment};
pub use fusion::FusionMode;
pub use perf::{IterationBreakdown, IterationModel, SystemConfig};
pub use profile::ModelProfile;
pub use strategy::Strategy;
pub use trainer::{DistConfig, DistTrainer, EpochMetrics, FaultConfig, OptimizerKind, TrainReport};
