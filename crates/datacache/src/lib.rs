//! DataCache: multi-level caching for training-data input pipelines
//! (§4.1 of the paper, Fig. 5/9).
//!
//! On public clouds the training set lives on a networked file system whose
//! bandwidth and latency throttle every epoch, and sample decoding burns
//! CPU. The paper's fix is a two-level cache: blobs fetched from NFS are
//! kept in the node-local file system, and *pre-processed* (decoded,
//! normalised) samples are kept in an in-memory key-value store sharded
//! across nodes, so from the second epoch onward data loading is a memory
//! lookup fully overlapped with GPU compute.
//!
//! This crate reproduces the mechanism with a functional/virtual-time
//! split:
//!
//! * the cache *mechanics* are real — a deterministic synthetic NFS serves
//!   JPEG-like blobs, [`disk::DiskCache`] appends them to real segment
//!   files and reads them back, [`decode::decode`] does real byte-level
//!   work, [`memcache::MemoryCache`] is a real bounded KV store, and
//!   [`pipeline::Prefetcher`] overlaps loading with compute on a real
//!   background thread;
//! * the *timing* of each tier is virtual — every access returns the
//!   simulated seconds it would cost on the paper's hardware
//!   ([`timing::StorageSpec`], Table 1-class CFS/SSD/DRAM numbers), so
//!   Fig. 9 is reproducible on any machine.
//!
//! [`cluster`] adds the paper's node-sharded cooperative layer: each node
//! holds one shard of the pre-processed set in memory and serves peers
//! over the (fast-enough) inter-node link instead of the filer.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

pub mod cluster;
pub mod decode;
pub mod disk;
pub mod loader;
pub mod memcache;
pub mod nfs;
pub mod pipeline;
pub mod sampler;
pub mod timing;

pub use loader::{CachedLoader, LoaderConfig, TierStats};
pub use nfs::SyntheticNfs;
pub use sampler::{RingSampler, ShardedSampler};
pub use timing::StorageSpec;

/// Identifier of one training sample within the data set.
pub type SampleId = u64;
