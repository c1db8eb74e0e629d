//! Prefetch pipelining: overlapping data loading with GPU compute.
//!
//! The paper's loader hides the (post-warmup) data-pipeline time behind the
//! GPU's forward/backward pass. Two pieces reproduce that:
//!
//! * [`Prefetcher`] — a real background thread that runs a
//!   [`CachedLoader`] ahead of the consumer over a bounded channel, so the
//!   mechanics of the overlap (bounded lookahead, backpressure, shutdown)
//!   are exercised for real;
//! * [`overlapped_iteration_time`] — the virtual-time composition used by
//!   the Fig. 1/9 harnesses: with pipelining, one iteration costs
//!   `max(io, compute)` plus whichever warmup remainder cannot be hidden.

use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver};

use crate::decode::Sample;
use crate::loader::CachedLoader;
use crate::SampleId;

/// One prefetched item: the sample and the virtual seconds its load cost.
#[derive(Debug)]
pub struct Prefetched {
    /// The sample id.
    pub id: SampleId,
    /// The loaded sample.
    pub sample: Arc<Sample>,
    /// Virtual data-pipeline seconds for this sample.
    pub load_seconds: f64,
}

/// Background prefetching wrapper around a [`CachedLoader`].
///
/// Loads the given id sequence on a worker thread, `depth` items ahead of
/// the consumer. Dropping the prefetcher (or consuming it fully) joins the
/// worker; the loader is returned by [`Prefetcher::finish`] so its caches
/// and statistics survive across epochs.
#[derive(Debug)]
pub struct Prefetcher {
    rx: Receiver<Prefetched>,
    handle: Option<JoinHandle<CachedLoader>>,
}

impl Prefetcher {
    /// Starts prefetching `ids` through `loader`, `depth` items ahead.
    ///
    /// # Panics
    /// Panics if `depth == 0`.
    pub fn start(loader: CachedLoader, ids: Vec<SampleId>, depth: usize) -> Self {
        assert!(depth > 0, "Prefetcher: depth must be positive");
        let (tx, rx) = bounded(depth);
        #[expect(
            clippy::disallowed_methods,
            reason = "the single prefetch worker produces an in-order id stream; consumer order is the deterministic channel order"
        )]
        let handle = std::thread::spawn(move || {
            let mut loader = loader;
            for id in ids {
                let (sample, _, t) = loader.load(id);
                let item = Prefetched {
                    id,
                    sample,
                    load_seconds: t,
                };
                if tx.send(item).is_err() {
                    break; // consumer hung up
                }
            }
            loader
        });
        Self {
            rx,
            handle: Some(handle),
        }
    }

    /// Receives the next prefetched sample, or `None` when the sequence is
    /// exhausted.
    #[expect(
        clippy::should_implement_trait,
        reason = "a blocking recv, not an Iterator"
    )]
    pub fn next(&mut self) -> Option<Prefetched> {
        self.rx.recv().ok()
    }

    /// Drains the worker and returns the loader (with its caches intact).
    ///
    /// # Panics
    /// Panics if the worker thread panicked.
    pub fn finish(mut self) -> CachedLoader {
        // Dropping the receiver unblocks a worker stuck on a full channel.
        let (_, dead_rx) = bounded(1);
        self.rx = dead_rx;
        #[expect(
            clippy::expect_used,
            reason = "finish consumes self, so the handle is always present, and propagating a worker panic to the caller is the documented contract (see Panics)"
        )]
        self.handle
            .take()
            .expect("finish called twice")
            .join()
            .expect("prefetch worker panicked")
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            let (_, dead_rx) = bounded(1);
            self.rx = dead_rx;
            let _ = h.join();
        }
    }
}

/// Virtual time of one training iteration when the data pipeline is
/// overlapped with compute: the pipeline contributes only the part that
/// compute cannot hide.
pub fn overlapped_iteration_time(pipeline_seconds: f64, compute_seconds: f64) -> f64 {
    compute_seconds + (pipeline_seconds - compute_seconds).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::LoaderConfig;
    use crate::nfs::SyntheticNfs;

    fn loader() -> CachedLoader {
        let cfg = LoaderConfig {
            use_disk: false,
            ..LoaderConfig::default()
        };
        CachedLoader::new(SyntheticNfs::new(32 * 32 * 3, 5), None, cfg)
    }

    #[test]
    fn prefetcher_yields_all_samples_in_order() {
        let ids: Vec<u64> = (0..20).collect();
        let mut p = Prefetcher::start(loader(), ids.clone(), 4);
        let mut got = Vec::new();
        while let Some(item) = p.next() {
            assert!(item.load_seconds > 0.0);
            got.push(item.id);
        }
        assert_eq!(got, ids);
    }

    #[test]
    fn finish_returns_loader_with_warm_cache() {
        let ids: Vec<u64> = (0..10).collect();
        let mut p = Prefetcher::start(loader(), ids.clone(), 2);
        while p.next().is_some() {}
        let mut l = p.finish();
        assert_eq!(l.stats().from_nfs, 10);
        // Second epoch through the same loader hits memory.
        let (_, by, _) = l.load(0);
        assert_eq!(by, crate::loader::ServedBy::Memory);
    }

    #[test]
    fn early_drop_does_not_deadlock() {
        let ids: Vec<u64> = (0..100).collect();
        let mut p = Prefetcher::start(loader(), ids, 2);
        let _ = p.next();
        drop(p); // worker blocked on the bounded channel must unblock
    }

    #[test]
    fn overlap_math() {
        assert_eq!(overlapped_iteration_time(2.0, 5.0), 5.0);
        assert_eq!(overlapped_iteration_time(5.0, 2.0), 5.0);
        assert_eq!(overlapped_iteration_time(3.0, 3.0), 3.0);
        assert_eq!(overlapped_iteration_time(0.0, 1.0), 1.0);
    }
}
