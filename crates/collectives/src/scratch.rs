//! `CommScratch` — a reusable buffer arena for the collective hot path.
//!
//! Every ring message of the collectives in this crate needs a fresh owned
//! buffer: [`crate::group::Transport::send_f32`] transfers ownership of the
//! payload, so a hop must copy what it sends into a `Vec` it can give
//! away. The seed implementation allocated that `Vec` on every hop
//! (`slice.to_vec()` / `block.clone()`), which at 25M-parameter scale means
//! thousands of heap round-trips per training iteration.
//!
//! The arena replaces those allocations with a take/put pool:
//!
//! * a hop **takes** a pooled buffer, copies the outgoing data into it and
//!   sends it away;
//! * when the matching inbound buffer has been consumed (accumulated or
//!   copied out), the hop **puts** it back into the pool.
//!
//! Because every hop gives away exactly one buffer and receives exactly one
//! (ring traffic is balanced by construction), the pool reaches a fixed
//! point after the first iteration: buffers *migrate* between the workers'
//! pools via the channels, but each pool's take/put flow nets to zero, so
//! steady-state training performs **zero** allocations. The
//! [`ScratchStats`] counters make that claim testable: `misses` — takes
//! that allocated, a pooled buffer that had to grow included — stops
//! growing after warmup. The dense ring primitives send a chunk as
//! cache-sized pieces ([`crate::ring::ring_reduce_scatter_scratch`]), so
//! what the fixed point holds is piece-sized buffers and sparse gather
//! blocks, never a shard; [`CommScratch::pooled_bytes`] is the number.
//!
//! Callers of the variable-payload gathers ([`crate::ring::all_gather_f32_scratch`])
//! own the returned blocks and must `put` them back once consumed —
//! [`crate::hierarchical::hitopk_all_reduce_ef`] does so after its
//! scatter-accumulate — otherwise the pool re-allocates every iteration.
//!
//! The sparse error-feedback entry points take the arena from their caller
//! ([`crate::hierarchical::hitopk_all_reduce_ef`] under either step (iii),
//! [`crate::gtopk::gtopk_all_reduce_ef`]) over whichever transport the
//! caller holds, so a fault-charging peer reaches the same zero-miss
//! steady state as a clean one.

use std::fmt;

/// Allocation counters of one element-type pool inside a [`CommScratch`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Buffers handed out by `take`/`copy` calls.
    pub takes: usize,
    /// Takes that had to heap-allocate: the pool was empty, or no pooled
    /// buffer was roomy enough and one had to grow.
    pub misses: usize,
}

impl ScratchStats {
    /// Takes served from the pool without allocating.
    pub fn hits(&self) -> usize {
        self.takes - self.misses
    }
}

/// A per-worker pool of reusable `Vec<f32>` / `Vec<u32>` buffers for the
/// collective hot path. Not shared between threads: each worker owns one
/// and buffers migrate between pools by riding the channels.
#[derive(Default)]
pub struct CommScratch {
    f32_pool: Vec<Vec<f32>>,
    u32_pool: Vec<Vec<u32>>,
    f32_stats: ScratchStats,
    u32_stats: ScratchStats,
}

/// Smallest capacity the arena allocates, in elements: one 64-byte cache
/// line of `f32`/`u32`.
const MIN_CAPACITY: usize = 16;

/// Takes a pooled buffer, emptied and with room for `needed` elements. Best
/// fit: the smallest pooled buffer that is roomy enough — piece-sized hop
/// buffers and larger gather blocks share one pool, and each goes back to
/// the job it was cut for — else the roomiest, grown. Only an empty pool or
/// a growing buffer allocates (a miss), and allocations round up to a
/// power-of-two size class, so buffers cut for ring chunks that differ by
/// one element, or for payloads whose length follows the data, are
/// interchangeable and the pool still reaches its fixed point after warmup.
fn take<T>(pool: &mut Vec<Vec<T>>, stats: &mut ScratchStats, needed: usize) -> Vec<T> {
    stats.takes += 1;
    let fits = |i: &usize| pool[*i].capacity() >= needed;
    let pick = (0..pool.len())
        .filter(fits)
        .min_by_key(|&i| pool[i].capacity())
        .or_else(|| (0..pool.len()).max_by_key(|&i| pool[i].capacity()));
    let mut buf = pick.map(|i| pool.swap_remove(i)).unwrap_or_default();
    buf.clear();
    if pick.is_none() || buf.capacity() < needed {
        stats.misses += 1;
        buf.reserve_exact(needed.next_power_of_two().max(MIN_CAPACITY));
    }
    buf
}

impl fmt::Debug for CommScratch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CommScratch")
            .field("f32_pooled", &self.f32_pool.len())
            .field("u32_pooled", &self.u32_pool.len())
            .field("pooled_bytes", &self.pooled_bytes())
            .field("f32_stats", &self.f32_stats)
            .field("u32_stats", &self.u32_stats)
            .finish()
    }
}

impl CommScratch {
    /// An empty arena. The first iteration through a collective warms it
    /// up (every take is a miss); later iterations run allocation-free.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes a buffer holding a copy of `src` (the send-side idiom: the
    /// copy's ownership goes to the channel). No zero-fill — the buffer is
    /// cleared and overwritten in one pass.
    pub fn copy_f32(&mut self, src: &[f32]) -> Vec<f32> {
        let mut buf = take(&mut self.f32_pool, &mut self.f32_stats, src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Takes a zero-padded buffer of exactly `len` elements.
    pub fn take_f32(&mut self, len: usize) -> Vec<f32> {
        let mut buf = take(&mut self.f32_pool, &mut self.f32_stats, len);
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a consumed buffer to the pool.
    pub fn put_f32(&mut self, buf: Vec<f32>) {
        self.f32_pool.push(buf);
    }

    /// Takes a buffer holding a copy of `src` (see [`Self::copy_f32`]).
    pub fn copy_u32(&mut self, src: &[u32]) -> Vec<u32> {
        let mut buf = take(&mut self.u32_pool, &mut self.u32_stats, src.len());
        buf.extend_from_slice(src);
        buf
    }

    /// Takes a zero-padded buffer of exactly `len` elements.
    pub fn take_u32(&mut self, len: usize) -> Vec<u32> {
        let mut buf = take(&mut self.u32_pool, &mut self.u32_stats, len);
        buf.resize(len, 0);
        buf
    }

    /// Returns a consumed buffer to the pool.
    pub fn put_u32(&mut self, buf: Vec<u32>) {
        self.u32_pool.push(buf);
    }

    /// Counters of the `f32` pool.
    pub fn f32_stats(&self) -> ScratchStats {
        self.f32_stats
    }

    /// Counters of the `u32` pool.
    pub fn u32_stats(&self) -> ScratchStats {
        self.u32_stats
    }

    /// Total allocating takes across both pools — the number that must stop
    /// growing once a collective reaches steady state.
    pub fn misses(&self) -> usize {
        self.f32_stats.misses + self.u32_stats.misses
    }

    /// Buffers currently parked in the arena (both pools).
    pub fn pooled(&self) -> usize {
        self.f32_pool.len() + self.u32_pool.len()
    }

    /// Bytes of capacity parked in the arena (both pools) — what the pool
    /// costs in resident memory between collectives.
    pub fn pooled_bytes(&self) -> usize {
        let f32s: usize = self.f32_pool.iter().map(Vec::capacity).sum();
        let u32s: usize = self.u32_pool.iter().map(Vec::capacity).sum();
        4 * (f32s + u32s)
    }

    /// Publishes both pools' counters into an observability registry, so a
    /// trace snapshot carries the allocation behaviour alongside the span
    /// breakdown (`scratch/f32_takes`, `scratch/f32_misses`,
    /// `scratch/u32_takes`, `scratch/u32_misses`, `scratch/pooled`).
    pub fn publish_obs(&self, reg: &mut cloudtrain_obs::Registry) {
        reg.counter_add("scratch/f32_takes", self.f32_stats.takes as u64);
        reg.counter_add("scratch/f32_misses", self.f32_stats.misses as u64);
        reg.counter_add("scratch/u32_takes", self.u32_stats.takes as u64);
        reg.counter_add("scratch/u32_misses", self.u32_stats.misses as u64);
        reg.counter_add("scratch/pooled", self.pooled() as u64);
    }

    /// Zeroes both pools' counters while keeping the pooled buffers.
    ///
    /// Long trainer sessions measure allocation behaviour *per window*
    /// (per epoch, per phase): warmup legitimately misses, so without a
    /// reset the cumulative counters would hide a regression where a later
    /// phase starts allocating again. Reset after warmup, then assert
    /// `misses() == 0` at the end of the window.
    pub fn reset_stats(&mut self) {
        self.f32_stats = ScratchStats::default();
        self.u32_stats = ScratchStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_cycle_allocates_once() {
        let mut s = CommScratch::new();
        let a = s.copy_f32(&[1.0, 2.0, 3.0]);
        assert_eq!(a, vec![1.0, 2.0, 3.0]);
        assert_eq!(s.f32_stats().misses, 1);
        s.put_f32(a);
        // Reuse: second take of any length must not miss.
        let b = s.take_f32(5);
        assert_eq!(b, vec![0.0; 5]);
        assert_eq!(
            s.f32_stats(),
            ScratchStats {
                takes: 2,
                misses: 1
            }
        );
    }

    #[test]
    fn a_take_that_outgrows_its_buffer_counts_as_a_miss() {
        let mut s = CommScratch::new();
        s.put_f32(Vec::with_capacity(20));
        let a = s.take_f32(20);
        assert_eq!(s.f32_stats().misses, 0);
        s.put_f32(a);
        let b = s.copy_f32(&[1.0; 21]);
        assert_eq!(s.f32_stats().misses, 1, "growing 20 -> 21 allocates");
        // Grown to its size class, so the next length up is a hit.
        s.put_f32(b);
        let c = s.take_f32(32);
        assert_eq!(s.f32_stats().misses, 1);
        assert_eq!(c.capacity(), 32);
    }

    #[test]
    fn takes_are_best_fit() {
        let mut s = CommScratch::new();
        s.put_u32(Vec::with_capacity(64));
        s.put_u32(Vec::with_capacity(256));
        s.put_u32(Vec::with_capacity(16));
        assert_eq!(s.pooled_bytes(), 4 * (64 + 256 + 16));
        // Smallest that fits, so small requests leave the big buffers be...
        assert_eq!(s.take_u32(40).capacity(), 64);
        assert_eq!(s.take_u32(0).capacity(), 16);
        assert_eq!(s.take_u32(100).capacity(), 256);
        assert_eq!(s.misses(), 0);
        // ...and when nothing fits, the roomiest one grows.
        s.put_u32(Vec::with_capacity(16));
        s.put_u32(Vec::with_capacity(64));
        assert_eq!(s.take_u32(100).capacity(), 128);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.pooled_bytes(), 4 * 16);
    }

    #[test]
    fn pools_are_independent_per_type() {
        let mut s = CommScratch::new();
        let v = s.copy_u32(&[7, 8]);
        assert_eq!(v, vec![7, 8]);
        s.put_u32(v);
        assert_eq!(
            s.u32_stats(),
            ScratchStats {
                takes: 1,
                misses: 1
            }
        );
        assert_eq!(s.f32_stats(), ScratchStats::default());
        assert_eq!(s.misses(), 1);
        assert_eq!(s.pooled(), 1);
    }

    #[test]
    fn reset_stats_keeps_pooled_buffers() {
        let mut s = CommScratch::new();
        let a = s.copy_f32(&[1.0; 8]);
        let b = s.copy_u32(&[2; 8]);
        s.put_f32(a);
        s.put_u32(b);
        assert_eq!(s.misses(), 2);
        s.reset_stats();
        assert_eq!(s.misses(), 0);
        assert_eq!(s.f32_stats(), ScratchStats::default());
        assert_eq!(s.u32_stats(), ScratchStats::default());
        // The buffers survive the reset: the next takes are hits.
        assert_eq!(s.pooled(), 2);
        let _ = s.take_f32(4);
        let _ = s.take_u32(4);
        assert_eq!(s.misses(), 0);
    }

    #[test]
    fn copy_reuses_capacity_without_zero_fill() {
        let mut s = CommScratch::new();
        s.put_f32(Vec::with_capacity(64));
        let c = s.copy_f32(&[4.0; 10]);
        assert_eq!(c, vec![4.0; 10]);
        assert!(c.capacity() >= 64, "pooled capacity must be retained");
        assert_eq!(s.f32_stats().misses, 0);
    }
}
