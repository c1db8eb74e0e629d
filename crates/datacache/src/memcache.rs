//! In-memory key-value cache of *pre-processed* samples (the second cache
//! level of Fig. 5).
//!
//! The key is the sample index, the value is the decoded, training-ready
//! sample — so a hit skips both the I/O and the CPU decode. Capacity is
//! bounded in bytes; the paper bounds memory by sharding the data set across
//! nodes (see [`crate::sampler`]), in which case each node's shard fits and
//! eviction never triggers.
//!
//! # Eviction: what this pass has already served goes first
//!
//! When a shard does not fit, its traffic is still one permutation per
//! epoch: every id comes once, in a fresh order. The tier evicts by one rule
//! that reads only the sequence of `get`s and `put`s:
//!
//! - every entry records the sequence number of its last *touch*, and both
//!   a hit and a put (a re-put included) count as a touch;
//! - a *pass* begins when `get` names an id that was already touched in the
//!   current pass — under epoch traffic, the first load of the next epoch;
//! - on a put into a full tier, the victim is the entry touched earliest in
//!   the current pass: it has been served and is not needed again until the
//!   next epoch, while every entry not yet touched this pass is still to
//!   come;
//! - if no resident entry was touched this pass (the first miss of a pass),
//!   the victim is the least recently used entry.
//!
//! Insertion-order (FIFO) eviction would throw out exactly the samples the
//! reshuffled epoch has not reached yet: at a working set twice the tier it
//! serves 11.6 % of the benchmark's loads, against a ceiling of 40 %.
//!
//! **Ceiling.** With room for `C` samples and `N > C` ids in permutation
//! order, no rule hits more than `C` times in an epoch: a hit must be
//! resident when the epoch starts, since an id put during the epoch is not
//! asked for again within it. So `C/N` of a warm epoch's loads is the most
//! any memory tier serves. This rule keeps every entry that is resident at
//! the start of a pass until the pass reaches it, except the one least
//! recently used entry that the fallback evicts when the pass opens with a
//! miss: each warm epoch hits `C − 1` or `C` times.
//!
//! **Cost.** Each resident entry carries its last touch, and a recency
//! index (`seq → id`) holds exactly the resident entries: a hit moves one
//! index entry, an eviction pops one. A repeat of an evicted id must still
//! open a pass, so a last-touch map (`id → seq`) covers the ids that are no
//! longer resident. It is bounded by the number of distinct ids ever
//! cached, not by capacity: 16 bytes of payload plus B-tree node overhead
//! per id, under 100 KB for the benchmark's 4,096 ids against 2,048 cached
//! samples of 110 KB each.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::decode::Sample;
use crate::timing::StorageSpec;
use crate::SampleId;

/// Hit/miss/eviction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Lookups served from memory.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
}

impl MemStats {
    /// Publishes the counters into an observability registry
    /// (`memcache/hits`, `memcache/misses`, `memcache/evictions`).
    pub fn publish(&self, reg: &mut cloudtrain_obs::Registry) {
        reg.counter_add("memcache/hits", self.hits);
        reg.counter_add("memcache/misses", self.misses);
        reg.counter_add("memcache/evictions", self.evictions);
    }
}

/// A resident sample and the seq of its last touch.
#[derive(Debug)]
struct Entry {
    sample: Arc<Sample>,
    seq: u64,
}

/// Bounded in-memory store of decoded samples, evicting by the pass rule of
/// the module documentation.
///
/// Every map is a `BTreeMap`: lookups here are nowhere near the hot path
/// (virtual access time dominates), and ordered keys make any future
/// iteration over the cache deterministic by construction.
#[derive(Debug)]
pub struct MemoryCache {
    map: BTreeMap<SampleId, Entry>,
    /// Recency index over the resident entries: last-touch seq → id. Holds
    /// exactly `map.len()` entries.
    by_seq: BTreeMap<u64, SampleId>,
    /// Last-touch seq of every evicted id not cached again since.
    evicted: BTreeMap<SampleId, u64>,
    next_seq: u64,
    /// Seq of the first touch of the current pass.
    pass_start: u64,
    used_bytes: usize,
    capacity_bytes: usize,
    spec: StorageSpec,
    stats: MemStats,
}

impl MemoryCache {
    /// Creates a cache bounded to `capacity_bytes` of sample payload.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            map: BTreeMap::new(),
            by_seq: BTreeMap::new(),
            evicted: BTreeMap::new(),
            next_seq: 0,
            pass_start: 0,
            used_bytes: 0,
            capacity_bytes,
            spec: StorageSpec::memory(),
            stats: MemStats::default(),
        }
    }

    /// Records a use of `id`, if it is resident.
    fn touch(&mut self, id: SampleId) {
        if let Some(entry) = self.map.get_mut(&id) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.by_seq.remove(&std::mem::replace(&mut entry.seq, seq));
            self.by_seq.insert(seq, id);
        }
    }

    /// Current payload bytes held.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of cached samples.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Zeroes the statistics without touching the cached entries.
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }

    /// Looks up a sample, returning it and the virtual access time.
    pub fn get(&mut self, id: SampleId) -> Option<(Arc<Sample>, f64)> {
        let resident = self.map.get(&id).map(|e| (Arc::clone(&e.sample), e.seq));
        let last_touch = match &resident {
            Some((_, seq)) => Some(*seq),
            None => self.evicted.get(&id).copied(),
        };
        if last_touch.is_some_and(|seq| seq >= self.pass_start) {
            self.pass_start = self.next_seq;
        }
        let Some((sample, _)) = resident else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let t = self.spec.access_time(sample.mem_bytes());
        self.touch(id);
        Some((sample, t))
    }

    /// Inserts a sample, evicting as needed. A sample larger than the whole
    /// capacity is not cached; a re-put of a resident id keeps the stored
    /// sample and counts as a use.
    pub fn put(&mut self, id: SampleId, sample: Arc<Sample>) {
        let bytes = sample.mem_bytes();
        if bytes > self.capacity_bytes {
            return;
        }
        if self.map.contains_key(&id) {
            self.touch(id);
            return;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            let victim = self
                .by_seq
                .range(self.pass_start..)
                .next()
                .or_else(|| self.by_seq.first_key_value())
                .map(|(&seq, &victim)| (seq, victim));
            let Some((seq, victim)) = victim else {
                break;
            };
            self.by_seq.remove(&seq);
            if let Some(old) = self.map.remove(&victim) {
                self.used_bytes -= old.sample.mem_bytes();
                self.evicted.insert(victim, seq);
                self.stats.evictions += 1;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.evicted.remove(&id);
        self.by_seq.insert(seq, id);
        self.map.insert(id, Entry { sample, seq });
        self.used_bytes += bytes;
    }
}

/// The insertion-order (FIFO) tier the pass rule replaced, kept as the
/// baseline its tests compare against.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, VecDeque};
    use std::sync::Arc;

    use super::MemStats;
    use crate::decode::Sample;
    use crate::SampleId;

    pub struct Fifo {
        map: BTreeMap<SampleId, Arc<Sample>>,
        order: VecDeque<SampleId>,
        used_bytes: usize,
        capacity_bytes: usize,
        pub stats: MemStats,
    }

    impl Fifo {
        pub fn new(capacity_bytes: usize) -> Self {
            Self {
                map: BTreeMap::new(),
                order: VecDeque::new(),
                used_bytes: 0,
                capacity_bytes,
                stats: MemStats::default(),
            }
        }

        pub fn get(&mut self, id: SampleId) -> Option<Arc<Sample>> {
            let hit = self.map.get(&id).map(Arc::clone);
            match hit {
                Some(_) => self.stats.hits += 1,
                None => self.stats.misses += 1,
            }
            hit
        }

        pub fn put(&mut self, id: SampleId, sample: Arc<Sample>) {
            let bytes = sample.mem_bytes();
            if bytes > self.capacity_bytes || self.map.contains_key(&id) {
                return;
            }
            while self.used_bytes + bytes > self.capacity_bytes {
                let Some(victim) = self.order.pop_front() else {
                    break;
                };
                if let Some(old) = self.map.remove(&victim) {
                    self.used_bytes -= old.mem_bytes();
                    self.stats.evictions += 1;
                }
            }
            self.used_bytes += bytes;
            self.order.push_back(id);
            self.map.insert(id, sample);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::ShardedSampler;

    fn sample(elems: usize) -> Arc<Sample> {
        Arc::new(Sample {
            data: vec![0.5; elems],
            label: 0,
        })
    }

    /// The payload cached for `id`: distinct per id, 48 bytes each.
    fn payload(id: SampleId) -> Arc<Sample> {
        Arc::new(Sample {
            data: vec![id as f32; 10],
            label: id as u32,
        })
    }

    /// The structural invariants every call must leave in place.
    fn assert_invariants(c: &MemoryCache, capacity: usize) {
        assert!(
            c.used_bytes() <= capacity,
            "{} > {capacity}",
            c.used_bytes()
        );
        assert_eq!(c.by_seq.len(), c.len(), "index out of step with residents");
        assert!(c.map.iter().all(|(id, e)| c.by_seq.get(&e.seq) == Some(id)));
        assert!(c.evicted.keys().all(|id| !c.map.contains_key(id)));
    }

    /// One loader-shaped load (`get`, then `put` on a miss) through the pass
    /// rule and the FIFO reference; returns both served payloads.
    fn load_both(
        c: &mut MemoryCache,
        fifo: &mut reference::Fifo,
        id: SampleId,
    ) -> (Arc<Sample>, Arc<Sample>) {
        let ours = c.get(id).map(|(s, _)| s).unwrap_or_else(|| {
            c.put(id, payload(id));
            payload(id)
        });
        let theirs = fifo.get(id).unwrap_or_else(|| {
            fifo.put(id, payload(id));
            payload(id)
        });
        (ours, theirs)
    }

    /// Runs `epochs` sampler epochs over `n` ids through a tier of `cap`
    /// samples and the FIFO reference, checking payloads and invariants
    /// after every call; returns the pass rule's hits per epoch and its
    /// stats, and FIFO's stats.
    fn epoch_traffic(
        n: u64,
        cap: usize,
        seed: u64,
        epochs: u64,
        hold: bool,
    ) -> (Vec<u64>, MemStats, MemStats) {
        let capacity = cap * payload(0).mem_bytes();
        let mut c = MemoryCache::new(capacity);
        let mut fifo = reference::Fifo::new(capacity);
        let sampler = ShardedSampler::new(n, 1, 0, seed);
        let mut held = Vec::new();
        let mut hits = Vec::new();
        for epoch in 0..epochs {
            let before = c.stats().hits;
            for id in sampler.epoch_order(epoch) {
                let (ours, theirs) = load_both(&mut c, &mut fifo, id);
                assert_eq!(*ours, *payload(id), "id {id} served a wrong payload");
                assert_eq!(*ours, *theirs);
                assert_invariants(&c, capacity);
                if hold {
                    held.push(ours);
                }
            }
            hits.push(c.stats().hits - before);
        }
        (hits, c.stats(), fifo.stats)
    }

    #[test]
    fn hit_after_put() {
        let mut c = MemoryCache::new(1 << 20);
        assert!(c.get(1).is_none());
        c.put(1, sample(10));
        let (s, t) = c.get(1).unwrap();
        assert_eq!(s.data.len(), 10);
        assert!(t > 0.0 && t < 1e-5);
        assert_eq!(
            c.stats(),
            MemStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        // Each sample is 48 bytes (10 f32 + 8); capacity fits two. Within
        // one pass of puts the rule evicts in insertion order.
        let bytes = sample(10).mem_bytes();
        let mut c = MemoryCache::new(2 * bytes);
        c.put(1, sample(10));
        c.put(2, sample(10));
        c.put(3, sample(10));
        assert_eq!(c.len(), 2);
        assert!(c.get(1).is_none(), "oldest entry should be evicted");
        assert!(c.get(2).is_some());
        assert!(c.get(3).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert!(c.used_bytes() <= 2 * bytes);
    }

    #[test]
    fn served_entries_go_first_least_recent_first() {
        let bytes = sample(10).mem_bytes();
        let mut c = MemoryCache::new(3 * bytes);
        for id in 1..=3 {
            c.put(id, sample(10));
        }
        // 1 was touched in the current pass: asking for it opens a new one,
        // which then serves 1 and 2 but not yet 3.
        assert!(c.get(1).is_some());
        assert_eq!(c.pass_start, 3);
        assert!(c.get(2).is_some());
        c.put(4, sample(10));
        // The victim is the earliest touch of this pass (1), not the least
        // recently used entry overall (3, still to come).
        assert!(!c.map.contains_key(&1), "served entry survived");
        assert!(c.map.contains_key(&2) && c.map.contains_key(&3) && c.map.contains_key(&4));
        c.put(5, sample(10));
        assert!(!c.map.contains_key(&2), "second-served entry survived");
        assert!(c.map.contains_key(&3), "entry not yet served was evicted");
        assert_eq!(c.stats().evictions, 2);
        assert_invariants(&c, 3 * bytes);
    }

    #[test]
    fn a_pass_that_opens_with_a_miss_evicts_the_least_recently_used() {
        let bytes = sample(10).mem_bytes();
        let mut c = MemoryCache::new(2 * bytes);
        c.put(1, sample(10));
        c.put(2, sample(10));
        c.put(3, sample(10)); // evicts 1 (the only pass so far)
        assert!(
            c.get(1).is_none(),
            "1 was touched this pass: a new one opens"
        );
        // Nothing resident was touched in the new pass: fall back to LRU.
        c.put(1, sample(10));
        assert!(!c.map.contains_key(&2) && c.map.contains_key(&3));
        assert_eq!(c.stats().evictions, 2);
        assert_invariants(&c, 2 * bytes);
    }

    #[test]
    fn oversized_sample_is_not_cached() {
        let mut c = MemoryCache::new(16);
        c.put(1, sample(100));
        assert!(c.is_empty());
    }

    #[test]
    fn duplicate_put_is_ignored() {
        let mut c = MemoryCache::new(1 << 20);
        c.put(1, sample(10));
        c.put(1, sample(10));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), sample(10).mem_bytes());
    }

    #[test]
    fn lru_re_put_refreshes_recency() {
        let bytes = sample(10).mem_bytes();
        let mut c = MemoryCache::new(2 * bytes);
        c.put(1, sample(10));
        c.put(2, sample(10));
        // Re-putting 1 must count as a use: 2 becomes the pass's least
        // recently used entry, and so the victim.
        c.put(1, sample(10));
        assert_eq!(c.len(), 2, "re-put must not duplicate the entry");
        c.put(3, sample(10));
        assert!(c.get(1).is_some(), "re-put entry was evicted");
        assert!(c.get(2).is_none(), "least recently used entry survived");
        assert!(c.get(3).is_some());
        assert!(c.used_bytes() <= 2 * bytes);
    }

    #[test]
    fn hot_set_within_capacity_is_all_hits_and_keeps_the_index_at_len() {
        // A hot working set that fits: after the cold round every get hits,
        // nothing is evicted, and however many passes the repeats open, the
        // recency index holds one entry per resident sample.
        for hot in [3u64, 8] {
            let bytes = sample(10).mem_bytes();
            let mut c = MemoryCache::new(hot as usize * bytes);
            for round in 0..10_000u64 {
                let id = round % hot;
                if c.get(id).is_none() {
                    assert!(round < hot, "round {round}: hot id {id} missed");
                    c.put(id, sample(10));
                }
                assert_invariants(&c, hot as usize * bytes);
            }
            assert_eq!(c.len(), hot as usize);
            assert_eq!(
                c.stats(),
                MemStats {
                    hits: 10_000 - hot,
                    misses: hot,
                    evictions: 0
                }
            );
        }
    }

    #[test]
    fn epoch_traffic_serves_the_same_payloads_and_hits_at_least_fifo() {
        // Working sets of 1.5x, 2x and 3x the tier, several seeds.
        let cap = 64;
        for n in [96u64, 128, 192] {
            for seed in 0..6 {
                let (_, ours, fifo) = epoch_traffic(n, cap, seed, 5, false);
                assert_eq!(ours.hits + ours.misses, fifo.hits + fifo.misses);
                assert!(
                    ours.hits >= fifo.hits,
                    "n {n} seed {seed}: {} hits < FIFO's {}",
                    ours.hits,
                    fifo.hits
                );
            }
        }
    }

    #[test]
    fn every_warm_epoch_hits_at_least_capacity_minus_one() {
        let cap = 64;
        for n in [96u64, 128, 192] {
            for seed in 0..6 {
                let (hits, ours, _) = epoch_traffic(n, cap, seed, 5, false);
                assert_eq!(hits[0], 0, "the cold epoch cannot hit");
                for (epoch, &h) in hits.iter().enumerate().skip(1) {
                    assert!(
                        h + 1 >= cap as u64 && h <= cap as u64,
                        "n {n} seed {seed} epoch {epoch}: {h} hits, ceiling {cap}"
                    );
                }
                // One eviction per miss once the tier is full.
                assert_eq!(ours.evictions, ours.misses - cap as u64);
            }
        }
    }

    #[test]
    fn stats_do_not_depend_on_who_still_holds_a_sample() {
        for seed in 0..4 {
            let dropped = epoch_traffic(128, 64, seed, 5, false);
            let held = epoch_traffic(128, 64, seed, 5, true);
            assert_eq!(dropped, held, "seed {seed}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn index_holds_exactly_the_residents_under_random_traffic(
                ops in prop::collection::vec((0u64..32, any::<bool>()), 1..400),
            ) {
                // With-replacement traffic, loads and bare puts mixed.
                let capacity = 6 * payload(0).mem_bytes();
                let mut c = MemoryCache::new(capacity);
                for (id, is_put) in ops {
                    if is_put {
                        c.put(id, payload(id));
                    } else if let Some((s, _)) = c.get(id) {
                        prop_assert_eq!(&*s, &*payload(id));
                    }
                    prop_assert!(c.used_bytes() <= capacity);
                    prop_assert_eq!(c.by_seq.len(), c.len());
                    prop_assert!(c.len() <= 6);
                }
            }
        }
    }

    #[test]
    fn stats_publish_into_registry() {
        let mut c = MemoryCache::new(1 << 20);
        let _ = c.get(1);
        c.put(1, sample(10));
        let _ = c.get(1);
        let mut reg = cloudtrain_obs::Registry::new();
        c.stats().publish(&mut reg);
        assert_eq!(reg.counter("memcache/hits"), 1);
        assert_eq!(reg.counter("memcache/misses"), 1);
        assert_eq!(reg.counter("memcache/evictions"), 0);
    }
}
