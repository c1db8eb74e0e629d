//! Property-based tests for the data-cache subsystem.

use cloudtrain_datacache::decode::decode;
use cloudtrain_datacache::loader::{CachedLoader, LoaderConfig, ServedBy};
use cloudtrain_datacache::memcache::MemoryCache;
use cloudtrain_datacache::nfs::{synth_blob, SyntheticNfs};
use cloudtrain_datacache::sampler::ShardedSampler;
use cloudtrain_datacache::timing::CpuModel;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every blob decodes, and the decode is a pure function of the blob.
    #[test]
    fn decode_total_and_pure(id in 0u64..100_000, pixels in 1usize..5_000, seed in 0u64..100) {
        let blob = synth_blob(id, pixels, seed);
        let cpu = CpuModel::default();
        let (a, ta) = decode(&blob, &cpu).unwrap();
        let (b, tb) = decode(&blob, &cpu).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(ta, tb);
        prop_assert_eq!(a.data.len(), pixels);
        prop_assert!(a.data.iter().all(|v| (-1.0..=1.0).contains(v)));
    }

    /// Sharded sampling is a partition for any (len, nodes) and every
    /// epoch order is a permutation of the shard.
    #[test]
    fn sampler_partitions_and_permutes(
        len in 1u64..500,
        nodes in 1u64..17,
        epoch in 0u64..50,
        seed in 0u64..100,
    ) {
        let mut seen = vec![false; len as usize];
        for node in 0..nodes {
            let s = ShardedSampler::new(len, nodes, node, seed);
            let mut order = s.epoch_order(epoch);
            for &id in &order {
                prop_assert!(!seen[id as usize], "duplicate id {id}");
                seen[id as usize] = true;
            }
            order.sort_unstable();
            let mut shard = s.shard();
            shard.sort_unstable();
            prop_assert_eq!(order, shard);
        }
        prop_assert!(seen.iter().all(|&v| v));
    }

    /// Memory cache never exceeds capacity and a hit always returns what
    /// was inserted, under an arbitrary put/get workload.
    #[test]
    fn memcache_respects_capacity(
        ops in prop::collection::vec((0u64..20, any::<bool>()), 1..100),
    ) {
        let sample = |id: u64| {
            Arc::new(cloudtrain_datacache::decode::Sample {
                data: vec![id as f32; 10],
                label: id as u32,
            })
        };
        let bytes = sample(0).mem_bytes();
        let mut c = MemoryCache::new(3 * bytes);
        for (id, is_put) in ops {
            if is_put {
                c.put(id, sample(id));
            } else if let Some((s, _)) = c.get(id) {
                prop_assert_eq!(s.label, id as u32);
            }
            prop_assert!(c.used_bytes() <= 3 * bytes);
            prop_assert!(c.len() <= 3);
        }
    }

    /// The multi-level loader always serves the same sample bytes no
    /// matter which tier answered, and memory-tier hit rate reaches 100%
    /// for a working set within capacity.
    #[test]
    fn loader_consistency(working_set in 1u64..40, seed in 0u64..50) {
        let cfg = LoaderConfig {
            use_disk: false,
            ..LoaderConfig::default()
        };
        let mut loader = CachedLoader::new(SyntheticNfs::new(12 * 12 * 3, seed), None, cfg);
        let mut first: Vec<Arc<cloudtrain_datacache::decode::Sample>> = Vec::new();
        for id in 0..working_set {
            first.push(loader.load(id).0);
        }
        for id in 0..working_set {
            let (s, by, _) = loader.load(id);
            prop_assert_eq!(&*s, &*first[id as usize]);
            prop_assert_eq!(by, ServedBy::Memory);
        }
    }
}
