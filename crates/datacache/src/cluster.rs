//! Cluster-cooperative memory caching.
//!
//! §4.1: "To reduce memory consumption, the full data set is split into
//! multiple parts that are separately stored on multiple nodes." Each node
//! holds the pre-processed samples of its own shard in memory; a request
//! for a sample owned by another node is served by a **peer fetch** over
//! the inter-node network — still far cheaper than going back to the NFS
//! — and only unowned/cold samples fall through to the filer.
//!
//! With the sharded sampler of [`crate::sampler`], steady-state training
//! touches only local shards; cooperative fetches cover globally shuffled
//! access patterns (e.g. validation sweeps).

use std::sync::Arc;

use cloudtrain_elastic::HashRing;

use crate::decode::{decode, Sample};
use crate::memcache::MemoryCache;
use crate::nfs::SyntheticNfs;
use crate::timing::{CpuModel, StorageSpec};
use crate::SampleId;

/// Which path served a cooperative lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterServedBy {
    /// This node's own memory shard.
    LocalMemory,
    /// Another node's memory shard, over the network.
    PeerMemory,
    /// The networked file system (then decoded and cached on the owner).
    Nfs,
}

/// Per-cluster counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Lookups served from the requesting node's shard.
    pub local_hits: u64,
    /// Lookups served from a peer node's shard.
    pub peer_hits: u64,
    /// Lookups that went to the NFS.
    pub nfs_fetches: u64,
}

impl ClusterStats {
    /// Publishes the counters into an observability registry
    /// (`cluster/local_hits`, `cluster/peer_hits`, `cluster/nfs_fetches`).
    pub fn publish(&self, reg: &mut cloudtrain_obs::Registry) {
        reg.counter_add("cluster/local_hits", self.local_hits);
        reg.counter_add("cluster/peer_hits", self.peer_hits);
        reg.counter_add("cluster/nfs_fetches", self.nfs_fetches);
    }
}

/// A cluster of node-local memory caches with ownership sharding and
/// peer fetching. Ownership is either round-robin (`owner(id) = id %
/// nodes`, [`Self::new`]) or consistent-hash ([`Self::with_ring`]), where
/// a membership change moves only `~1/m` of the sample space and the
/// cluster can [`Self::reshard`] live: survivors keep their warm caches.
#[derive(Debug)]
pub struct CacheCluster {
    shards: Vec<MemoryCache>,
    /// Stable node id behind each shard slot, ascending.
    members: Vec<usize>,
    /// Consistent-hash ownership; `None` means round-robin.
    ring: Option<HashRing>,
    mem_capacity_per_node: usize,
    nfs: SyntheticNfs,
    peer_link: StorageSpec,
    cpu: CpuModel,
    stats: ClusterStats,
}

impl CacheCluster {
    /// Creates a cluster of `nodes` shards, each bounded to
    /// `mem_capacity_per_node` bytes, over the given NFS.
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(nodes: usize, mem_capacity_per_node: usize, nfs: SyntheticNfs) -> Self {
        assert!(nodes > 0, "CacheCluster: need at least one node");
        Self {
            shards: (0..nodes)
                .map(|_| MemoryCache::new(mem_capacity_per_node))
                .collect(),
            members: (0..nodes).collect(),
            ring: None,
            mem_capacity_per_node,
            nfs,
            // 25GbE-class peer link: far slower than local DRAM, far
            // faster than the filer.
            peer_link: StorageSpec {
                latency: 100e-6,
                bytes_per_sec: 1.4e9,
            },
            cpu: CpuModel::default(),
            stats: ClusterStats::default(),
        }
    }

    /// Creates a cluster whose ownership follows a consistent-hash ring —
    /// one shard per ring member, addressed here by dense slot index in
    /// ascending member order (see [`Self::members`]).
    ///
    /// # Panics
    /// Panics if the ring has no members.
    pub fn with_ring(ring: HashRing, mem_capacity_per_node: usize, nfs: SyntheticNfs) -> Self {
        assert!(!ring.is_empty(), "CacheCluster: ring has no members");
        let members = ring.members();
        let mut cluster = Self::new(members.len(), mem_capacity_per_node, nfs);
        cluster.members = members;
        cluster.ring = Some(ring);
        cluster
    }

    /// Replaces the ownership ring after a membership change. Shards of
    /// surviving members carry their cached samples over untouched (the
    /// consistent-hash guarantee: no sample moves between survivors), an
    /// evicted member's cache is dropped with its node, and joiners start
    /// cold. Only samples the victim owned re-enter through the NFS.
    ///
    /// # Panics
    /// Panics if the cluster was built round-robin ([`Self::new`]) or the
    /// new ring has no members.
    pub fn reshard(&mut self, ring: HashRing) {
        assert!(
            self.ring.is_some(),
            "CacheCluster: reshard requires ring ownership"
        );
        assert!(!ring.is_empty(), "CacheCluster: ring has no members");
        let new_members = ring.members();
        let mut new_shards = Vec::with_capacity(new_members.len());
        for &m in &new_members {
            match self.members.iter().position(|&x| x == m) {
                Some(i) => {
                    new_shards.push(std::mem::replace(&mut self.shards[i], MemoryCache::new(0)))
                }
                None => new_shards.push(MemoryCache::new(self.mem_capacity_per_node)),
            }
        }
        self.shards = new_shards;
        self.members = new_members;
        self.ring = Some(ring);
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.shards.len()
    }

    /// Stable node id behind each shard slot, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The shard slot (dense index) that owns a sample.
    pub fn owner(&self, id: SampleId) -> usize {
        match &self.ring {
            Some(ring) => {
                let slot = ring
                    .owner(id)
                    .and_then(|node| self.members.binary_search(&node).ok());
                match slot {
                    Some(s) => s,
                    // The ring is non-empty (asserted at construction) and
                    // every owner is in the sorted slot list by invariant.
                    None => unreachable!("ring owner must be a member"),
                }
            }
            None => (id % self.shards.len() as u64) as usize,
        }
    }

    /// Cluster statistics so far.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Loads sample `id` on behalf of `node`, returning the sample, the
    /// serving path, and the virtual seconds charged to the requester.
    ///
    /// # Panics
    /// Panics if `node` is out of range.
    pub fn load(&mut self, node: usize, id: SampleId) -> (Arc<Sample>, ClusterServedBy, f64) {
        assert!(node < self.shards.len(), "CacheCluster: bad node {node}");
        let owner = self.owner(id);

        if let Some((sample, t)) = self.shards[owner].get(id) {
            return if owner == node {
                self.stats.local_hits += 1;
                (sample, ClusterServedBy::LocalMemory, t)
            } else {
                self.stats.peer_hits += 1;
                let t = t + self.peer_link.access_time(sample.mem_bytes());
                (sample, ClusterServedBy::PeerMemory, t)
            };
        }

        // Cold: fetch + decode, then cache on the owner.
        self.stats.nfs_fetches += 1;
        let (blob, t_nfs) = self.nfs.fetch(id);
        #[expect(
            clippy::expect_used,
            reason = "the blob came from this crate's own synthetic NFS generator; a malformed one is a generator bug, not input"
        )]
        let (sample, t_dec) = decode(&blob, &self.cpu).expect("synthetic blob must decode");
        let sample = Arc::new(sample);
        self.shards[owner].put(id, Arc::clone(&sample));
        let mut t = t_nfs + t_dec;
        if owner != node {
            t += self.peer_link.access_time(sample.mem_bytes());
        }
        (sample, ClusterServedBy::Nfs, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: usize) -> CacheCluster {
        CacheCluster::new(nodes, 1 << 30, SyntheticNfs::new(16 * 16 * 3, 4))
    }

    #[test]
    fn ownership_is_round_robin() {
        let c = cluster(4);
        assert_eq!(c.owner(0), 0);
        assert_eq!(c.owner(5), 1);
        assert_eq!(c.owner(7), 3);
        assert_eq!(c.nodes(), 4);
    }

    #[test]
    fn cold_then_local_then_peer() {
        let mut c = cluster(2);
        // id 0 is owned by node 0. Cold fetch by the owner:
        let (_, by, t_cold) = c.load(0, 0);
        assert_eq!(by, ClusterServedBy::Nfs);
        // Warm local hit:
        let (_, by, t_local) = c.load(0, 0);
        assert_eq!(by, ClusterServedBy::LocalMemory);
        // Warm peer hit from node 1:
        let (_, by, t_peer) = c.load(1, 0);
        assert_eq!(by, ClusterServedBy::PeerMemory);
        assert!(t_local < t_peer, "local {t_local} !< peer {t_peer}");
        assert!(t_peer < t_cold, "peer {t_peer} !< cold {t_cold}");
        assert_eq!(
            c.stats(),
            ClusterStats {
                local_hits: 1,
                peer_hits: 1,
                nfs_fetches: 1
            }
        );
    }

    #[test]
    fn samples_identical_across_paths() {
        let mut c = cluster(3);
        let (a, _, _) = c.load(2, 7);
        let (b, _, _) = c.load(0, 7);
        let (d, _, _) = c.load(1, 7);
        assert_eq!(*a, *b);
        assert_eq!(*a, *d);
    }

    #[test]
    fn sharded_epoch_is_all_local_after_warmup() {
        // Each node reads only its own shard (the sampler's contract):
        // epoch 2 must be 100% local memory.
        let mut c = cluster(4);
        let dataset = 64u64;
        for epoch in 0..2 {
            for id in 0..dataset {
                let node = c.owner(id);
                let (_, by, _) = c.load(node, id);
                if epoch == 1 {
                    assert_eq!(by, ClusterServedBy::LocalMemory, "id {id}");
                }
            }
        }
        assert_eq!(c.stats().nfs_fetches, dataset);
        assert_eq!(c.stats().local_hits, dataset);
        assert_eq!(c.stats().peer_hits, 0);
    }

    #[test]
    fn ring_ownership_matches_the_ring_and_partitions_ids() {
        let members: Vec<usize> = vec![0, 2, 5, 9];
        let ring = HashRing::with_members(7, 64, &members);
        let c = CacheCluster::with_ring(ring.clone(), 1 << 30, SyntheticNfs::new(16 * 16 * 3, 4));
        assert_eq!(c.nodes(), 4);
        assert_eq!(c.members(), &members[..]);
        for id in 0..256u64 {
            let slot = c.owner(id);
            assert_eq!(Some(members[slot]), ring.owner(id));
        }
    }

    #[test]
    fn reshard_keeps_survivor_caches_warm() {
        // Warm the whole dataset, evict one node, reshard: samples whose
        // owner survived must still be served from memory — only the
        // victim's former share goes back to the filer.
        let dataset = 128u64;
        let members: Vec<usize> = (0..8).collect();
        let mut ring = HashRing::with_members(3, 64, &members);
        let mut c =
            CacheCluster::with_ring(ring.clone(), 1 << 30, SyntheticNfs::new(16 * 16 * 3, 4));
        let owner_before: Vec<usize> = (0..dataset).map(|id| c.owner(id)).collect();
        for id in 0..dataset {
            let node = c.owner(id);
            c.load(node, id);
        }
        let warm_fetches = c.stats().nfs_fetches;
        assert_eq!(warm_fetches, dataset);

        let victim = 4usize;
        let moved: u64 = (0..dataset)
            .filter(|&id| members[owner_before[id as usize]] == victim)
            .count() as u64;
        assert!(ring.evict(victim));
        c.reshard(ring);
        assert_eq!(c.nodes(), 7);
        assert!(!c.members().contains(&victim));
        for id in 0..dataset {
            let node = c.owner(id);
            c.load(node, id);
        }
        // Exactly the victim's former share re-entered through the NFS;
        // every surviving shard stayed warm (local hits, no peer traffic
        // because each request comes from the owner).
        assert_eq!(c.stats().nfs_fetches - warm_fetches, moved);
        assert!(moved < dataset / 2, "victim owned an implausible share");
    }

    #[test]
    #[should_panic(expected = "reshard requires ring ownership")]
    fn reshard_of_round_robin_cluster_panics() {
        let mut c = cluster(4);
        c.reshard(HashRing::with_members(0, 16, &[0, 1]));
    }

    #[test]
    fn global_shuffle_uses_peer_fetches_not_nfs() {
        // After warmup, a node scanning the whole dataset hits peers for
        // the 3/4 it does not own — never the filer.
        let mut c = cluster(4);
        for id in 0..32u64 {
            let node = c.owner(id);
            c.load(node, id);
        }
        let before = c.stats().nfs_fetches;
        for id in 0..32u64 {
            c.load(0, id);
        }
        assert_eq!(c.stats().nfs_fetches, before);
        assert_eq!(c.stats().peer_hits, 24);
    }
}
