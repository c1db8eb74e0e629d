//! The combined multi-level loader: memory KV → local disk → NFS
//! (Fig. 5's full read path).

use std::sync::Arc;

use cloudtrain_obs::Registry;

use crate::decode::{augment, decode, Sample};
use crate::disk::DiskCache;
use crate::memcache::MemoryCache;
use crate::nfs::SyntheticNfs;
use crate::timing::CpuModel;
use crate::SampleId;

/// Loader configuration.
#[derive(Debug, Clone)]
pub struct LoaderConfig {
    /// Memory-cache capacity in bytes.
    pub mem_capacity: usize,
    /// Whether the disk tier is enabled (the "Naive" baseline of Fig. 9
    /// disables both cache tiers).
    pub use_disk: bool,
    /// Whether the memory tier is enabled.
    pub use_memory: bool,
    /// CPU cost model for decode/augment.
    pub cpu: CpuModel,
}

impl Default for LoaderConfig {
    fn default() -> Self {
        Self {
            mem_capacity: 8 << 30,
            use_disk: true,
            use_memory: true,
            cpu: CpuModel::default(),
        }
    }
}

/// Which tier ultimately served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Pre-processed sample straight from the in-memory KV store.
    Memory,
    /// Blob from the node-local file cache (decode still required).
    Disk,
    /// Blob fetched from the networked file system.
    Nfs,
}

impl ServedBy {
    /// The span a trace charges this tier's access time to: `cache/memory`,
    /// `cache/disk` or `cache/nfs`, so summed spans reproduce Fig. 9's
    /// per-tier time breakdown.
    pub fn span_name(self) -> &'static str {
        match self {
            ServedBy::Memory => "cache/memory",
            ServedBy::Disk => "cache/disk",
            ServedBy::Nfs => "cache/nfs",
        }
    }
}

/// Cumulative per-tier accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierStats {
    /// Requests served by the memory tier.
    pub from_memory: u64,
    /// Requests served by the disk tier.
    pub from_disk: u64,
    /// Requests served by NFS.
    pub from_nfs: u64,
    /// Virtual seconds spent on storage I/O.
    pub io_seconds: f64,
    /// Virtual seconds spent on CPU decode/augment.
    pub cpu_seconds: f64,
}

impl TierStats {
    /// Total virtual data-pipeline seconds (I/O + CPU).
    pub fn total_seconds(&self) -> f64 {
        self.io_seconds + self.cpu_seconds
    }

    /// Publishes the per-tier counters and time gauges into an
    /// observability registry (`cache/from_memory`, `cache/from_disk`,
    /// `cache/from_nfs`, `cache/io_seconds`, `cache/cpu_seconds`).
    pub fn publish(&self, reg: &mut Registry) {
        reg.counter_add("cache/from_memory", self.from_memory);
        reg.counter_add("cache/from_disk", self.from_disk);
        reg.counter_add("cache/from_nfs", self.from_nfs);
        reg.gauge_set("cache/io_seconds", self.io_seconds);
        reg.gauge_set("cache/cpu_seconds", self.cpu_seconds);
    }
}

/// Multi-level cached sample loader.
///
/// # Examples
/// ```
/// use cloudtrain_datacache::loader::{LoaderConfig, ServedBy};
/// use cloudtrain_datacache::{CachedLoader, SyntheticNfs};
///
/// let cfg = LoaderConfig { use_disk: false, ..LoaderConfig::default() };
/// let mut loader = CachedLoader::new(SyntheticNfs::new(32 * 32 * 3, 1), None, cfg);
/// let (_, first, _) = loader.load(7);
/// let (_, second, t) = loader.load(7);
/// assert_eq!(first, ServedBy::Nfs);
/// assert_eq!(second, ServedBy::Memory);
/// assert!(t < 1e-4); // microseconds, not milliseconds
/// ```
#[derive(Debug)]
pub struct CachedLoader {
    nfs: SyntheticNfs,
    disk: Option<DiskCache>,
    mem: Option<MemoryCache>,
    cfg: LoaderConfig,
    stats: TierStats,
}

impl CachedLoader {
    /// Builds a loader over `nfs` with the given config; `disk` must be
    /// provided when `cfg.use_disk` is set, and is neither read nor written
    /// when it is not.
    ///
    /// # Panics
    /// Panics if `cfg.use_disk` is set but no disk cache is supplied.
    pub fn new(nfs: SyntheticNfs, disk: Option<DiskCache>, cfg: LoaderConfig) -> Self {
        assert!(
            !cfg.use_disk || disk.is_some(),
            "CachedLoader: use_disk requires a DiskCache"
        );
        let disk = disk.filter(|_| cfg.use_disk);
        let mem = cfg.use_memory.then(|| MemoryCache::new(cfg.mem_capacity));
        Self {
            nfs,
            disk,
            mem,
            cfg,
            stats: TierStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TierStats {
        self.stats
    }

    /// Resets the cumulative statistics (e.g. between epochs) — the tier
    /// counters and the memory tier's hit/miss/eviction counters alike —
    /// without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = TierStats::default();
        if let Some(mem) = self.mem.as_mut() {
            mem.reset_stats();
        }
    }

    /// Loads sample `id`, returning it, the tier that served it, and the
    /// virtual seconds the access cost.
    pub fn load(&mut self, id: SampleId) -> (Arc<Sample>, ServedBy, f64) {
        // Tier 1: pre-processed sample in memory.
        if let Some(mem) = self.mem.as_mut() {
            if let Some((sample, t)) = mem.get(id) {
                self.stats.from_memory += 1;
                self.stats.io_seconds += t;
                return (sample, ServedBy::Memory, t);
            }
        }

        // Tier 2: raw blob on local disk.
        let (blob, io_t, served) = match self.disk.as_mut().and_then(|d| d.get(id)) {
            Some((blob, t)) => (blob, t, ServedBy::Disk),
            None => {
                let (blob, t_nfs) = self.nfs.fetch(id);
                let mut t = t_nfs;
                if let Some(d) = self.disk.as_mut() {
                    if let Ok(t_w) = d.put(id, &blob) {
                        t += t_w;
                    }
                }
                (blob, t, ServedBy::Nfs)
            }
        };

        // CPU stage: decode + augment.
        #[expect(
            clippy::expect_used,
            reason = "the blob came from this crate's own synthetic NFS generator; a malformed one is a generator bug, not input"
        )]
        let (mut sample, t_dec) = decode(&blob, &self.cfg.cpu).expect("synthetic blob must decode");
        let t_aug = augment(&mut sample, id.is_multiple_of(2), &self.cfg.cpu);
        let sample = Arc::new(sample);

        if let Some(mem) = self.mem.as_mut() {
            mem.put(id, Arc::clone(&sample));
        }

        match served {
            ServedBy::Disk => self.stats.from_disk += 1,
            ServedBy::Nfs => self.stats.from_nfs += 1,
            ServedBy::Memory => unreachable!(),
        }
        self.stats.io_seconds += io_t;
        self.stats.cpu_seconds += t_dec + t_aug;
        (sample, served, io_t + t_dec + t_aug)
    }

    /// Publishes the loader's cumulative tier statistics — and the memory
    /// tier's hit/miss/eviction counters when enabled — into `reg`.
    pub fn publish_obs(&self, reg: &mut Registry) {
        self.stats.publish(reg);
        if let Some(mem) = self.mem.as_ref() {
            mem.stats().publish(reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cloudtrain-loader-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn loader(tag: &str, cfg: LoaderConfig) -> CachedLoader {
        let nfs = SyntheticNfs::new(96 * 96 * 3, 1);
        let disk = cfg.use_disk.then(|| DiskCache::open(tmpdir(tag)).unwrap());
        CachedLoader::new(nfs, disk, cfg)
    }

    #[test]
    fn tiers_escalate_nfs_then_memory() {
        let mut l = loader("escalate", LoaderConfig::default());
        let (_, by1, t1) = l.load(7);
        assert_eq!(by1, ServedBy::Nfs);
        let (_, by2, t2) = l.load(7);
        assert_eq!(by2, ServedBy::Memory);
        // The memory hit skips NFS latency and decode entirely.
        assert!(t2 < t1 / 100.0, "t2={t2} t1={t1}");
    }

    #[test]
    fn disk_serves_when_memory_disabled() {
        let cfg = LoaderConfig {
            use_memory: false,
            ..LoaderConfig::default()
        };
        let mut l = loader("diskonly", cfg);
        let (_, by1, _) = l.load(3);
        assert_eq!(by1, ServedBy::Nfs);
        let (_, by2, t2) = l.load(3);
        assert_eq!(by2, ServedBy::Disk);
        // Disk still pays the decode cost.
        assert!(t2 > CpuModel::default().decode_time(96 * 96 * 3));
    }

    #[test]
    fn naive_mode_always_hits_nfs() {
        let cfg = LoaderConfig {
            use_disk: false,
            use_memory: false,
            ..LoaderConfig::default()
        };
        let mut l = loader("naive", cfg);
        for _ in 0..3 {
            let (_, by, _) = l.load(5);
            assert_eq!(by, ServedBy::Nfs);
        }
        assert_eq!(l.stats().from_nfs, 3);
    }

    #[test]
    fn naive_mode_ignores_a_populated_disk_cache() {
        let dir = tmpdir("naive-populated");
        let mut warm = CachedLoader::new(
            SyntheticNfs::new(96 * 96 * 3, 1),
            Some(DiskCache::open(&dir).unwrap()),
            LoaderConfig::default(),
        );
        warm.load(5);
        let cfg = LoaderConfig {
            use_disk: false,
            use_memory: false,
            ..LoaderConfig::default()
        };
        let disk = DiskCache::open(&dir).unwrap();
        let mut l = CachedLoader::new(SyntheticNfs::new(96 * 96 * 3, 1), Some(disk), cfg);
        for _ in 0..3 {
            let (_, by, _) = l.load(5);
            assert_eq!(by, ServedBy::Nfs);
        }
    }

    #[test]
    fn samples_are_identical_across_tiers() {
        let mut l = loader("consistent", LoaderConfig::default());
        let (a, _, _) = l.load(11);
        let (b, _, _) = l.load(11);
        assert_eq!(*a, *b);
    }

    #[test]
    fn charged_loads_record_tier_spans_in_virtual_seconds() {
        let mut l = loader("charged", LoaderConfig::default());
        let mut reg = Registry::new();
        let (_, by1, t1) = l.load(7);
        reg.charge(by1.span_name(), t1);
        let (_, by2, t2) = l.load(7);
        reg.charge(by2.span_name(), t2);
        assert_eq!((by1, by2), (ServedBy::Nfs, ServedBy::Memory));
        assert_eq!(reg.spans().len(), 2);
        assert_eq!(reg.span_total("cache/nfs"), t1);
        // The memory span's duration is `(t1 + t2) - t1` — exact equality
        // with `t2` is lost to float rounding, closeness is not.
        assert!((reg.span_total("cache/memory") - t2).abs() < t2 * 1e-9);
        assert_eq!(reg.now(), t1 + t2);
        l.publish_obs(&mut reg);
        assert_eq!(reg.counter("cache/from_nfs"), 1);
        assert_eq!(reg.counter("cache/from_memory"), 1);
        assert_eq!(reg.counter("memcache/hits"), 1);
        assert_eq!(reg.gauge("cache/io_seconds").unwrap(), l.stats().io_seconds);
    }

    #[test]
    fn epoch_two_io_collapses() {
        // The Fig. 9 mechanism in miniature: epoch 1 pays NFS + decode,
        // epoch 2 is pure memory.
        let mut l = loader("epochs", LoaderConfig::default());
        let ids: Vec<u64> = (0..50).collect();
        for &id in &ids {
            l.load(id);
        }
        let epoch1 = l.stats().total_seconds();
        l.reset_stats();
        for &id in &ids {
            l.load(id);
        }
        let epoch2 = l.stats().total_seconds();
        assert!(
            epoch1 > 10.0 * epoch2,
            "epoch1 {epoch1} should dwarf epoch2 {epoch2}"
        );
        assert_eq!(l.stats().from_memory, 50);
    }

    #[test]
    fn reset_stats_resets_the_memory_tier_counters_too() {
        let mut l = loader("reset", LoaderConfig::default());
        // Epoch 1 hits, misses and all, then a reset.
        for id in (0..20).chain(0..10) {
            l.load(id);
        }
        l.reset_stats();
        for id in (0..30).rev() {
            l.load(id);
        }
        let mut reg = Registry::new();
        l.publish_obs(&mut reg);
        let stats = l.stats();
        assert_eq!((stats.from_memory, stats.from_nfs), (20, 10));
        assert_eq!(
            reg.counter("memcache/hits"),
            reg.counter("cache/from_memory")
        );
        assert_eq!(
            reg.counter("memcache/misses"),
            reg.counter("cache/from_disk") + reg.counter("cache/from_nfs")
        );
    }
}
