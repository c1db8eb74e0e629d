//! `datacache_epochs`: the multi-level data cache on its own — a
//! single-threaded `CachedLoader` over a synthetic NFS, a real `DiskCache`
//! in a fresh directory and a memory tier half the size of the data set.
//! A rep is a new loader on an empty directory: epoch 0 cold (NFS fetch →
//! disk put → decode/augment → memory put: the write path), then four
//! shuffled epochs over a working set twice the memory tier (memory hits,
//! evictions, disk reads + decode: the read path).

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use cloudtrain::datacache::decode::{augment, decode, Sample};
use cloudtrain::datacache::disk::DiskCache;
use cloudtrain::datacache::loader::{LoaderConfig, ServedBy, TierStats};
use cloudtrain::datacache::nfs::{synth_blob, BLOB_HEADER};
use cloudtrain::datacache::sampler::ShardedSampler;
use cloudtrain::datacache::timing::CpuModel;
use cloudtrain::datacache::{CachedLoader, SyntheticNfs};
use cloudtrain::obs::Registry;

use crate::inputs::checksum_f32;
use crate::report::Outcome;
use crate::stats::median;
use crate::sys::CpuClock;
use crate::trace::{Span, Tracer};
use crate::Plan;

/// Decoded sample size: the DAWNBench warm-up resolution.
const PIXELS: usize = 96 * 96 * 3;
/// Samples in the data set.
const DATASET: u64 = 4096;
/// Decoded samples the memory tier holds: half the data set.
const MEM_SAMPLES: usize = 2048;
/// Samples per step.
const BATCH: usize = 64;
/// Epochs per rep, the cold one included.
const EPOCHS: u64 = 5;

/// A directory under the benchmark's own `out/` that is removed when the
/// guard drops — on success, on a failed check and on a panic alike.
struct TempDir(PathBuf);

impl TempDir {
    fn new(out_dir: &Path, tag: &str) -> std::io::Result<Self> {
        let path = out_dir.join(format!("tmp/{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a direct `decode` + `augment` of `synth_blob` gives for one id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expected {
    checksum: u64,
    label: u32,
    first: u32,
    last: u32,
}

impl Expected {
    fn of(sample: &Sample) -> Self {
        Self {
            checksum: checksum_f32(&sample.data),
            label: sample.label,
            first: sample.data[0].to_bits(),
            last: sample.data[sample.data.len() - 1].to_bits(),
        }
    }

    /// The check cheap enough for a timed rep: length, label and both ends
    /// (a wrong id, a truncated blob and a missed flip all show there).
    fn probe(&self, sample: &Sample) -> bool {
        sample.data.len() == PIXELS
            && sample.label == self.label
            && sample.data[0].to_bits() == self.first
            && sample.data[PIXELS - 1].to_bits() == self.last
    }
}

fn direct(id: u64, seed: u64) -> Sample {
    let cpu = CpuModel::default();
    let (mut sample, _) = decode(&synth_blob(id, PIXELS, seed), &cpu).expect("synthetic blob");
    augment(&mut sample, id.is_multiple_of(2), &cpu);
    sample
}

fn expectations(dataset: u64, seed: u64) -> Vec<Expected> {
    (0..dataset)
        .map(|id| Expected::of(&direct(id, seed)))
        .collect()
}

/// How thoroughly a rep checks what it is served.
#[derive(Clone, Copy, PartialEq)]
enum Check {
    /// Every payload's full checksum (the untimed verification rep).
    Full,
    /// [`Expected::probe`] on every payload (timed reps).
    Probe,
}

/// What one rep measured.
struct Rep {
    /// Wall time of each step (the loads only), s.
    steps: Vec<f64>,
    /// Steps in the cold epoch.
    cold_steps: usize,
    stats: TierStats,
    evictions: u64,
    wrong: u64,
    loads: u64,
}

/// One rep: a new loader over an empty directory, `EPOCHS` epochs in sampler
/// order. With a tracer, every load is a span named after the tier that
/// served it.
fn run_rep(
    plan: &Plan,
    expected: &[Expected],
    check: Check,
    mut tracer: Option<&mut Tracer>,
) -> std::io::Result<Rep> {
    let dataset = expected.len() as u64;
    let dir = TempDir::new(&plan.out_dir, "datacache")?;
    let sample_bytes = PIXELS * 4 + 8;
    let mut loader = CachedLoader::new(
        SyntheticNfs::new(PIXELS, plan.seed),
        Some(DiskCache::open(&dir.0)?),
        LoaderConfig {
            mem_capacity: MEM_SAMPLES.min(expected.len() / 2) * sample_bytes,
            ..LoaderConfig::default()
        },
    );
    let sampler = ShardedSampler::new(dataset, 1, 0, plan.seed);
    let mut rep = Rep {
        steps: Vec::new(),
        cold_steps: 0,
        stats: TierStats::default(),
        evictions: 0,
        wrong: 0,
        loads: 0,
    };
    let mut served: Vec<(u64, Arc<Sample>)> = Vec::with_capacity(BATCH);
    for epoch in 0..EPOCHS {
        for batch in sampler.epoch_order(epoch).chunks(BATCH) {
            let step = rep.steps.len();
            let start = Instant::now();
            match tracer.as_deref_mut() {
                None => {
                    for &id in batch {
                        served.push((id, loader.load(id).0));
                    }
                }
                Some(tracer) => {
                    let whole = tracer.open("datacache.step", step);
                    for &id in batch {
                        let span = tracer.open("datacache.load", step);
                        let (sample, by, _) = loader.load(id);
                        tracer.close_as(
                            span,
                            match by {
                                ServedBy::Memory => "datacache.load_memory",
                                ServedBy::Disk => "datacache.load_disk",
                                ServedBy::Nfs => "datacache.load_nfs",
                            },
                        );
                        served.push((id, sample));
                    }
                    tracer.close(whole);
                }
            }
            rep.steps.push(start.elapsed().as_secs_f64());
            for (id, sample) in served.drain(..) {
                let want = &expected[id as usize];
                let ok = match check {
                    Check::Full => {
                        want.probe(&sample) && checksum_f32(&sample.data) == want.checksum
                    }
                    Check::Probe => want.probe(&sample),
                };
                rep.loads += 1;
                rep.wrong += u64::from(!ok);
            }
        }
        if epoch == 0 {
            rep.cold_steps = rep.steps.len();
        }
    }
    rep.stats = loader.stats();
    let mut reg = Registry::new();
    loader.publish_obs(&mut reg);
    rep.evictions = reg.counter("memcache/evictions");
    Ok(rep)
}

fn record(outcome: &mut Outcome, rep: &Rep) {
    outcome.attempted += rep.loads;
    outcome.failed += rep.wrong;
    if rep.wrong > 0 && outcome.failures.len() < 8 {
        outcome.failures.push(format!(
            "{} of {} served samples were wrong",
            rep.wrong, rep.loads
        ));
    }
}

fn nfs_bytes_per_step(rep: &Rep) -> f64 {
    (rep.stats.from_nfs * (BLOB_HEADER + PIXELS) as u64) as f64 / rep.steps.len() as f64
}

/// The untraced run.
pub fn run_untraced(plan: &Plan) -> std::io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let expected = expectations(plan.min_count(DATASET as usize) as u64, plan.seed);

    // Set-up: a cold start is one whole rep on a new loader and an empty
    // directory — allocator growth to the memory tier's size, first writes
    // into the directory.
    let mut setup = Vec::new();
    for _ in 0..plan.setup_reps() {
        let start = Instant::now();
        let rep = run_rep(plan, &expected, Check::Probe, None)?;
        setup.push(start.elapsed().as_secs_f64());
        record(&mut outcome, &rep);
    }
    // Every rep replays the same loads, so one untimed rep checks every
    // payload in full and the timed ones probe.
    let verified = run_rep(plan, &expected, Check::Full, None)?;
    record(&mut outcome, &verified);

    let timed = Instant::now();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    while walls.len() < plan.min_count(3) || timed.elapsed().as_secs_f64() < plan.seconds {
        let cpu = CpuClock::process();
        let rep = run_rep(plan, &expected, Check::Probe, None)?;
        cpus.push(cpu.elapsed_s());
        record(&mut outcome, &rep);
        outcome.check(if rep.stats == verified.stats {
            Ok(())
        } else {
            Err("a rep's tier counts differ from the first rep's".into())
        });
        walls.push(rep.steps.iter().sum::<f64>());
    }

    let per_rep = verified.steps.len() as f64;
    let loads = verified.loads as f64;
    outcome.put("steps_per_s", per_rep / median(&walls), walls.len());
    outcome.put("cpu_ms_per_step", median(&cpus) * 1e3 / per_rep, cpus.len());
    outcome.put("setup_s", median(&setup), setup.len());
    // A cache's quality is what it fails to serve: the share of loads the
    // memory tier missed. (Wrong payloads are failures, counted above.)
    outcome.put(
        "quality_gap",
        1.0 - verified.stats.from_memory as f64 / loads,
        1,
    );
    outcome.put(
        "cloud_step_ms",
        verified.stats.total_seconds() * 1e3 / per_rep,
        1,
    );
    outcome.put(
        "wire_kb_per_step",
        nfs_bytes_per_step(&verified) / 1024.0,
        1,
    );
    Ok(outcome)
}

/// Median µs per call of `f` over the ids `0..n`.
fn us_per_sample(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|id| {
            let t = Instant::now();
            f(id);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The traced run: untraced and traced reps in turn for 0.7 of the budget,
/// then probes of the tiers' public functions.
pub fn run_traced(plan: &Plan) -> std::io::Result<(Outcome, Vec<Vec<Span>>)> {
    let mut outcome = Outcome::default();
    let expected = expectations(plan.min_count(DATASET as usize) as u64, plan.seed);
    let mut tracer = Tracer::new(Instant::now(), 0);

    // Untraced and traced reps alternate, so both see the same weather.
    let mut walls = [Vec::new(), Vec::new()];
    let mut fills = Vec::new();
    let begun = Instant::now();
    let rep = loop {
        let traced = walls[0].len() > walls[1].len();
        let rep = run_rep(plan, &expected, Check::Probe, traced.then_some(&mut tracer))?;
        record(&mut outcome, &rep);
        // The read path only: the cold epoch's file creation is noisier than
        // any tracing overhead, and a span costs most next to a memory hit.
        walls[usize::from(traced)].push(rep.steps[rep.cold_steps..].iter().sum::<f64>());
        if traced {
            let cold: f64 = rep.steps[..rep.cold_steps].iter().sum();
            fills.push(expected.len() as f64 / cold);
            let enough = fills.len() >= plan.min_count(3);
            if enough && begun.elapsed().as_secs_f64() >= 0.7 * plan.seconds {
                break rep;
            }
        }
    };
    let [untraced, traced] = walls;
    let spans = tracer.into_spans();

    outcome.put("datacache.fill_samples_s", median(&fills), fills.len());
    for (metric, name) in [
        ("datacache.mem_hit_samples_s", "datacache.load_memory"),
        ("datacache.disk_hit_samples_s", "datacache.load_disk"),
    ] {
        let served: Vec<&Span> = spans.iter().filter(|s| s.name == name).collect();
        let ns: u64 = served.iter().map(|s| s.duration_ns()).sum();
        outcome.put(
            metric,
            served.len() as f64 / (ns as f64 / 1e9),
            served.len(),
        );
    }
    let loads = rep.loads as f64;
    outcome.put(
        "datacache.mem_hit_rate",
        rep.stats.from_memory as f64 / loads,
        1,
    );
    outcome.put("datacache.evictions", rep.evictions as f64, 1);
    outcome.put("datacache.nfs_bytes_per_step", nfs_bytes_per_step(&rep), 1);
    outcome.put(
        "datacache.virtual_ms_per_step",
        rep.stats.total_seconds() * 1e3 / rep.steps.len() as f64,
        1,
    );
    outcome.put(
        "trace.overhead_share",
        (median(&traced) - median(&untraced)) / median(&untraced),
        traced.len(),
    );

    // Probes: the decode stage and the disk tier through their own public
    // functions, on this workload's blobs.
    let n = plan.min_count(512) as u64;
    let cpu = CpuModel::default();
    let blobs: Vec<_> = (0..n).map(|id| synth_blob(id, PIXELS, plan.seed)).collect();
    let decode_us = us_per_sample(n, |id| {
        let (mut sample, _) = decode(&blobs[id as usize], &cpu).expect("synthetic blob");
        augment(&mut sample, id.is_multiple_of(2), &cpu);
        std::hint::black_box(sample);
    });
    outcome.put("datacache.decode_us_per_sample", decode_us, n as usize);
    let dir = TempDir::new(&plan.out_dir, "probe")?;
    let mut disk = DiskCache::open(&dir.0)?;
    let mut put_failed = false;
    let put_us = us_per_sample(n, |id| {
        put_failed |= disk.put(id, &blobs[id as usize]).is_err()
    });
    outcome.put("datacache.disk_put_us_per_sample", put_us, n as usize);
    let mut got = 0;
    let get_us = us_per_sample(n, |id| got += u64::from(disk.get(id).is_some()));
    outcome.put("datacache.disk_get_us_per_sample", get_us, n as usize);
    outcome.check(if put_failed || got != n {
        Err(format!("disk probe: {got} of {n} blobs read back"))
    } else {
        Ok(())
    });
    Ok((outcome, vec![spans]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> Plan {
        Plan {
            seed: 9,
            seconds: 0.0,
            smoke: true,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-datacache"),
        }
    }

    #[test]
    fn expectations_are_a_pure_function_of_the_seed() {
        assert_eq!(expectations(16, 4), expectations(16, 4));
        assert_ne!(expectations(16, 4), expectations(16, 5));
        // Even ids are flipped: their ends swap relative to a plain decode.
        let plain = decode(&synth_blob(2, PIXELS, 4), &CpuModel::default())
            .unwrap()
            .0;
        let want = expectations(3, 4)[2];
        assert_eq!(want.first, plain.data[PIXELS - 1].to_bits());
        assert_eq!(want.last, plain.data[0].to_bits());
    }

    #[test]
    fn a_rep_serves_every_tier_correctly_and_cleans_up() {
        let expected = expectations(256, 9);
        let rep = run_rep(&plan(), &expected, Check::Full, None).unwrap();
        assert_eq!(rep.steps.len(), 5 * 4);
        assert_eq!(rep.cold_steps, 4);
        assert_eq!((rep.loads, rep.wrong), (5 * 256, 0));
        assert_eq!(rep.stats.from_nfs, 256);
        assert!(rep.stats.from_memory > 0 && rep.stats.from_disk > 0);
        assert!(rep.evictions > 0);
        let left = std::fs::read_dir(plan().out_dir.join("tmp")).map_or(0, |d| d.count());
        assert_eq!(left, 0, "the temp dir must be gone");
    }

    #[test]
    fn a_wrong_payload_is_counted() {
        let mut expected = expectations(4, 9);
        let good = direct(1, 9);
        assert!(expected[1].probe(&good));
        expected[1].last ^= 1;
        assert!(!expected[1].probe(&good));
        let mut flipped = good.clone();
        flipped.data.reverse();
        assert!(!expectations(4, 9)[1].probe(&flipped));
    }
}
