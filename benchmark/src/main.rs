//! The repo's benchmark: four workloads over the real stack, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//! See `benchmark/README.md` for every workload and metric by name.
//!
//! `--workload W` runs one workload in this process and prints, as the last
//! line of standard output, the result object the driver reads. Without it,
//! every workload runs in a process of its own (`--repeat K` times) and the
//! results land in `benchmark/out/results.json`.

mod agg;
mod datacache;
mod hitopk;
mod inputs;
mod procfs;
mod report;
mod stats;
mod suite;
mod sys;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

use cloudtrain::collectives::Peer;

use report::{result_file, result_line, unit_of, Metric, Outcome, END_TO_END, PER_LAYER};
use train::TrainKind;

/// The workloads, in the order of `BENCHMARK.json`.
pub const WORKLOADS: [&str; 4] = [
    "train_sparse_resnet",
    "train_dense_tfm",
    "agg_sparse_25m",
    "datacache_epochs",
];

/// Seconds one run measures unless `--seconds` says otherwise: the
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed: feeds `DistConfig.seed`, the gradient generator and
    /// the NFS and sampler seeds.
    pub seed: u64,
    /// Seconds of timed work.
    pub seconds: f64,
    /// Smoke run: every count and size divided by ten; not for claims.
    pub smoke: bool,
    /// Where traces, results and temporary directories go.
    pub out_dir: PathBuf,
}

impl Plan {
    /// A count or size `n`, or a tenth of it (at least 1) in a smoke run.
    pub fn min_count(&self, n: usize) -> usize {
        if self.smoke {
            (n / 10).max(1)
        } else {
            n
        }
    }

    /// Cold starts per run; `setup_s` is their median.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

/// Rank 0 decides, everyone learns: stores rank 0's `verdict`, and returns
/// it on every rank. The second barrier keeps a fast rank 0 from storing
/// the next verdict before a slow rank has read this one.
pub fn agree(peer: &Peer, flag: &AtomicBool, verdict: bool) -> bool {
    if peer.rank() == 0 {
        flag.store(verdict, Ordering::SeqCst);
    }
    peer.barrier();
    let agreed = flag.load(Ordering::SeqCst);
    peer.barrier();
    agreed
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
    smoke: bool,
}

const USAGE: &str = "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
                     [--traced] [--repeat K] [--smoke]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        traced: false,
        repeat: 1,
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(v))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds must lie in (0, 60], got {v}"));
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--repeat" => {
                args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload in this process. Returns the outcome and its metrics
/// in catalogue order.
fn run_workload(
    workload: &str,
    traced: bool,
    plan: &Plan,
) -> std::io::Result<(Outcome, Vec<Metric>)> {
    let kind = match workload {
        "train_sparse_resnet" => Some(TrainKind::SparseResnet),
        "train_dense_tfm" => Some(TrainKind::DenseTfm),
        _ => None,
    };
    if !traced {
        let mut outcome = match (workload, kind) {
            (_, Some(kind)) => train::run_untraced(kind, plan),
            ("agg_sparse_25m", _) => agg::run_untraced(plan),
            _ => datacache::run_untraced(plan)?,
        };
        if outcome.failed > 0 || outcome.metrics.is_empty() {
            // A failed run has no numbers worth reading.
            return Ok((outcome, Vec::new()));
        }
        let rss = procfs::peak_rss_mb().expect("/proc/self/status is unreadable");
        outcome.put("peak_rss_mb", rss, 1);
        let names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let metrics = outcome.complete(&names, false);
        return Ok((outcome, metrics));
    }
    let (outcome, ranks) = match (workload, kind) {
        (_, Some(kind)) => train::run_traced(kind, plan),
        ("agg_sparse_25m", _) => agg::run_traced(plan),
        _ => datacache::run_traced(plan)?,
    };
    let path = plan.out_dir.join(format!("{workload}.trace.jsonl"));
    trace::write_jsonl(&path, &ranks)?;
    let spans: usize = ranks.iter().map(Vec::len).sum();
    println!("trace: {spans} spans -> {}", path.display());
    let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let metrics = outcome.complete(&names, true);
    Ok((outcome, metrics))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("benchmark/out");
    let Some(workload) = &args.workload else {
        return suite::run(&args, &out_dir);
    };
    let plan = Plan {
        seed: args.seed,
        seconds: if args.smoke {
            args.seconds / 10.0
        } else {
            args.seconds
        },
        smoke: args.smoke,
        out_dir,
    };
    // One CPU for every rank thread (see `sys`): a run that could not
    // be pinned still measures, only less steadily, so it says so and goes on.
    match sys::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to cpu {cpu}"),
        Err(why) => eprintln!("{workload}: not pinned to one cpu: {why}"),
    }
    let (outcome, metrics) = match run_workload(workload, args.traced, &plan) {
        Ok(done) => done,
        Err(why) => {
            eprintln!("{workload}: {why}");
            return ExitCode::FAILURE;
        }
    };
    let stamp = if plan.smoke {
        "  [smoke: not for claims]"
    } else {
        ""
    };
    println!(
        "{workload} seed={} seconds={}{stamp}",
        plan.seed, plan.seconds
    );
    for m in &metrics {
        println!(
            "  {:<36} {:>16.6} {:<8} n={}",
            m.name,
            m.value,
            unit_of(m.name),
            m.samples
        );
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  {:<36} {:>16.6} {:<8} n={}",
        "failed_share", share, "share", outcome.attempted
    );
    for why in &outcome.failures {
        eprintln!("{workload}: FAILED: {why}");
    }
    if outcome.failed > 0 || metrics.is_empty() {
        eprintln!(
            "{workload}: {} of {} checks failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    let header = format!(
        "\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"smoke\": {}",
        plan.seed, plan.seconds, plan.smoke
    );
    let mode = if args.traced { "layers" } else { "e2e" };
    let file = plan.out_dir.join(format!("{workload}.{mode}.json"));
    let written = std::fs::create_dir_all(&plan.out_dir)
        .and_then(|()| std::fs::write(&file, result_file(&header, &outcome, &metrics)));
    if let Err(why) = written {
        eprintln!("{}: {why}", file.display());
        return ExitCode::FAILURE;
    }
    println!("{}", result_line(&outcome, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload agg_sparse_25m --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("agg_sparse_25m"));
        assert_eq!((a.seed, a.seconds, a.traced, a.repeat), (7, 20.0, true, 1));
        let d = parse("").unwrap();
        assert_eq!((d.workload, d.seed, d.seconds), (None, 42, RUN_SECONDS));
        assert!(parse("--repeat 2 --traced --smoke").unwrap().smoke);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for line in [
            "--workload nope",
            "--seed x",
            "--seed",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--repeat 0",
            "--frobnicate",
        ] {
            assert!(parse(line).is_err(), "{line:?} must be refused");
        }
    }

    #[test]
    fn smoke_divides_counts_by_ten() {
        let plan = |smoke| Plan {
            seed: 1,
            seconds: 1.0,
            smoke,
            out_dir: PathBuf::new(),
        };
        assert_eq!(
            (plan(false).min_count(30), plan(false).setup_reps()),
            (30, 3)
        );
        assert_eq!((plan(true).min_count(30), plan(true).setup_reps()), (3, 1));
        assert_eq!(plan(true).min_count(3), 1);
    }

    /// The catalogue in `report.rs` and `BENCHMARK.json` are one list kept
    /// in two places (the driver reads the JSON, the program the catalogue).
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        use serde::Value;
        use suite::{field, number};
        fn array(v: &Value) -> &[Value] {
            match v {
                Value::Array(items) => items,
                other => panic!("not an array: {other:?}"),
            }
        }
        fn string(v: &Value, key: &str) -> String {
            match field(v, key) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key}: not a string: {other:?}"),
            }
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = suite::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            array(field(&json, key).unwrap())
                .iter()
                .map(|m| (string(m, "name"), string(m, "unit"), string(m, "better")))
                .collect()
        };
        let better = |higher: bool| if higher { "higher" } else { "lower" }.to_string();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), better(m.higher)))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), better(m.2)))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        for (m, j) in END_TO_END
            .iter()
            .zip(array(field(&json, "end_to_end").unwrap()))
        {
            assert_eq!(number(field(j, "bound").unwrap()), m.bound, "{}", m.name);
        }
        let workloads: Vec<String> = array(field(&json, "workloads").unwrap())
            .iter()
            .map(|w| string(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(number(field(&json, "run_seconds").unwrap()), RUN_SECONDS);
        assert_eq!(
            array(field(&json, "paths").unwrap()),
            [Value::Str("benchmark".into())]
        );
    }
}
