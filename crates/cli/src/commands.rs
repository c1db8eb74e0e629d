//! Subcommand implementations.

use cloudtrain::collectives::{optimize_ring_order, PairCost};
use cloudtrain::compress::gpu_cost::{mstopk_cost, GpuRates};
use cloudtrain::datacache::disk::DiskCache;
use cloudtrain::engine::autotune::{autotune_layers, wfbp_model_for, AutotuneConfig, CommModel};
use cloudtrain::engine::dawnbench::{
    dense_only_schedule, evaluate_schedule, paper_schedule, published_leaderboard,
};
use cloudtrain::engine::trainer::workload_layer_ranges;
use cloudtrain::obs::{percentile, Registry};
use cloudtrain::prelude::*;
use cloudtrain::simnet::collectives::{
    sim_gtopk_all_reduce, sim_hitopk, sim_naive_sparse_all_gather, sim_quantized_all_reduce,
    sim_torus_all_reduce, sim_tree_all_reduce_hier,
};
use cloudtrain::simnet::probe_pairwise;
use cloudtrain::simnet::ClusterSpec;

use crate::args::{Args, ParseError};

/// Prints the usage text.
pub fn print_help() {
    println!(
        "cloudtrain — scalable distributed training on public cloud clusters\n\
         (Rust reproduction of Shi et al., MLSys 2021)\n\n\
         USAGE: cloudtrain <command> [--flag value]...\n\n\
         COMMANDS:\n\
         \x20 train      real distributed training on worker threads\n\
         \x20            --workload mlp|resnet|vgg|transformer  --strategy <s>\n\
         \x20            --nodes N --gpus N --epochs N --iters N --lr F\n\
         \x20            --rho F --seed N\n\
         \x20 simulate   iteration breakdown on a simulated cluster\n\
         \x20            --model <m> --strategy <s> --nodes N --cloud <c>\n\
         \x20 sweep      all strategies on one model (Table 3-style row)\n\
         \x20            --model <m> --nodes N --cloud <c>\n\
         \x20 dawnbench  the 28-epoch multi-resolution schedule (Tables 4/5)\n\
         \x20            --cloud tencent|aliyun|ib\n\
         \x20 faults     BSP-penalty-vs-resilience ablation under injected\n\
         \x20            faults: dense 2DTAR retries every drop, sparse\n\
         \x20            MSTopK degrades instead\n\
         \x20            --model <m> --nodes N --cloud <c> --seeds N\n\
         \x20            --drops F --spikes F --stragglers N --rho F\n\
         \x20 trace      deterministic observability snapshot: per-stage\n\
         \x20            comm-plane spans (Fig. 8) and cache-tier hit\n\
         \x20            rates (Fig. 9) as a table plus byte-stable JSONL\n\
         \x20            --model <m> --strategy <s> --nodes N --cloud <c>\n\
         \x20            --samples N --out FILE\n\
         \x20 conformance  oracle differential fuzzing, cost-model (Eqs.\n\
         \x20            7-10) validation, and metamorphic compressor\n\
         \x20            properties over the seed corpus; byte-stable\n\
         \x20            table plus JSONL report\n\
         \x20            --corpus FILE --out FILE --fuzz N --seed N --deny\n\
         \x20 lint       determinism & safety analysis of what clippy cannot\n\
         \x20            state, over every workspace crate: per-file rules\n\
         \x20            (literal indexing and path-form unwrap in panic-free\n\
         \x20            crates, checked decode arithmetic) plus the\n\
         \x20            call-graph/dataflow passes (twin_drift,\n\
         \x20            coverage_conformance, cast_flow,\n\
         \x20            float_determinism)\n\
         \x20            --root DIR --out FILE --deny --rule R\n\
         \x20            --explain RULE\n\
         \x20 reorder    probe pairwise alpha/beta over the modelled fabric\n\
         \x20            and optimize the inter-node ring order on a\n\
         \x20            rack-scrambled cost model\n\
         \x20            --nodes N --cloud <c> --bytes N --seed N\n\
         \x20            --scramble on|off\n\
         \x20 autotune   per-layer aggregation autotuner: price dense-torus\n\
         \x20            vs HiTopKComm vs the O(k) sparse\n\
         \x20            allreduce per layer on the probed alpha/beta\n\
         \x20            topology, with the crossover report\n\
         \x20            --workload mlp|resnet|vgg|transformer --nodes N\n\
         \x20            --gpus N --cloud <c> --rho F --overlap F\n\
         \x20            --samplings N --out FILE\n\
         \x20 tails      p50/p95/p99 makespan sweep across fault families:\n\
         \x20            retry/degrade ladder vs the probed deadline budget\n\
         \x20            --nodes N --cloud <c> --seeds N --bytes N --mult F\n\
         \x20            --deny\n\
         \x20 elastic    scripted membership churn on the elastic runtime:\n\
         \x20            heartbeat timeline, consistent-hash resharding\n\
         \x20            accounting, and (replay mode) checkpoint-replay\n\
         \x20            training checked bitwise against its in-memory twin\n\
         \x20            --scenario steady|evict|evict-join|rack\n\
         \x20            --mode replay|reshard --nodes N --gpus N\n\
         \x20            --epochs N --iters N --rho F --seed N --out FILE\n\
         \x20 help       this text\n\n\
         STRATEGIES: dense (TreeAR), 2dtar, topk, mstopk, gtopk, qsgd\n\
         MODELS: resnet50-224, resnet50-96, resnet50-128, resnet50-288,\n\
         \x20       vgg19, transformer"
    );
}

/// Routes a parsed command line.
///
/// # Errors
/// Returns a [`ParseError`] for unknown commands, flags, or values.
pub fn dispatch(args: &Args) -> Result<(), ParseError> {
    match args.command.as_str() {
        "train" => cmd_train(args),
        "simulate" => cmd_simulate(args),
        "sweep" => cmd_sweep(args),
        "dawnbench" => cmd_dawnbench(args),
        "faults" => cmd_faults(args),
        "trace" => cmd_trace(args),
        "conformance" => cmd_conformance(args),
        "lint" => cmd_lint(args),
        "reorder" => cmd_reorder(args),
        "autotune" => cmd_autotune(args),
        "tails" => cmd_tails(args),
        "elastic" => cmd_elastic(args),
        other => Err(ParseError(format!(
            "unknown command `{other}` (try `cloudtrain help`)"
        ))),
    }
}

fn strategy_of(args: &Args) -> Result<Strategy, ParseError> {
    let rho: f64 = args.num_or("rho", 0.01)?;
    Ok(match args.get_or("strategy", "mstopk") {
        "dense" => Strategy::DenseTreeAr,
        "2dtar" => Strategy::DenseTorus,
        "topk" => Strategy::TopKNaiveAg { rho },
        "mstopk" => Strategy::MsTopKHiTopK {
            rho,
            samplings: args.num_or("samplings", 30)?,
        },
        "gtopk" => Strategy::GTopK { rho },
        "qsgd" => Strategy::Qsgd {
            levels: args.num_or("levels", 127)?,
        },
        other => return Err(ParseError(format!("unknown strategy `{other}`"))),
    })
}

fn model_of(args: &Args) -> Result<ModelProfile, ParseError> {
    Ok(match args.get_or("model", "resnet50-96") {
        "resnet50-224" => ModelProfile::resnet50_224(),
        "resnet50-96" => ModelProfile::resnet50_96(),
        "resnet50-128" => ModelProfile::resnet50_128(),
        "resnet50-288" => ModelProfile::resnet50_288(),
        "vgg19" => ModelProfile::vgg19(),
        "transformer" => ModelProfile::transformer(),
        other => return Err(ParseError(format!("unknown model `{other}`"))),
    })
}

fn cluster_of(args: &Args) -> Result<ClusterSpec, ParseError> {
    cluster_with(args, 16)
}

fn cluster_with(args: &Args, default_nodes: usize) -> Result<ClusterSpec, ParseError> {
    let nodes: usize = args.num_or("nodes", default_nodes)?;
    Ok(match args.get_or("cloud", "tencent") {
        "tencent" => clouds::tencent(nodes),
        "aws" => clouds::aws(nodes),
        "aliyun" => clouds::aliyun(nodes),
        "ib" => clouds::infiniband_100g(nodes),
        other => return Err(ParseError(format!("unknown cloud `{other}`"))),
    })
}

fn cmd_train(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&[
        "workload",
        "strategy",
        "nodes",
        "gpus",
        "epochs",
        "iters",
        "lr",
        "rho",
        "samplings",
        "levels",
        "seed",
        "batch",
    ])?;
    let workload = match args.get_or("workload", "mlp") {
        "mlp" => Workload::Mlp,
        "resnet" => Workload::ResNetLite,
        "vgg" => Workload::VggLite,
        "transformer" => Workload::Transformer,
        other => return Err(ParseError(format!("unknown workload `{other}`"))),
    };
    let cfg = DistConfig {
        nodes: args.num_or("nodes", 2)?,
        gpus_per_node: args.num_or("gpus", 4)?,
        epochs: args.num_or("epochs", 4)?,
        iters_per_epoch: args.num_or("iters", 12)?,
        lr: args.num_or("lr", 0.08)?,
        local_batch: args.num_or("batch", 8)?,
        seed: args.num_or("seed", 42)?,
        ..DistConfig::small(strategy_of(args)?, workload)
    };
    cfg.strategy.check_world(cfg.world()).map_err(ParseError)?;
    println!(
        "training {:?} with {} on {}x{} workers...",
        workload,
        cfg.strategy.label(),
        cfg.nodes,
        cfg.gpus_per_node
    );
    let report = DistTrainer::new(cfg).run();
    println!(
        "{:<7} {:>10} {:>8} {:>8} {:>12}",
        "epoch", "loss", "top1", "top5", "residual"
    );
    for e in &report.epochs {
        println!(
            "{:<7} {:>10.4} {:>7.1}% {:>7.1}% {:>12.3}",
            e.epoch,
            e.train_loss,
            e.val_top1 * 100.0,
            e.val_top5 * 100.0,
            e.residual_norm
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&[
        "model",
        "strategy",
        "nodes",
        "cloud",
        "rho",
        "samplings",
        "levels",
        "datacache",
        "pto",
    ])?;
    let system = SystemConfig {
        strategy: strategy_of(args)?,
        datacache: args.get_or("datacache", "on") != "off",
        pto: args.get_or("pto", "on") != "off",
    };
    let cluster = cluster_of(args)?;
    system
        .strategy
        .check_world(cluster.world())
        .map_err(ParseError)?;
    let model = IterationModel::new(cluster, system, model_of(args)?);
    let b = model.breakdown();
    println!(
        "{} with {} on {} GPUs:",
        model.profile.name,
        system.strategy.label(),
        model.cluster.world()
    );
    println!("  I/O (visible)    {:>10.2} ms", b.io * 1e3);
    println!("  FF&BP            {:>10.2} ms", b.ffbp * 1e3);
    println!("  compression      {:>10.2} ms", b.compression * 1e3);
    println!(
        "  comm             {:>10.2} ms ({:.2} ms visible)",
        b.comm_total * 1e3,
        b.comm_visible * 1e3
    );
    println!("  LARS             {:>10.2} ms", b.lars * 1e3);
    println!("  iteration        {:>10.2} ms", b.total * 1e3);
    println!(
        "  throughput       {:>10.0} samples/s ({:.1}% scaling efficiency)",
        model.throughput(),
        model.scaling_efficiency() * 100.0
    );
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&["model", "nodes", "cloud", "rho"])?;
    let cluster = cluster_of(args)?;
    let profile = model_of(args)?;
    let rho: f64 = args.num_or("rho", 0.01)?;
    println!(
        "{} on {} GPUs ({}):",
        profile.name,
        cluster.world(),
        args.get_or("cloud", "tencent")
    );
    println!("{:<12} {:>14} {:>8}", "strategy", "samples/s", "SE");
    for strategy in [
        Strategy::DenseTreeAr,
        Strategy::DenseTorus,
        Strategy::TopKNaiveAg { rho },
        Strategy::MsTopKHiTopK { rho, samplings: 30 },
        Strategy::GTopK { rho },
        Strategy::Qsgd { levels: 127 },
    ] {
        if let Err(reason) = strategy.check_world(cluster.world()) {
            println!("{:<12} {reason}", strategy.label());
            continue;
        }
        let m = IterationModel::new(
            cluster,
            SystemConfig {
                strategy,
                datacache: true,
                pto: true,
            },
            profile.clone(),
        );
        println!(
            "{:<12} {:>14.0} {:>7.1}%",
            strategy.label(),
            m.throughput(),
            m.scaling_efficiency() * 100.0
        );
    }
    Ok(())
}

fn cmd_dawnbench(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&["cloud", "nodes"])?;
    let cluster = cluster_of(args)?;
    let result = evaluate_schedule(cluster, &paper_schedule());
    println!("28-epoch DAWNBench schedule on {} GPUs:", cluster.world());
    for s in &result.stages {
        println!(
            "  {:<22} {:>2} epochs  {:>9.0} samples/s  SE {:>3.0}%  {:>6.1}s",
            s.name,
            s.epochs,
            s.system_throughput,
            s.scaling_efficiency * 100.0,
            s.seconds
        );
    }
    let dense = evaluate_schedule(cluster, &dense_only_schedule());
    println!(
        "total: {:.0}s (dense-only ablation: {:.0}s)",
        result.total_seconds, dense.total_seconds
    );
    let best = published_leaderboard()
        .iter()
        .map(|e| e.seconds)
        .fold(f64::INFINITY, f64::min);
    println!("best published 128-V100 entry: {best:.0}s");
    Ok(())
}

fn cmd_faults(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&[
        "model",
        "nodes",
        "cloud",
        "rho",
        "seeds",
        "drops",
        "spikes",
        "stragglers",
    ])?;
    let cluster = cluster_of(args)?;
    let profile = model_of(args)?;
    let rho: f64 = args.num_or("rho", 0.01)?;
    let seeds: u64 = args.num_or("seeds", 4)?;
    let drops: f64 = args.num_or("drops", 0.01)?;
    let spikes: f64 = args.num_or("spikes", 0.01)?;
    let stragglers: usize = args.num_or("stragglers", 2)?;
    if !(0.0..=1.0).contains(&drops) || !(0.0..=1.0).contains(&spikes) {
        return Err(ParseError(
            "--drops and --spikes must be probabilities in [0, 1]".into(),
        ));
    }
    if stragglers > cluster.nodes {
        return Err(ParseError(format!(
            "--stragglers {} exceeds the {}-node cluster",
            stragglers, cluster.nodes
        )));
    }
    println!(
        "{} on {} GPUs: {:.1}% drops, {:.1}% spikes, {} straggler(s)",
        profile.name,
        cluster.world(),
        drops * 100.0,
        spikes * 100.0,
        stragglers
    );
    println!(
        "{:<6} {:<12} {:<8} {:>10} {:>10} {:>10} {:>7} {:>7} {:>9} {:>9}",
        "seed",
        "strategy",
        "policy",
        "iter ms",
        "fault ms",
        "strag ms",
        "drops",
        "retry",
        "escalate",
        "degrade"
    );
    for seed in 0..seeds {
        let mut plan = FaultPlan::new(seed)
            .with_drops(drops)
            .with_spikes(spikes, 2e-3);
        for node in 0..stragglers {
            plan = plan.straggle(node, 1.5);
        }
        for strategy in [
            Strategy::DenseTorus,
            Strategy::MsTopKHiTopK { rho, samplings: 30 },
        ] {
            let m = IterationModel::new(
                cluster,
                SystemConfig {
                    strategy,
                    datacache: true,
                    pto: true,
                },
                profile.clone(),
            )
            .with_faults(plan.clone());
            let policy = match m.policy().mode {
                DeadlineMode::Retry => "retry",
                DeadlineMode::Degrade => "degrade",
            };
            let b = m.breakdown();
            let c = m.fault_counters();
            println!(
                "{:<6} {:<12} {:<8} {:>10.2} {:>10.2} {:>10.2} {:>7} {:>7} {:>9} {:>9}",
                seed,
                strategy.label(),
                policy,
                b.total * 1e3,
                b.fault_delay * 1e3,
                b.straggler * 1e3,
                c.drops,
                c.retries,
                c.escalations,
                c.degraded
            );
        }
    }
    println!(
        "policy asymmetry: the dense barrier must retry every dropped hop\n\
         until it lands; the sparse path abandons it after one timeout and\n\
         lets error feedback re-inject the payload next step."
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&[
        "model",
        "strategy",
        "nodes",
        "cloud",
        "rho",
        "samplings",
        "levels",
        "samples",
        "out",
    ])?;
    let cluster = cluster_of(args)?;
    let profile = model_of(args)?;
    let strategy = strategy_of(args)?;
    strategy.check_world(cluster.world()).map_err(ParseError)?;
    let samples: u64 = args.num_or("samples", 256)?;
    let mut reg = Registry::new();

    // Plane 1: the strategy's collective schedule on the simulated
    // cluster, spans charged from virtual time (the same schedule
    // IterationModel prices — see `comm_seconds_on`).
    let d = profile.params;
    let mut sim = NetSim::new(cluster);
    sim.attach_obs();
    match strategy {
        Strategy::DenseTreeAr => {
            sim_tree_all_reduce_hier(&mut sim, &cluster, d * 4);
        }
        Strategy::DenseTorus => {
            sim_torus_all_reduce(&mut sim, &cluster, d * 2);
        }
        Strategy::TopKNaiveAg { rho } => {
            let k = ((d as f64 * rho) as usize).max(1);
            sim_naive_sparse_all_gather(&mut sim, &cluster, k);
        }
        Strategy::MsTopKHiTopK { rho, samplings } => {
            let n = cluster.gpus_per_node;
            let shard = d.div_ceil(n);
            let k = ((d as f64 * rho / n as f64) as usize).max(1);
            let topk_s = mstopk_cost(shard, k, samplings, &GpuRates::default()).seconds;
            sim_hitopk(&mut sim, &cluster, d, 4, rho, topk_s);
        }
        Strategy::GTopK { rho } => {
            let k = ((d as f64 * rho) as usize).max(1);
            sim_gtopk_all_reduce(&mut sim, &cluster, k, 4);
        }
        Strategy::Qsgd { levels } => {
            let bits = (2 * levels as u32 + 1).next_power_of_two().trailing_zeros();
            sim_quantized_all_reduce(&mut sim, &cluster, d, bits as usize);
        }
    }
    sim.publish_obs();
    if let Some(comm) = sim.take_obs() {
        reg.merge(&comm);
    }

    // The modelled iteration decomposition as gauges (`iter/*`).
    IterationModel::new(
        cluster,
        SystemConfig {
            strategy,
            datacache: true,
            pto: true,
        },
        profile.clone(),
    )
    .breakdown()
    .publish(&mut reg);

    // Plane 2: the real cache implementation, spans in modelled virtual
    // seconds. Epoch 0 pulls everything from NFS, epoch 1 hits the
    // memory tier; a fresh loader over the same disk directory plays the
    // process-restart epoch where the disk tier serves.
    // Keyed on the run parameters so concurrent invocations (e.g. the
    // parallel test harness) never share a directory.
    let cache_dir = std::env::temp_dir().join(format!(
        "cloudtrain-trace-{}-{}-{samples}",
        std::process::id(),
        strategy.label()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let pixels = 96 * 96 * 3;
    let open_disk =
        || DiskCache::open(&cache_dir).map_err(|e| ParseError(format!("cache dir {e} (trace)")));
    let mut loader = CachedLoader::new(
        SyntheticNfs::new(pixels, 9),
        Some(open_disk()?),
        LoaderConfig::default(),
    );
    for epoch in 0..2 {
        let _ = epoch;
        for id in 0..samples {
            let (_, by, t) = loader.load(id);
            reg.charge(by.span_name(), t);
        }
    }
    loader.publish_obs(&mut reg);
    let mut restarted = CachedLoader::new(
        SyntheticNfs::new(pixels, 9),
        Some(open_disk()?),
        LoaderConfig::default(),
    );
    for id in 0..samples {
        let (_, by, t) = restarted.load(id);
        reg.charge(by.span_name(), t);
    }
    restarted.publish_obs(&mut reg);
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!(
        "trace: {} with {} on {} GPUs, {} samples/epoch\n",
        profile.name,
        strategy.label(),
        cluster.world(),
        samples
    );
    print!("{}", reg.breakdown_table());
    let tiers = [
        ("memory", reg.counter("cache/from_memory")),
        ("disk", reg.counter("cache/from_disk")),
        ("nfs", reg.counter("cache/from_nfs")),
    ];
    let total: u64 = tiers.iter().map(|(_, v)| v).sum();
    println!("\ncache tier hit rates ({total} loads):");
    for (name, served) in tiers {
        println!(
            "  {:<8} {:>8} {:>6.1}%",
            name,
            served,
            100.0 * served as f64 / total.max(1) as f64
        );
    }
    match args.get_or("out", "") {
        "" => {
            println!("\nJSONL snapshot:");
            print!("{}", reg.to_jsonl());
        }
        path => {
            std::fs::write(path, reg.to_jsonl())
                .map_err(|e| ParseError(format!("--out {path}: {e}")))?;
            println!("\nwrote JSONL snapshot to {path}");
        }
    }
    Ok(())
}

fn cmd_conformance(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&["corpus", "out", "deny", "fuzz", "seed"])?;
    let text = match args.get_or("corpus", "") {
        "" => cloudtrain::conformance::shipped_corpus().to_string(),
        path => std::fs::read_to_string(path)
            .map_err(|e| ParseError(format!("--corpus {path}: {e}")))?,
    };
    let mut cases = cloudtrain::conformance::corpus::parse(&text)
        .map_err(|e| ParseError(format!("corpus: {e}")))?;
    let fuzz: usize = args.num_or("fuzz", 0)?;
    if fuzz > 0 {
        let seed: u64 = args.num_or("seed", 42)?;
        cases.extend(cloudtrain::conformance::expand_fuzz(fuzz, seed));
    }
    let report = cloudtrain::conformance::run_cases(&cases);
    print!("{}", report.table());
    match args.get_or("out", "") {
        "" => {}
        path => {
            std::fs::write(path, report.to_jsonl())
                .map_err(|e| ParseError(format!("--out {path}: {e}")))?;
            // stderr, so stdout stays byte-identical across runs for the
            // CI gate's `cmp` regardless of where --out points.
            eprintln!("wrote JSONL report to {path}");
        }
    }
    if args.flag("deny") {
        if report.divergences() > 0 {
            return Err(ParseError(format!(
                "conformance --deny: {} diverging case(s)",
                report.divergences()
            )));
        }
        if report.coverage_missing() > 0 {
            return Err(ParseError(format!(
                "conformance --deny: {} uncovered collective x compressor pairing(s)",
                report.coverage_missing()
            )));
        }
    }
    Ok(())
}

fn cmd_lint(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&["root", "out", "deny", "rule", "explain"])?;
    // `--explain <rule>` prints the rule's doc entry and exits without
    // touching the tree at all.
    let explain_rule = args.get_or("explain", "");
    if !explain_rule.is_empty() {
        let text = cloudtrain_lint::explain::explain(explain_rule).ok_or_else(|| {
            ParseError(format!(
                "--explain {explain_rule}: unknown rule (known: {})",
                cloudtrain_lint::RULES.join(", ")
            ))
        })?;
        println!("{explain_rule}\n{}\n{text}", "-".repeat(explain_rule.len()));
        return Ok(());
    }
    let mut config = cloudtrain_lint::Config::default();
    match args.get_or("rule", "") {
        "" => {}
        rule if cloudtrain_lint::RULES.contains(&rule) => {
            config.only_rule = Some(rule.to_string());
        }
        rule => {
            return Err(ParseError(format!(
                "--rule {rule}: unknown rule (known: {})",
                cloudtrain_lint::RULES.join(", ")
            )))
        }
    }
    let root = match args.get_or("root", "") {
        "" => {
            let cwd = std::env::current_dir()
                .map_err(|e| ParseError(format!("cannot read current dir: {e}")))?;
            cloudtrain_lint::find_workspace_root(&cwd).ok_or_else(|| {
                ParseError("no workspace root above the current dir (pass --root)".into())
            })?
        }
        dir => std::path::PathBuf::from(dir),
    };
    let report = cloudtrain_lint::run_workspace_with(&root, &config)
        .map_err(|e| ParseError(format!("lint failed: {e}")))?;
    print!("{}", report.table());
    match args.get_or("out", "") {
        "" => {}
        path => {
            std::fs::write(path, report.to_jsonl())
                .map_err(|e| ParseError(format!("--out {path}: {e}")))?;
            // stderr, so stdout stays byte-identical across runs for the
            // CI gate's `cmp` regardless of where --out points.
            eprintln!("wrote JSONL report to {path}");
        }
    }
    if args.flag("deny") && !report.clean() {
        return Err(ParseError(format!(
            "lint --deny: {} finding(s) not covered by a suppression",
            report.findings.len()
        )));
    }
    Ok(())
}

/// Probes the clean fabric and runs the seeded ring-order optimizer over
/// it. With `scramble` the cost model plays interleaved rack placement
/// (cross-parity links at 2×α / 3×β — the tail gauntlet's fabric), so the
/// identity ring crosses racks on every hop and the optimizer has
/// something to recover. Pure: same (spec, bytes, seed) → same order.
fn probed_ring_order(
    spec: &ClusterSpec,
    bytes: usize,
    seed: u64,
    scramble: bool,
) -> (Vec<usize>, f64, f64) {
    let est = probe_pairwise(spec, &FaultPlan::new(seed));
    let (alpha, beta) = est.worst_link();
    let m = spec.nodes;
    let mut cost =
        PairCost::from_matrices(m, est.alpha_matrix().to_vec(), est.beta_matrix().to_vec());
    if scramble {
        for src in 0..m {
            for dst in 0..m {
                if src != dst && src % 2 != dst % 2 {
                    cost.set_link(src, dst, 2.0 * alpha, 3.0 * beta);
                }
            }
        }
    }
    let chunk = (bytes / spec.gpus_per_node.max(1) / m).max(1);
    let order = optimize_ring_order(&cost, chunk, seed);
    let identity: Vec<usize> = (0..m).collect();
    let identity_cost = cost.ring_cost(&identity, chunk);
    let optimized_cost = cost.ring_cost(&order, chunk);
    (order, identity_cost, optimized_cost)
}

fn cmd_reorder(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&["nodes", "cloud", "bytes", "seed", "scramble"])?;
    let spec = cluster_with(args, 4)?;
    if spec.nodes < 2 {
        return Err(ParseError("reorder needs at least 2 nodes".into()));
    }
    let bytes: usize = args.num_or("bytes", 1 << 20)?;
    let seed: u64 = args.num_or("seed", 0)?;
    let scramble = match args.get_or("scramble", "on") {
        "on" => true,
        "off" => false,
        other => {
            return Err(ParseError(format!(
                "--scramble takes on|off, got `{other}`"
            )))
        }
    };
    let est = probe_pairwise(&spec, &FaultPlan::new(seed));
    let (alpha, beta) = est.worst_link();
    println!(
        "probed {} nodes ({}): worst clean link alpha {:.3e}s beta {:.3e}s/B",
        spec.nodes,
        args.get_or("cloud", "tencent"),
        alpha,
        beta
    );
    if scramble {
        println!("rack scramble: cross-parity links at 2x alpha / 3x beta (interleaved placement)");
    }
    let (order, identity_cost, optimized_cost) = probed_ring_order(&spec, bytes, seed, scramble);
    let chunk = (bytes / spec.gpus_per_node.max(1) / spec.nodes).max(1);
    println!(
        "ring chunk {chunk} B ({} B payload / {} GPUs-per-node / {} nodes)",
        bytes, spec.gpus_per_node, spec.nodes
    );
    println!("{:<10} {:>12}  order", "ring", "cost");
    let identity: Vec<usize> = (0..spec.nodes).collect();
    println!(
        "{:<10} {:>10.2}us  {:?}",
        "identity",
        identity_cost * 1e6,
        identity
    );
    println!(
        "{:<10} {:>10.2}us  {:?}",
        "optimized",
        optimized_cost * 1e6,
        order
    );
    println!(
        "predicted gain: {:.2}x (seeded optimizer, seed {seed}; same seed -> same order)",
        identity_cost / optimized_cost
    );
    Ok(())
}

fn cmd_autotune(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&[
        "workload",
        "nodes",
        "gpus",
        "cloud",
        "rho",
        "overlap",
        "samplings",
        "out",
    ])?;
    let workload = match args.get_or("workload", "transformer") {
        "mlp" => Workload::Mlp,
        "resnet" => Workload::ResNetLite,
        "vgg" => Workload::VggLite,
        "transformer" => Workload::Transformer,
        other => return Err(ParseError(format!("unknown workload `{other}`"))),
    };
    let mut spec = cluster_with(args, 4)?;
    spec.gpus_per_node = args.num_or("gpus", spec.gpus_per_node)?;
    if spec.nodes < 2 || spec.gpus_per_node < 1 {
        return Err(ParseError(
            "autotune needs at least 2 nodes and 1 GPU per node".into(),
        ));
    }
    let cfg = AutotuneConfig {
        rho: args.num_or("rho", 0.01)?,
        overlap: args.num_or("overlap", 0.75)?,
        samplings: args.num_or("samplings", 30)?,
    };
    if !(0.0..=1.0).contains(&cfg.overlap) {
        return Err(ParseError("--overlap must be in [0, 1]".into()));
    }
    if !(0.0 < cfg.rho && cfg.rho <= 1.0) {
        return Err(ParseError("--rho must be in (0, 1]".into()));
    }
    let ranges = workload_layer_ranges(workload);
    let model = CommModel::new(spec);
    let report = autotune_layers(&ranges, &model, &cfg);
    println!(
        "autotune: {workload:?} ({} layers) on {}x{} ({}), rho {} overlap {}",
        ranges.len(),
        spec.nodes,
        spec.gpus_per_node,
        args.get_or("cloud", "tencent"),
        cfg.rho,
        cfg.overlap
    );
    println!("{:<16} {:>8} {:>16}", "scheme", "layers", "forced total");
    let counts = report.counts();
    for (slot, scheme) in cloudtrain::engine::autotune::SCHEMES.iter().enumerate() {
        println!(
            "{:<16} {:>8} {:>14.3}ms",
            scheme.label(),
            counts[slot],
            report.forced_totals[slot] * 1e3
        );
    }
    println!(
        "{:<16} {:>8} {:>14.3}ms  (per-layer argmin)",
        "autotuned",
        ranges.len(),
        report.autotuned_total * 1e3
    );
    let wfbp = wfbp_model_for(&ranges, &spec);
    let t = report.iteration_time(&wfbp);
    println!(
        "wfbp-priced iteration: {:.3}ms total, {:.3}ms backward, {:.3}ms exposed comm",
        t.total * 1e3,
        t.backward * 1e3,
        t.exposed_comm * 1e3
    );
    println!(
        "recommendation: strategy {} for a single global knob",
        report.global_choice().label()
    );
    let c = &report.crossovers;
    match c.sparse_min_params {
        Some(p) => println!("crossover: sparse beats dense from ~{p} params/layer"),
        None => println!("crossover: dense wins at every scanned layer size"),
    }
    match c.oksparse_min_overlap {
        Some(omega) => println!(
            "crossover: O(k) beats HiTopKComm traffic from selection overlap >= {omega:.3} \
             (model: omega > 1/(m-1))"
        ),
        None => println!(
            "crossover: O(k) never beats HiTopKComm on {} nodes",
            spec.nodes
        ),
    }
    match args.get_or("out", "") {
        "" => {}
        path => {
            let json = serde_json::to_string(&report)
                .map_err(|e| ParseError(format!("serialize report: {e}")))?;
            std::fs::write(path, json + "\n")
                .map_err(|e| ParseError(format!("--out {path}: {e}")))?;
            eprintln!("wrote JSON report to {path}");
        }
    }
    Ok(())
}

/// One cell of the tail sweep: makespan and deadline-miss count for a
/// (plan, policy, workload) triple on the given cluster.
fn tails_cell(
    spec: &ClusterSpec,
    plan: &FaultPlan,
    policy: SimResilience,
    sparse: bool,
    bytes: usize,
) -> (f64, u64) {
    let mut sim = NetSim::new(*spec);
    sim.inject_faults(plan.clone(), policy);
    if sparse {
        sim_hitopk(&mut sim, spec, bytes / 4, 4, 0.01, 1e-4);
    } else {
        sim_torus_all_reduce(&mut sim, spec, bytes);
    }
    (sim.makespan(), sim.fault_counters().deadline_missed)
}

fn cmd_tails(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&["nodes", "cloud", "seeds", "bytes", "mult", "deny"])?;
    let spec = cluster_with(args, 4)?;
    if spec.nodes < 2 {
        return Err(ParseError("tails needs at least 2 nodes".into()));
    }
    let seeds: u64 = args.num_or("seeds", 4)?;
    if seeds == 0 {
        return Err(ParseError("--seeds must be at least 1".into()));
    }
    let bytes: usize = args.num_or("bytes", 1 << 20)?;
    let mult: f64 = args.num_or("mult", 1.5)?;
    if mult < 1.0 {
        return Err(ParseError(format!(
            "--mult {mult} < 1: a budget below the probed clean hop time \
             abandons clean traffic"
        )));
    }
    // The deadline budget comes from a probe of the clean fabric, not a
    // hand-tuned constant — the same derivation the tail gauntlet pins.
    let est = probe_pairwise(&spec, &FaultPlan::new(0));
    let (alpha, beta) = est.worst_link();
    println!(
        "tails on {} nodes ({}): probed alpha {:.3e}s beta {:.3e}s/B, hop budget {mult}x, {seeds} seed(s)",
        spec.nodes,
        args.get_or("cloud", "tencent"),
        alpha,
        beta
    );
    type PlanOf = fn(u64) -> FaultPlan;
    let families: [(&str, PlanOf); 3] = [
        ("drops", |seed| FaultPlan::new(seed).with_drops(0.05)),
        ("spikes", |seed| {
            FaultPlan::new(seed).with_spikes(0.10, 2e-3)
        }),
        ("stragglers", |seed| {
            FaultPlan::new(seed)
                .straggle(0, 1.5)
                .straggle(1, 1.2)
                .degrade_link(0, 8.0, 0.0, 0.05)
        }),
    ];
    println!(
        "{:<12} {:<8} {:<9} {:>11} {:>11} {:>11} {:>7}",
        "family", "workload", "policy", "p50", "p95", "p99", "missed"
    );
    let mut regressions: Vec<String> = Vec::new();
    for (family, plan_of) in families {
        for sparse in [false, true] {
            let workload = if sparse { "mstopk" } else { "2dtar" };
            // Dense traffic must not lose bytes under the ladder, sparse
            // traffic may degrade — the fault gauntlet's policy split.
            let (baseline_name, baseline_policy) = if sparse {
                ("degrade", SimResilience::degrading())
            } else {
                ("retry", SimResilience::default())
            };
            let deadline_policy = SimResilience::deadline_bounded(mult, alpha, beta);
            let mut spans: Vec<Vec<f64>> = vec![Vec::new(), Vec::new()];
            let mut missed = [0u64, 0u64];
            for seed in 0..seeds {
                let plan = plan_of(seed);
                for (slot, policy) in [baseline_policy, deadline_policy].into_iter().enumerate() {
                    let (makespan, cell_missed) = tails_cell(&spec, &plan, policy, sparse, bytes);
                    spans[slot].push(makespan);
                    missed[slot] += cell_missed;
                }
            }
            for (slot, policy_name) in [baseline_name, "deadline"].into_iter().enumerate() {
                println!(
                    "{:<12} {:<8} {:<9} {:>9.2}us {:>9.2}us {:>9.2}us {:>7}",
                    family,
                    workload,
                    policy_name,
                    percentile(&spans[slot], 0.50) * 1e6,
                    percentile(&spans[slot], 0.95) * 1e6,
                    percentile(&spans[slot], 0.99) * 1e6,
                    missed[slot]
                );
            }
            let baseline_p99 = percentile(&spans[0], 0.99);
            let deadline_p99 = percentile(&spans[1], 0.99);
            // The deadline only wins where the payload is β-dominated: an
            // abandoned hop ties the port for the full budget, while a
            // ridden-out hop frees it after serialization (α overlaps in
            // flight). Small chunks can therefore regress — surface it.
            if deadline_p99 > baseline_p99 + 1e-12 {
                regressions.push(format!(
                    "{family} {workload}: deadline p99 {:.2}us > {baseline_name} p99 {:.2}us",
                    deadline_p99 * 1e6,
                    baseline_p99 * 1e6
                ));
            }
        }
    }
    if regressions.is_empty() {
        println!("deadline p99 <= baseline p99 on every family x workload cell");
    } else {
        for r in &regressions {
            println!("WARNING {r} (alpha-dominated chunks: abandoning ties the port for the full budget)");
        }
        if args.flag("deny") {
            return Err(ParseError(format!(
                "tails --deny: deadline p99 regressed on {} cell(s)",
                regressions.len()
            )));
        }
    }
    Ok(())
}

fn cmd_elastic(args: &Args) -> Result<(), ParseError> {
    args.reject_unknown(&[
        "scenario", "mode", "nodes", "gpus", "epochs", "iters", "rho", "seed", "out",
    ])?;
    let nodes: usize = args.num_or("nodes", 8)?;
    let epochs: usize = args.num_or("epochs", 3)?;
    let seed: u64 = args.num_or("seed", 42)?;
    if nodes < 3 || epochs < 3 {
        return Err(ParseError(
            "elastic: every scenario needs --nodes >= 3 and --epochs >= 3".to_string(),
        ));
    }
    let scenario = match args.get_or("scenario", "evict") {
        "steady" => ElasticScenario::steady(seed, nodes, epochs),
        "evict" => ElasticScenario::evict(seed, nodes, epochs),
        "evict-join" => ElasticScenario::evict_join(seed, nodes, epochs),
        "rack" => ElasticScenario::rack_loss(seed, nodes, epochs),
        other => {
            return Err(ParseError(format!(
                "unknown scenario `{other}` (steady|evict|evict-join|rack)"
            )))
        }
    };
    let mode = args.get_or("mode", "replay");
    if !matches!(mode, "replay" | "reshard") {
        return Err(ParseError(format!(
            "unknown mode `{mode}` (replay|reshard)"
        )));
    }

    println!(
        "elastic scenario `{}`: {} nodes, {} epochs, seed {}",
        scenario.name, nodes, epochs, seed
    );
    let timeline = scenario.simulate();
    println!("membership events (virtual clock):");
    for e in &timeline.events {
        println!("  t={:>6.2}s  node {:>3}  {:?}", e.at, e.node, e.kind);
    }
    let resharding = timeline.reshard_events(scenario.seed, scenario.dataset_len);
    println!("resharding ({} cached samples):", scenario.dataset_len);
    if resharding.is_empty() {
        println!("  none (membership never changed)");
    }
    for ev in &resharding {
        println!(
            "  epoch {}  {:<5} node {:>3}: moved {:>6} ({:.2}%), survivor churn {} ({:.2}%)",
            ev.epoch,
            ev.kind,
            ev.node,
            ev.stats.moved,
            ev.stats.moved_pct(),
            ev.stats.excess_moved,
            ev.stats.excess_pct()
        );
    }

    if mode == "reshard" {
        // Control-plane accounting only: no training, just the ledger.
        let mut reg = Registry::new();
        timeline.coordinator.publish(&mut reg);
        for ev in &resharding {
            ev.publish(&mut reg);
        }
        return emit_elastic_registry(args, &reg);
    }

    let cfg = DistConfig {
        nodes,
        gpus_per_node: args.num_or("gpus", 1)?,
        epochs,
        iters_per_epoch: args.num_or("iters", 4)?,
        local_batch: 4,
        eval_samples: 16,
        seed,
        ..DistConfig::small(
            Strategy::MsTopKHiTopK {
                rho: args.num_or("rho", 0.05)?,
                samplings: 20,
            },
            Workload::Mlp,
        )
    };
    let trainer = DistTrainer::new(cfg);
    let elastic = trainer.run_elastic(&scenario);
    let planned = trainer.run_elastic_planned(&scenario);
    println!("segments:");
    for s in &elastic.segments {
        println!(
            "  epochs {:>2}..{:<3} {:>2} node(s): {:?}",
            s.start_epoch,
            s.start_epoch + s.epochs,
            s.nodes.len(),
            s.nodes
        );
    }
    println!(
        "{:<7} {:>10} {:>8} {:>12}",
        "epoch", "loss", "top1", "residual"
    );
    for e in &elastic.report.epochs {
        println!(
            "{:<7} {:>10.4} {:>7.1}% {:>12.3}",
            e.epoch,
            e.train_loss,
            e.val_top1 * 100.0,
            e.residual_norm
        );
    }
    let bitwise = elastic.bitwise_eq(&planned);
    println!(
        "checkpoint replay vs in-memory twin: {}",
        if bitwise {
            "bitwise identical"
        } else {
            "DIVERGED"
        }
    );
    emit_elastic_registry(args, &elastic.registry)?;
    if !bitwise {
        return Err(ParseError(
            "elastic: checkpoint replay diverged from the planned twin".to_string(),
        ));
    }
    Ok(())
}

fn emit_elastic_registry(args: &Args, reg: &Registry) -> Result<(), ParseError> {
    match args.get_or("out", "") {
        "" => {}
        path => {
            std::fs::write(path, reg.to_jsonl())
                .map_err(|e| ParseError(format!("--out {path}: {e}")))?;
            // stderr, so stdout stays byte-identical across runs for the
            // elastic gate's `cmp` regardless of where --out points.
            eprintln!("wrote JSONL snapshot to {path}");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn strategy_parsing_covers_all() {
        for (name, label) in [
            ("dense", "Dense-SGD"),
            ("2dtar", "2DTAR-SGD"),
            ("topk", "TopK-SGD"),
            ("mstopk", "MSTopK-SGD"),
            ("gtopk", "gTopK-SGD"),
            ("qsgd", "QSGD"),
        ] {
            let a = args(&format!("simulate --strategy {name}"));
            assert_eq!(strategy_of(&a).unwrap().label(), label);
        }
        assert!(strategy_of(&args("simulate --strategy nope")).is_err());
    }

    #[test]
    fn model_and_cluster_parsing() {
        let a = args("simulate --model vgg19 --cloud aliyun --nodes 8");
        assert_eq!(model_of(&a).unwrap().name, "VGG-19");
        assert_eq!(cluster_of(&a).unwrap().nodes, 8);
        assert!(model_of(&args("simulate --model nope")).is_err());
        assert!(cluster_of(&args("simulate --cloud nope")).is_err());
    }

    #[test]
    fn simulate_and_sweep_run_end_to_end() {
        dispatch(&args("simulate --model resnet50-96 --strategy mstopk")).unwrap();
        dispatch(&args("sweep --model transformer")).unwrap();
        dispatch(&args("dawnbench --cloud ib")).unwrap();
    }

    #[test]
    fn faults_ablation_runs_and_validates_flags() {
        dispatch(&args(
            "faults --model resnet50-96 --nodes 4 --seeds 2 --drops 0.02 --stragglers 1",
        ))
        .unwrap();
        assert!(dispatch(&args("faults --drops 1.5")).is_err());
        assert!(dispatch(&args("faults --nodes 2 --stragglers 3")).is_err());
        assert!(dispatch(&args("faults --bogus 1")).is_err());
    }

    #[test]
    fn elastic_validates_flags() {
        assert!(dispatch(&args("elastic --scenario nope")).is_err());
        assert!(dispatch(&args("elastic --mode nope --nodes 4")).is_err());
        assert!(dispatch(&args("elastic --nodes 2")).is_err());
        assert!(dispatch(&args("elastic --epochs 1")).is_err());
        assert!(dispatch(&args("elastic --bogus 1")).is_err());
        assert!(dispatch(&args("elastic --nodes zero")).is_err());
    }

    #[test]
    fn elastic_replay_runs_and_passes_its_own_bitwise_gate() {
        dispatch(&args(
            "elastic --scenario evict --mode replay --nodes 4 --epochs 3 --iters 3 --seed 7",
        ))
        .unwrap();
    }

    #[test]
    fn elastic_reshard_snapshot_is_byte_stable() {
        let out =
            std::env::temp_dir().join(format!("cloudtrain-elastic-test-{}", std::process::id()));
        let cmd = format!(
            "elastic --scenario rack --mode reshard --nodes 16 --seed 3 --out {}",
            out.display()
        );
        dispatch(&args(&cmd)).unwrap();
        let first = std::fs::read(&out).unwrap();
        dispatch(&args(&cmd)).unwrap();
        let second = std::fs::read(&out).unwrap();
        assert_eq!(first, second, "same-seed snapshots must be byte-identical");
        let _ = std::fs::remove_file(&out);
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains("elastic/reshard_events"));
        assert!(text.contains("elastic/events/evicted"));
    }

    #[test]
    fn trace_snapshot_is_byte_stable() {
        let out =
            std::env::temp_dir().join(format!("cloudtrain-trace-test-{}", std::process::id()));
        let cmd = format!(
            "trace --model resnet50-96 --strategy mstopk --nodes 4 --samples 32 --out {}",
            out.display()
        );
        dispatch(&args(&cmd)).unwrap();
        let first = std::fs::read(&out).unwrap();
        dispatch(&args(&cmd)).unwrap();
        let second = std::fs::read(&out).unwrap();
        assert_eq!(first, second, "same-seed traces must be byte-identical");
        let text = String::from_utf8(first).unwrap();
        // Fig. 8 stage spans and Fig. 9 tier counters are both present.
        assert!(text.contains("hitopk/inter all-gather"));
        assert!(text.contains("cache/from_memory"));
        assert!(text.contains("\"type\":\"gauge\",\"name\":\"iter/total\""));
        let _ = std::fs::remove_file(&out);
        assert!(dispatch(&args("trace --bogus 1")).is_err());
    }

    #[test]
    fn trace_runs_every_strategy_to_stdout() {
        for s in ["dense", "2dtar", "topk", "gtopk", "qsgd"] {
            dispatch(&args(&format!(
                "trace --strategy {s} --nodes 2 --samples 4"
            )))
            .unwrap();
        }
    }

    #[test]
    fn conformance_report_is_byte_stable() {
        let dir = std::env::temp_dir();
        let corpus = dir.join(format!("cloudtrain-conf-corpus-{}", std::process::id()));
        std::fs::write(
            &corpus,
            "oracle ring m=2 n=2 d=64 seed=5\n\
             oracle hitopk m=2 n=2 d=96 rho=0.1 comp=mstopk seed=6\n\
             cost torus nodes=4 gpus=8 d=100000 gbps=25\n\
             meta scale comp=sorttopk d=256 k=16 seed=7\n",
        )
        .unwrap();
        let out = dir.join(format!("cloudtrain-conf-out-{}", std::process::id()));
        let cmd = format!(
            "conformance --corpus {} --out {}",
            corpus.display(),
            out.display()
        );
        dispatch(&args(&cmd)).unwrap();
        let first = std::fs::read(&out).unwrap();
        dispatch(&args(&cmd)).unwrap();
        let second = std::fs::read(&out).unwrap();
        assert_eq!(first, second, "two runs must produce byte-identical JSONL");
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains("\"case\":\"case-000\""));
        assert!(text.contains("\"status\":\"pass\""));
        assert!(text.contains("conformance/divergences"));
        let _ = std::fs::remove_file(&corpus);
        let _ = std::fs::remove_file(&out);
        assert!(dispatch(&args("conformance --bogus 1")).is_err());
        assert!(dispatch(&args("conformance --corpus /no/such/file")).is_err());
    }

    #[test]
    fn conformance_deny_enforces_coverage() {
        // A passing-but-partial corpus is fine without --deny and an error
        // with it: --deny gates on full pairing coverage, not just zero
        // divergences.
        let corpus =
            std::env::temp_dir().join(format!("cloudtrain-conf-partial-{}", std::process::id()));
        std::fs::write(&corpus, "oracle ring m=2 n=2 d=32 seed=1\n").unwrap();
        let plain = format!("conformance --corpus {}", corpus.display());
        dispatch(&args(&plain)).unwrap();
        let err = dispatch(&args(&format!("{plain} --deny"))).unwrap_err();
        assert!(err.to_string().contains("uncovered"), "{err}");
        let _ = std::fs::remove_file(&corpus);
    }

    #[test]
    fn conformance_shipped_corpus_passes_deny_with_fuzz() {
        dispatch(&args("conformance --deny --fuzz 4 --seed 9")).unwrap();
    }

    #[test]
    fn unknown_command_and_flags_fail() {
        assert!(dispatch(&args("frobnicate")).is_err());
        assert!(dispatch(&args("simulate --bogus 1")).is_err());
    }

    #[test]
    fn reorder_runs_and_validates_flags() {
        dispatch(&args("reorder --nodes 4 --bytes 65536 --seed 3")).unwrap();
        dispatch(&args("reorder --scramble off")).unwrap();
        assert!(dispatch(&args("reorder --nodes 1")).is_err());
        assert!(dispatch(&args("reorder --scramble maybe")).is_err());
        assert!(dispatch(&args("reorder --bogus 1")).is_err());
    }

    #[test]
    fn reorder_probe_is_deterministic_and_beats_identity() {
        // Same seed -> bit-identical probe, cost model, and permutation.
        let spec = clouds::tencent(4);
        let (o1, id1, opt1) = probed_ring_order(&spec, 1 << 20, 7, true);
        let (o2, id2, opt2) = probed_ring_order(&spec, 1 << 20, 7, true);
        assert_eq!(o1, o2, "same-seed probe->reorder must be deterministic");
        assert_eq!(id1.to_bits(), id2.to_bits());
        assert_eq!(opt1.to_bits(), opt2.to_bits());
        // On the rack-scrambled fabric the optimizer beats the identity.
        assert!(opt1 < id1, "optimized {opt1} should beat identity {id1}");
        // On the uniform clean fabric every order prices the same.
        let (_, id_u, opt_u) = probed_ring_order(&spec, 1 << 20, 7, false);
        assert!((id_u - opt_u).abs() < 1e-15);
    }

    #[test]
    fn autotune_runs_and_validates_flags() {
        dispatch(&args("autotune --workload transformer --nodes 4 --gpus 4")).unwrap();
        dispatch(&args("autotune --workload mlp --overlap 1.0 --rho 0.05")).unwrap();
        assert!(dispatch(&args("autotune --nodes 1")).is_err());
        assert!(dispatch(&args("autotune --overlap 1.5")).is_err());
        assert!(dispatch(&args("autotune --rho 0")).is_err());
        assert!(dispatch(&args("autotune --workload nope")).is_err());
        assert!(dispatch(&args("autotune --bogus 1")).is_err());
    }

    #[test]
    fn autotune_report_is_byte_stable() {
        let out = std::env::temp_dir().join(format!("cloudtrain-autotune-{}", std::process::id()));
        let cmd = format!(
            "autotune --workload transformer --nodes 4 --gpus 4 --out {}",
            out.display()
        );
        dispatch(&args(&cmd)).unwrap();
        let first = std::fs::read(&out).unwrap();
        dispatch(&args(&cmd)).unwrap();
        let second = std::fs::read(&out).unwrap();
        assert_eq!(first, second, "same-flag reports must be byte-identical");
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains("\"crossovers\""));
        assert!(text.contains("\"forced_totals\""));
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn tails_runs_and_validates_flags() {
        // At the default 1 MiB payload chunks are beta-dominated and the
        // deadline wins every cell, so --deny passes.
        dispatch(&args("tails --nodes 4 --seeds 2 --deny")).unwrap();
        assert!(dispatch(&args("tails --nodes 1")).is_err());
        assert!(dispatch(&args("tails --seeds 0")).is_err());
        assert!(dispatch(&args("tails --mult 0.5")).is_err());
        assert!(dispatch(&args("tails --bogus 1")).is_err());
    }

    #[test]
    fn tails_deny_flags_alpha_dominated_regression() {
        // At 256 KiB the straggler-family chunks are alpha-dominated: an
        // abandoned hop ties the NIC for the full budget while riding out
        // frees it after serialization, so the deadline's p99 regresses.
        // Without --deny that is a warning; with it, an error.
        dispatch(&args("tails --nodes 4 --seeds 1 --bytes 262144")).unwrap();
        let err = dispatch(&args("tails --nodes 4 --seeds 1 --bytes 262144 --deny")).unwrap_err();
        assert!(err.to_string().contains("regressed"), "{err}");
    }

    #[test]
    fn tiny_training_run_via_cli() {
        dispatch(&args(
            "train --workload mlp --strategy 2dtar --epochs 1 --iters 3 --nodes 1 --gpus 2",
        ))
        .unwrap();
    }
}
