//! Schedule guard: pins, for every public `sim_*` entry point, the exact
//! transfer schedule it plays and the virtual times it reports.
//!
//! Each case runs on a fresh traced [`NetSim`] with an observability
//! registry attached and renders one golden line: the fnv1a of
//! [`event_log_with_spans`] (every transfer, fault and phase span, in
//! order), the bits of the reported total (the makespan for the
//! single-ring entries, which report none) and the bits of every phase.
//! A refactor of the simulated collectives that reorders a round, moves a
//! barrier or renames a span changes a line here.

use cloudtrain_simnet::collectives::{
    sim_gtopk_all_reduce, sim_hitopk, sim_naive_sparse_all_gather, sim_ok_sparse,
    sim_quantized_all_reduce, sim_ring_all_gather, sim_ring_all_reduce, sim_ring_reduce_scatter,
    sim_torus_all_reduce, sim_torus_all_reduce_reordered, sim_tree_all_reduce_hier,
    CollectiveTiming,
};
use cloudtrain_simnet::timeline::event_log_with_spans;
use cloudtrain_simnet::{clouds, ClusterSpec, FaultPlan, NetSim, SimResilience};

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn shape(nodes: usize, gpus_per_node: usize) -> ClusterSpec {
    ClusterSpec {
        nodes,
        gpus_per_node,
        ..clouds::tencent(nodes)
    }
}

/// The pinned shapes: the paper's 8-GPU nodes, a small odd custom cluster
/// and the degenerate one-GPU / one-node / one-GPU-per-node corners.
fn shapes() -> Vec<(&'static str, ClusterSpec)> {
    vec![
        ("tencent4", clouds::tencent(4)),
        ("3x2", shape(3, 2)),
        ("1x1", shape(1, 1)),
        ("1x8", shape(1, 8)),
        ("2x1", shape(2, 1)),
    ]
}

/// Runs `play` on a fresh traced simulator (with `faults` installed, if
/// any) and renders its golden line.
fn pin(
    name: &str,
    spec: ClusterSpec,
    faults: Option<FaultPlan>,
    play: impl FnOnce(&mut NetSim) -> Option<CollectiveTiming>,
) -> String {
    let mut sim = NetSim::new(spec);
    sim.enable_trace();
    sim.attach_obs();
    if let Some(plan) = faults {
        sim.inject_faults(plan, SimResilience::default());
    }
    let timing = play(&mut sim);
    let reg = sim.take_obs().expect("registry attached");
    let log = event_log_with_spans(sim.trace(), sim.fault_events(), reg.spans());
    let (total, phases) = match timing {
        Some(t) => (t.total, t.phases),
        None => (sim.makespan(), Vec::new()),
    };
    let phases: Vec<String> = phases
        .iter()
        .map(|p| format!("{}={:016x}", p.label, p.seconds.to_bits()))
        .collect();
    format!(
        "{name} log={:016x} total={:016x} [{}]",
        fnv1a(log.as_bytes()),
        total.to_bits(),
        phases.join(", ")
    )
}

fn all_cases() -> Vec<String> {
    let mut lines = Vec::new();
    for (tag, spec) in shapes() {
        // A single ring is one member group.
        let world: Vec<Vec<usize>> = vec![(0..spec.world()).collect()];
        let nodes: Vec<Vec<usize>> = (0..spec.nodes).map(|i| spec.node_members(i)).collect();
        let streams: Vec<Vec<usize>> = (0..spec.gpus_per_node)
            .map(|j| spec.stream_members(j))
            .collect();
        let reversed: Vec<usize> = (0..spec.nodes).rev().collect();
        let s = spec;
        let mut case =
            |entry: &str, play: &mut dyn FnMut(&mut NetSim) -> Option<CollectiveTiming>| {
                lines.push(pin(&format!("{entry}@{tag}"), s, None, play));
            };
        case("ring_reduce_scatter", &mut |sim| {
            sim_ring_reduce_scatter(sim, &world, 1 << 20);
            None
        });
        case("ring_all_gather", &mut |sim| {
            sim_ring_all_gather(sim, &world, 1 << 16);
            None
        });
        case("ring_all_reduce", &mut |sim| {
            sim_ring_all_reduce(sim, &world, 1 << 20);
            None
        });
        case("ring_reduce_scatter/nodes", &mut |sim| {
            sim_ring_reduce_scatter(sim, &nodes, 1 << 20);
            None
        });
        case("ring_all_gather/streams", &mut |sim| {
            sim_ring_all_gather(sim, &streams, 1 << 16);
            None
        });
        case("ring_all_reduce/streams", &mut |sim| {
            sim_ring_all_reduce(sim, &streams, 1 << 20);
            None
        });
        case("tree", &mut |sim| {
            Some(sim_tree_all_reduce_hier(sim, &s, 1 << 20))
        });
        case("naive", &mut |sim| {
            Some(sim_naive_sparse_all_gather(sim, &s, 1 << 12))
        });
        case("gtopk", &mut |sim| {
            Some(sim_gtopk_all_reduce(sim, &s, 1 << 12, 4))
        });
        case("qsgd", &mut |sim| {
            Some(sim_quantized_all_reduce(sim, &s, 1 << 16, 4))
        });
        case("torus", &mut |sim| {
            Some(sim_torus_all_reduce(sim, &s, 1 << 20))
        });
        case("torus_reordered", &mut |sim| {
            Some(sim_torus_all_reduce_reordered(sim, &s, 1 << 20, &reversed))
        });
        case("hitopk", &mut |sim| {
            Some(sim_hitopk(sim, &s, 1 << 18, 4, 0.01, 1e-4))
        });
        case("hitopk/fp16_dense", &mut |sim| {
            Some(sim_hitopk(sim, &s, 1 << 18, 2, 0.4, 1e-4))
        });
        case("oksparse", &mut |sim| {
            Some(sim_ok_sparse(sim, &s, 1 << 18, 4, 0.01, 1e-4, 0.5))
        });
    }
    // Faults are hashed on the inter-node transfer sequence, so a faulted
    // run also pins the order in which rounds reach the simulator.
    let spec = clouds::tencent(4);
    let hostile = || FaultPlan::new(7).with_drops(0.1).straggle(1, 1.5);
    lines.push(pin("torus@tencent4+faults", spec, Some(hostile()), |sim| {
        Some(sim_torus_all_reduce(sim, &spec, 1 << 20))
    }));
    lines.push(pin(
        "hitopk@tencent4+faults",
        spec,
        Some(hostile()),
        |sim| Some(sim_hitopk(sim, &spec, 1 << 18, 4, 0.01, 1e-4)),
    ));
    lines
}

const GOLDEN: &str = "\
ring_reduce_scatter@tencent4 log=9e1f8b2e4fc97685 total=3f494ef60dd635ca []\n\
ring_all_gather@tencent4 log=66fe78b7ac875811 total=3f587d3ef67d53b0 []\n\
ring_all_reduce@tencent4 log=aa43db2177125cf5 total=3f587d3ef67d53b5 []\n\
ring_reduce_scatter/nodes@tencent4 log=3e3b085ed7103ceb total=3efd6bb00c5a1868 []\n\
ring_all_gather/streams@tencent4 log=df279c43768f4757 total=3f5324f6fde8b5eb []\n\
ring_all_reduce/streams@tencent4 log=fdb107ba4a99c831 total=3f826d76c97af013 []\n\
tree@tencent4 log=8dec511f4b770835 total=3f779ce7721c359a [intra chain reduce=3f00d324520290f4, inter double tree=3f77599ae0d42b57, intra chain broadcast=3f00d32452029080]\n\
naive@tencent4 log=41d5d86889437a3f total=3f670286788b0c95 [all-gather values=3f4f39d8059f522d, all-gather indices=3f5e6820ee467014]\n\
gtopk@tencent4 log=9458b87c9d42a595 total=3f3c598ab9e6094b []\n\
qsgd@tencent4 log=4788d05e1fac1120 total=3f494fb36a152ef2 []\n\
torus@tencent4 log=28d28af86d211e99 total=3f5410547e4b86a8 [intra reduce-scatter=3efd6bb00c5a1868, inter all-reduce=3f5324f6fde8b5e9, intra all-gather=3efd6bb00c5a1740]\n\
torus_reordered@tencent4 log=eed252e72344bc11 total=3f5410547e4b86a8 [intra reduce-scatter=3efd6bb00c5a1868, inter all-reduce=3f5324f6fde8b5e9, intra all-gather=3efd6bb00c5a1740]\n\
hitopk@tencent4 log=64b0a6ec3963f4c3 total=3f3e42e8091a6a74 [intra reduce-scatter=3efd6bb00c5a1868, top-k compression=3f1a36e2eb1c432e, inter all-gather=3f3474a69b3aba24, intra all-gather=3ef69cdb252fdfe0]\n\
hitopk/fp16_dense@tencent4 log=bed51571d6f2f673 total=3f5940527e414ce9 [intra reduce-scatter=3ef9b86a87a47018, top-k compression=3f1a36e2eb1c432e, inter all-gather=3f56cf20fb526535, intra all-gather=3ef9b86a87a47040]\n\
oksparse@tencent4 log=5d26cdfbf1734114 total=3f3e895806b8a348 [intra reduce-scatter=3efd6bb00c5a1868, top-k compression=3f1a36e2eb1c432e, inter split=3f2445b1477be994, inter gather-merged=3f25307bea35fc5c, intra all-gather=3ef69cdb252fdfe0]\n\
ring_reduce_scatter@3x2 log=0bf85b93680667c6 total=3f45fff09dfe015b []\n\
ring_all_gather@3x2 log=11a62d2f86e1985d total=3f3373c93b9572d1 []\n\
ring_all_reduce@3x2 log=7ce0595cde3fa218 total=3f552e3986a51f41 []\n\
ring_reduce_scatter/nodes@3x2 log=a0b2011b591d53e1 total=3edd7f9c17349827 []\n\
ring_all_gather/streams@3x2 log=2686b867819f1c0d total=3f2f6eb15c1df568 []\n\
ring_all_reduce/streams@3x2 log=03c45d3a641a3f81 total=3f60b2dd7e4fd52d []\n\
tree@3x2 log=135866c29e7a338d total=3f76139e55b5d79f [intra chain reduce=3ee734ff3af05f13, inter double tree=3f75fc69567ae742, intra chain broadcast=3ee734ff3af05a00]\n\
naive@3x2 log=cd21c6fecea2eeb6 total=3f432db4cf2d7fcb [all-gather values=3f2ffbaab6edf516, all-gather indices=3f365d9442e4050b]\n\
gtopk@3x2 log=3f966737745e9337 total=3f26b23067c9a524 []\n\
qsgd@3x2 log=5038e1111ef2d26a total=3f2dad51f5d6fcc8 []\n\
torus@3x2 log=76bf129fa8de5b27 total=3f5156b8422aaf69 [intra reduce-scatter=3edd7f9c17349827, inter all-reduce=3f511bb909fc4639, intra all-gather=3edd7f9c17349800]\n\
torus_reordered@3x2 log=d19317266bd4b977 total=3f5156b8422aaf69 [intra reduce-scatter=3edd7f9c17349827, inter all-reduce=3f511bb909fc4639, intra all-gather=3edd7f9c17349800]\n\
hitopk@3x2 log=4e8b56ecf7347aee total=3f358e5e24070ba4 [intra reduce-scatter=3edd7f9c17349827, top-k compression=3f1a36e2eb1c432d, inter all-gather=3f2ca8851cb7c988, intra all-gather=3ecb323543a1da00]\n\
hitopk/fp16_dense@3x2 log=ce3ae9bed4f9db36 total=3f51483db1c0a14d [intra reduce-scatter=3ed50a6ae7de8528, top-k compression=3f1a36e2eb1c432e, inter all-gather=3f4ef5755a7e4020, intra all-gather=3ed50a6ae7de8500]\n\
oksparse@3x2 log=d152b0eb8b83b066 total=3f35ccee5c3032ad [intra reduce-scatter=3edd7f9c17349827, top-k compression=3f1a36e2eb1c432d, inter split=3f1c2b64ac657b75, inter gather-merged=3f1e1fe66daeb3c0, intra all-gather=3ecb323543a1da00]\n\
ring_reduce_scatter@1x1 log=cbf29ce484222325 total=0000000000000000 []\n\
ring_all_gather@1x1 log=cbf29ce484222325 total=0000000000000000 []\n\
ring_all_reduce@1x1 log=cbf29ce484222325 total=0000000000000000 []\n\
ring_reduce_scatter/nodes@1x1 log=cbf29ce484222325 total=0000000000000000 []\n\
ring_all_gather/streams@1x1 log=cbf29ce484222325 total=0000000000000000 []\n\
ring_all_reduce/streams@1x1 log=cbf29ce484222325 total=0000000000000000 []\n\
tree@1x1 log=356c48c56139a0ab total=0000000000000000 [intra chain reduce=0000000000000000, inter double tree=0000000000000000, intra chain broadcast=0000000000000000]\n\
naive@1x1 log=93f29e35748153f3 total=0000000000000000 [all-gather values=0000000000000000, all-gather indices=0000000000000000]\n\
gtopk@1x1 log=38c8306d4d35e727 total=0000000000000000 []\n\
qsgd@1x1 log=b322821e95268bbd total=0000000000000000 []\n\
torus@1x1 log=b14f3ef5a5f1afbb total=0000000000000000 [intra reduce-scatter=0000000000000000, inter all-reduce=0000000000000000, intra all-gather=0000000000000000]\n\
torus_reordered@1x1 log=b14f3ef5a5f1afbb total=0000000000000000 [intra reduce-scatter=0000000000000000, inter all-reduce=0000000000000000, intra all-gather=0000000000000000]\n\
hitopk@1x1 log=c24f489e96786a73 total=3f1a36e2eb1c432d [intra reduce-scatter=0000000000000000, top-k compression=3f1a36e2eb1c432d, inter all-gather=0000000000000000, intra all-gather=0000000000000000]\n\
hitopk/fp16_dense@1x1 log=c24f489e96786a73 total=3f1a36e2eb1c432d [intra reduce-scatter=0000000000000000, top-k compression=3f1a36e2eb1c432d, inter all-gather=0000000000000000, intra all-gather=0000000000000000]\n\
oksparse@1x1 log=f48fb8fb3727ee97 total=3f1a36e2eb1c432d [intra reduce-scatter=0000000000000000, top-k compression=3f1a36e2eb1c432d, inter split=0000000000000000, inter gather-merged=0000000000000000, intra all-gather=0000000000000000]\n\
ring_reduce_scatter@1x8 log=9c18fb80c1670a35 total=3efd6bb00c5a1868 []\n\
ring_all_gather@1x8 log=805fc387c4cf3b25 total=3ef9b86a87a47018 []\n\
ring_all_reduce@1x8 log=c96a3e64acb7e345 total=3f0d6bb00c5a1867 []\n\
ring_reduce_scatter/nodes@1x8 log=9c18fb80c1670a35 total=3efd6bb00c5a1868 []\n\
ring_all_gather/streams@1x8 log=cbf29ce484222325 total=0000000000000000 []\n\
ring_all_reduce/streams@1x8 log=cbf29ce484222325 total=0000000000000000 []\n\
tree@1x8 log=9d127000bed82351 total=3f10d324520290f4 [intra chain reduce=3f00d324520290f4, inter double tree=0000000000000000, intra chain broadcast=3f00d324520290f4]\n\
naive@1x8 log=e2ef4dbd7d1b4f11 total=3f097d362f591592 [all-gather values=3ef8553075e050fa, all-gather indices=3efaa53be8d1da2a]\n\
gtopk@1x8 log=8dfefcfc9f4bcc40 total=3ee475cfcdaccecf []\n\
qsgd@1x8 log=34a2390e446cb57a total=3ef7ded6925faec8 []\n\
torus@1x8 log=d4e4a0d03f81c3ff total=3f0d6bb00c5a1867 [intra reduce-scatter=3efd6bb00c5a1868, inter all-reduce=0000000000000000, intra all-gather=3efd6bb00c5a1866]\n\
torus_reordered@1x8 log=d4e4a0d03f81c3ff total=3f0d6bb00c5a1867 [intra reduce-scatter=3efd6bb00c5a1868, inter all-reduce=0000000000000000, intra all-gather=3efd6bb00c5a1866]\n\
hitopk@1x8 log=cdace73cff514d61 total=3f238e49c889465e [intra reduce-scatter=3efd6bb00c5a1868, top-k compression=3f1a36e2eb1c432e, inter all-gather=0000000000000000, intra all-gather=3ef62b128b7f0dd0]\n\
hitopk/fp16_dense@1x8 log=a9d403622acd3591 total=3f23898c17773d9b [intra reduce-scatter=3ef9b86a87a47018, top-k compression=3f1a36e2eb1c432e, inter all-gather=0000000000000000, intra all-gather=3ef9b86a87a47008]\n\
oksparse@1x8 log=2e53e2c653a3ad17 total=3f238e49c889465e [intra reduce-scatter=3efd6bb00c5a1868, top-k compression=3f1a36e2eb1c432e, inter split=0000000000000000, inter gather-merged=0000000000000000, intra all-gather=3ef62b128b7f0dd0]\n\
ring_reduce_scatter@2x1 log=a32cc69980ae5c0f total=3f3bb5dc3b78a2d3 []\n\
ring_all_gather@2x1 log=c231d15591334bb1 total=3f1952f16498aecd []\n\
ring_all_reduce@2x1 log=5ddc99d2651f90e7 total=3f4bb5dc3b78a2d3 []\n\
ring_reduce_scatter/nodes@2x1 log=cbf29ce484222325 total=0000000000000000 []\n\
ring_all_gather/streams@2x1 log=c231d15591334bb1 total=3f1952f16498aecd []\n\
ring_all_reduce/streams@2x1 log=5ddc99d2651f90e7 total=3f4bb5dc3b78a2d3 []\n\
tree@2x1 log=59d626168b7c3861 total=3f6b486fe2088845 [intra chain reduce=0000000000000000, inter double tree=3f6b486fe2088845, intra chain broadcast=0000000000000000]\n\
naive@2x1 log=deefebf5c5d5334c total=3f288f7965a805f9 [all-gather values=3f14be216af4b9d8, all-gather indices=3f1c60d1605b521a]\n\
gtopk@2x1 log=4fadd3c3c68e0828 total=3f1337316d136832 []\n\
qsgd@2x1 log=6488f34c70536fe1 total=3f1337624b13245c []\n\
torus@2x1 log=a353ead5185f14b4 total=3f4bb5dc3b78a2d3 [intra reduce-scatter=0000000000000000, inter all-reduce=3f4bb5dc3b78a2d3, intra all-gather=0000000000000000]\n\
torus_reordered@2x1 log=afda9c376421adb4 total=3f4bb5dc3b78a2d3 [intra reduce-scatter=0000000000000000, inter all-reduce=3f4bb5dc3b78a2d3, intra all-gather=0000000000000000]\n\
hitopk@2x1 log=8d4b78f61612f5de total=3f2c2b33ce65bf4c [intra reduce-scatter=0000000000000000, top-k compression=3f1a36e2eb1c432d, inter all-gather=3f1e1f84b1af3b6b, intra all-gather=0000000000000000]\n\
hitopk/fp16_dense@2x1 log=fa86c78c810b1d57 total=3f4536bc50ad4ec3 [intra reduce-scatter=0000000000000000, top-k compression=3f1a36e2eb1c432d, inter all-gather=3f41efdff349c65d, intra all-gather=0000000000000000]\n\
oksparse@2x1 log=d2e831473a3d61a7 total=3f2ca8543eb80d5e [intra reduce-scatter=0000000000000000, top-k compression=3f1a36e2eb1c432d, inter split=3f0e1f84b1af3b6a, inter gather-merged=3f100a03397c39da, intra all-gather=0000000000000000]\n\
torus@tencent4+faults log=604359ad1af9b85e total=3f79085b2e049aef [intra reduce-scatter=3efd6bb00c5a1868, inter all-reduce=3f78cd83cdebe6be, intra all-gather=3efd6bb00c5a1900]\n\
hitopk@tencent4+faults log=d1654d309bd7906f total=3f7638543ad67f75 [intra reduce-scatter=3efd6bb00c5a1868, top-k compression=3f23a92a30553262, inter all-gather=3f7567025e224be4, intra all-gather=3ef69cdb252fe600]\n\
";

#[test]
fn every_simulated_schedule_matches_its_golden_line() {
    let actual = all_cases();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let diverged: Vec<String> = actual
        .iter()
        .enumerate()
        .filter(|(i, line)| golden.get(*i) != Some(&line.as_str()))
        .map(|(_, line)| line.clone())
        .collect();
    assert!(
        diverged.is_empty() && golden.len() == actual.len(),
        "{} of {} schedule lines diverged (golden has {} lines); actual table:\n{}",
        diverged.len(),
        actual.len(),
        golden.len(),
        actual.join("\n")
    );
}
