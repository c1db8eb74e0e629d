//! Seed-corpus parsing: one case per line, `key=value` tokens.
//!
//! Three line kinds (leading `#` and blank lines are comments):
//!
//! ```text
//! oracle <collective> m=2 n=4 d=128 rho=0.05 comp=mstopk seed=7 [drops=0.1] [degrade=0.2]
//! cost   <collective> nodes=4 gpus=8 d=250000 rho=0.01 gbps=25
//! meta   <property>   comp=dgc d=4096 k=64 seed=9
//! ```
//!
//! Parsing is *checked*: unknown collectives/properties/compressors, missing
//! keys, malformed numbers, and shape constraints the collectives would
//! panic on (gTop-k needs a power-of-two world, torus needs
//! `size == m·n` by construction) are reported as `Err` with the line
//! number, never as a panic inside the harness.

/// One parsed corpus case.
#[derive(Debug, Clone, PartialEq)]
pub enum Case {
    /// Differential run of a collective against the reference oracle.
    Oracle(OracleCase),
    /// Cost-model validation of a simnet collective against Eqs. 7–10.
    Cost(CostCase),
    /// Metamorphic property check of one compressor.
    Meta(MetaCase),
}

/// Parameters of one oracle differential case.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleCase {
    /// Collective under test (see [`ORACLE_COLLECTIVES`]).
    pub collective: String,
    /// Nodes in the grid.
    pub m: usize,
    /// GPUs per node; the world is `m · n`.
    pub n: usize,
    /// Gradient dimension.
    pub d: usize,
    /// Density for sparse collectives (ignored by dense ones).
    pub rho: f64,
    /// Compressor name, `-` for dense/quantized paths.
    pub comp: String,
    /// Case seed: gradients and compressor RNG streams derive from it.
    pub seed: u64,
    /// Per-hop drop probability for resilient variants.
    pub drops: f64,
    /// Per-member degradation probability for resilient sparse variants.
    pub degrade: f64,
}

/// Parameters of one cost-model case.
#[derive(Debug, Clone, PartialEq)]
pub struct CostCase {
    /// Simulated collective (see [`COST_COLLECTIVES`]).
    pub collective: String,
    /// Cluster nodes.
    pub nodes: usize,
    /// GPUs per node.
    pub gpus: usize,
    /// Gradient dimension (FP32 elements).
    pub d: usize,
    /// Density for sparse collectives (ignored by dense ones).
    pub rho: f64,
    /// Inter-node Ethernet line rate, Gbps.
    pub gbps: f64,
}

/// Parameters of one metamorphic property case.
#[derive(Debug, Clone, PartialEq)]
pub struct MetaCase {
    /// Property name (see [`META_PROPERTIES`]).
    pub property: String,
    /// Compressor under test.
    pub comp: String,
    /// Input dimension.
    pub d: usize,
    /// Selection size.
    pub k: usize,
    /// Case seed.
    pub seed: u64,
}

/// Collectives the oracle engine knows how to drive. The `*_bucketed`
/// variants launch the dense collective once per fusion span.
pub const ORACLE_COLLECTIVES: &[&str] = &[
    "ring",
    "tree",
    "torus",
    "tree_bucketed",
    "torus_bucketed",
    "ring_res",
    "torus_res",
    "hitopk",
    "hitopk_ef",
    "hitopk_ef_res",
    "gtopk",
    "gtopk_ef_res",
    "naiveag",
    "oksparse",
    "oksparse_ef",
    "oksparse_ef_res",
    "qsgd",
    "terngrad",
    "scaledsign",
];

/// Collectives the cost-model engine has closed forms for. `treear` is
/// deliberately absent: its chunk-pipelined double trees have no closed
/// form in the paper (DESIGN.md §10 records the exclusion).
pub const COST_COLLECTIVES: &[&str] = &[
    "hitopk",
    "torus",
    "gtopk",
    "naiveag",
    "oksparse",
    "qsgd",
    "torus_reordered",
    "hitopk_deadline",
];

/// Metamorphic properties the harness checks.
pub const META_PROPERTIES: &[&str] = &["exactk", "determinism", "perm", "scale", "kmono"];

/// Compressor names the harness can instantiate.
pub const COMPRESSORS: &[&str] = &["sorttopk", "quicktopk", "mstopk", "dgc", "randomk"];

/// Largest oracle dimension the corpus accepts: differential runs are
/// O(d · world) per case and the corpus must stay interactive in CI.
pub const MAX_ORACLE_D: usize = 2048;

/// Parses a whole corpus text.
///
/// # Errors
/// Returns `"line N: <reason>"` for the first malformed or invalid line.
pub fn parse(text: &str) -> Result<Vec<Case>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let case = parse_line(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        out.push(case);
    }
    Ok(out)
}

/// Parses one non-comment corpus line.
///
/// # Errors
/// Returns the reason the line is malformed or fails validation.
pub fn parse_line(line: &str) -> Result<Case, String> {
    let mut tokens = line.split_whitespace();
    let kind = tokens.next().ok_or("empty case line")?;
    let name = tokens
        .next()
        .ok_or_else(|| format!("`{kind}` line is missing its target name"))?;
    let mut kv = Kv::default();
    for tok in tokens {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("token `{tok}` is not key=value"))?;
        kv.pairs.push((k.to_string(), v.to_string()));
    }
    match kind {
        "oracle" => parse_oracle(name, &kv).map(Case::Oracle),
        "cost" => parse_cost(name, &kv).map(Case::Cost),
        "meta" => parse_meta(name, &kv).map(Case::Meta),
        other => Err(format!(
            "unknown case kind `{other}` (expected oracle, cost, or meta)"
        )),
    }
}

/// Formats a case back into its canonical corpus line (the shape `parse`
/// accepts), used to pin fuzz-found divergences into the seed corpus.
pub fn format_case(case: &Case) -> String {
    match case {
        Case::Oracle(c) => {
            let mut s = format!(
                "oracle {} m={} n={} d={} rho={} comp={} seed={}",
                c.collective, c.m, c.n, c.d, c.rho, c.comp, c.seed
            );
            if c.drops > 0.0 {
                s.push_str(&format!(" drops={}", c.drops));
            }
            if c.degrade > 0.0 {
                s.push_str(&format!(" degrade={}", c.degrade));
            }
            s
        }
        Case::Cost(c) => format!(
            "cost {} nodes={} gpus={} d={} rho={} gbps={}",
            c.collective, c.nodes, c.gpus, c.d, c.rho, c.gbps
        ),
        Case::Meta(c) => format!(
            "meta {} comp={} d={} k={} seed={}",
            c.property, c.comp, c.d, c.k, c.seed
        ),
    }
}

#[derive(Default)]
struct Kv {
    pairs: Vec<(String, String)>,
}

impl Kv {
    fn get(&self, key: &str) -> Option<&str> {
        // Last occurrence wins, matching the CLI arg parser's discipline.
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        let v = self.get(key).ok_or_else(|| format!("missing `{key}=`"))?;
        v.parse()
            .map_err(|_| format!("`{key}={v}` is not an unsigned integer"))
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(_) => self.usize(key),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        let v = self.get(key).ok_or_else(|| format!("missing `{key}=`"))?;
        v.parse()
            .map_err(|_| format!("`{key}={v}` is not an unsigned integer"))
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => {
                let x: f64 = v
                    .parse()
                    .map_err(|_| format!("`{key}={v}` is not a number"))?;
                if x.is_finite() {
                    Ok(x)
                } else {
                    Err(format!("`{key}={v}` must be finite"))
                }
            }
        }
    }
}

fn parse_oracle(name: &str, kv: &Kv) -> Result<OracleCase, String> {
    if !ORACLE_COLLECTIVES.contains(&name) {
        return Err(format!("unknown oracle collective `{name}`"));
    }
    let c = OracleCase {
        collective: name.to_string(),
        m: kv.usize("m")?,
        n: kv.usize("n")?,
        d: kv.usize("d")?,
        rho: kv.f64_or("rho", 0.05)?,
        comp: kv.get("comp").unwrap_or("-").to_string(),
        seed: kv.u64("seed")?,
        drops: kv.f64_or("drops", 0.0)?,
        degrade: kv.f64_or("degrade", 0.0)?,
    };
    if c.m == 0 || c.n == 0 {
        return Err("m and n must be positive".into());
    }
    if c.d == 0 {
        return Err("d must be positive".into());
    }
    if c.d > MAX_ORACLE_D {
        return Err(format!("d={} exceeds the corpus cap {MAX_ORACLE_D}", c.d));
    }
    if c.rho <= 0.0 || c.rho > 1.0 {
        return Err(format!("rho={} must be in (0, 1]", c.rho));
    }
    for (key, v) in [("drops", c.drops), ("degrade", c.degrade)] {
        if !(0.0..=1.0).contains(&v) {
            return Err(format!("{key}={v} must be in [0, 1]"));
        }
    }
    let p = c.m * c.n;
    let needs_pow2 = matches!(c.collective.as_str(), "gtopk" | "gtopk_ef_res");
    if needs_pow2 && !p.is_power_of_two() {
        return Err(format!(
            "{} needs a power-of-two world, got {p}",
            c.collective
        ));
    }
    let sparse = matches!(
        c.collective.as_str(),
        "hitopk"
            | "hitopk_ef"
            | "hitopk_ef_res"
            | "gtopk"
            | "gtopk_ef_res"
            | "naiveag"
            | "oksparse"
            | "oksparse_ef"
            | "oksparse_ef_res"
    );
    if sparse {
        if !COMPRESSORS.contains(&c.comp.as_str()) {
            return Err(format!(
                "sparse collective `{}` needs comp= from {COMPRESSORS:?}, got `{}`",
                c.collective, c.comp
            ));
        }
    } else if c.comp != "-" {
        return Err(format!(
            "`{}` takes no compressor; drop comp= or use comp=-",
            c.collective
        ));
    }
    if !c.collective.ends_with("_res") && (c.drops > 0.0 || c.degrade > 0.0) {
        return Err(format!(
            "`{}` is not a resilient variant; drops=/degrade= only apply to *_res",
            c.collective
        ));
    }
    Ok(c)
}

fn parse_cost(name: &str, kv: &Kv) -> Result<CostCase, String> {
    if !COST_COLLECTIVES.contains(&name) {
        return Err(format!(
            "unknown cost collective `{name}` (treear has no closed form and is excluded; see DESIGN.md §10)"
        ));
    }
    let c = CostCase {
        collective: name.to_string(),
        nodes: kv.usize("nodes")?,
        gpus: kv.usize_or("gpus", 8)?,
        d: kv.usize("d")?,
        rho: kv.f64_or("rho", 0.01)?,
        gbps: kv.f64_or("gbps", 25.0)?,
    };
    if c.nodes == 0 || c.gpus == 0 {
        return Err("nodes and gpus must be positive".into());
    }
    if c.d == 0 {
        return Err("d must be positive".into());
    }
    if c.rho <= 0.0 || c.rho > 1.0 {
        return Err(format!("rho={} must be in (0, 1]", c.rho));
    }
    if c.gbps <= 0.0 {
        return Err(format!("gbps={} must be positive", c.gbps));
    }
    match c.collective.as_str() {
        // The analytic per-round forms assume every recursive-doubling
        // round is either fully intra-node or fully inter-node, which
        // needs both grid axes to be powers of two.
        "gtopk" if !c.nodes.is_power_of_two() || !c.gpus.is_power_of_two() => {
            Err("gtopk cost cases need power-of-two nodes and gpus".into())
        }
        // The closed forms for the inter-node phases are per-NIC
        // serialization bounds; they need at least two nodes to exercise
        // the Ethernet tier the paper's equations model.
        "naiveag" | "torus" | "torus_reordered" | "hitopk" | "hitopk_deadline" | "oksparse"
        | "qsgd"
            if c.nodes < 2 =>
        {
            Err(format!("{} cost cases need nodes >= 2", c.collective))
        }
        _ => Ok(c),
    }
}

fn parse_meta(name: &str, kv: &Kv) -> Result<MetaCase, String> {
    if !META_PROPERTIES.contains(&name) {
        return Err(format!("unknown metamorphic property `{name}`"));
    }
    let c = MetaCase {
        property: name.to_string(),
        comp: kv.get("comp").ok_or("missing `comp=`")?.to_string(),
        d: kv.usize("d")?,
        k: kv.usize("k")?,
        seed: kv.u64("seed")?,
    };
    if !COMPRESSORS.contains(&c.comp.as_str()) {
        return Err(format!("unknown compressor `{}`", c.comp));
    }
    if c.d == 0 || c.k == 0 {
        return Err("d and k must be positive".into());
    }
    if c.k > c.d {
        return Err(format!("k={} must not exceed d={}", c.k, c.d));
    }
    Ok(c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_three_kinds() {
        let text = "\
# comment
oracle hitopk m=2 n=4 d=128 rho=0.05 comp=mstopk seed=7

cost torus nodes=4 gpus=8 d=250000 gbps=25
meta perm comp=dgc d=4096 k=64 seed=9
";
        let cases = parse(text).expect("parses");
        assert_eq!(cases.len(), 3);
        assert!(matches!(cases[0], Case::Oracle(_)));
        assert!(matches!(cases[1], Case::Cost(_)));
        assert!(matches!(cases[2], Case::Meta(_)));
    }

    #[test]
    fn format_roundtrips() {
        for line in [
            "oracle hitopk m=2 n=4 d=128 rho=0.05 comp=mstopk seed=7",
            "oracle hitopk_ef_res m=2 n=2 d=64 rho=0.1 comp=dgc seed=5 drops=0.1 degrade=0.2",
            "oracle tree_bucketed m=2 n=3 d=96 rho=0.05 comp=- seed=4",
            "oracle ring_res m=2 n=3 d=64 rho=0.05 comp=- seed=3 drops=0.2",
            "oracle oksparse m=3 n=2 d=300 rho=0.1 comp=mstopk seed=8",
            "oracle oksparse_ef m=2 n=4 d=512 rho=0.05 comp=dgc seed=9",
            "oracle oksparse_ef_res m=2 n=2 d=128 rho=0.1 comp=randomk seed=10 drops=0.2 degrade=0.3",
            "cost hitopk_deadline nodes=4 gpus=8 d=250000 rho=0.01 gbps=25",
            "cost gtopk nodes=4 gpus=4 d=200000 rho=0.01 gbps=25",
            "cost oksparse nodes=8 gpus=4 d=500000 rho=0.01 gbps=25",
            "meta kmono comp=randomk d=512 k=32 seed=11",
        ] {
            let case = parse_line(line).expect(line);
            let reparsed = parse_line(&format_case(&case)).expect("canonical line parses");
            assert_eq!(case, reparsed, "{line}");
        }
    }

    #[test]
    fn rejects_bad_lines() {
        for (line, why) in [
            ("oracle rhd m=2 n=2 d=16 seed=1", "retired rhd collective"),
            (
                "oracle hitopk m=2 n=2 d=16 seed=1 comp=-",
                "sparse without comp",
            ),
            (
                "oracle ring m=2 n=2 d=16 seed=1 comp=mstopk",
                "dense with comp",
            ),
            (
                "oracle torus_bucketed m=2 n=2 d=16 seed=1 comp=mstopk",
                "bucketed dense with comp",
            ),
            (
                "oracle hitopk_fused m=2 n=2 d=16 rho=0.1 comp=dgc seed=1",
                "retired fused collective",
            ),
            (
                "oracle hitopk_ef_fused_res m=2 n=2 d=16 rho=0.1 comp=dgc seed=1 drops=0.5",
                "retired fused resilient collective",
            ),
            (
                "oracle ring m=2 n=2 d=16 seed=1 drops=0.5",
                "drops on non-resilient",
            ),
            (
                "oracle ring_deadline m=2 n=2 d=16 seed=1 degrade=0.5",
                "retired deadline collective",
            ),
            (
                "oracle hitopk_ef_deadline m=2 n=2 d=16 rho=0.1 comp=dgc seed=1 degrade=0.5",
                "retired sparse deadline collective",
            ),
            (
                "oracle ring_reordered m=2 n=2 d=16 seed=1",
                "retired reordered ring",
            ),
            (
                "oracle torus_reordered m=2 n=3 d=96 seed=6",
                "retired reordered torus",
            ),
            (
                "oracle hitopk_ef_reordered m=2 n=2 d=16 rho=0.1 comp=dgc seed=1",
                "retired reordered hierarchical top-k",
            ),
            (
                "cost torus_reordered nodes=1 gpus=8 d=1000",
                "single-node torus_reordered",
            ),
            (
                "cost hitopk_deadline nodes=1 gpus=8 d=1000",
                "single-node hitopk_deadline",
            ),
            ("oracle ring m=0 n=2 d=16 seed=1", "zero m"),
            ("oracle ring m=2 n=2 d=999999 seed=1", "d over cap"),
            (
                "oracle hitopk m=2 n=2 d=16 rho=1.5 comp=dgc seed=1",
                "rho > 1",
            ),
            (
                "oracle oksparse m=2 n=2 d=16 seed=1 comp=-",
                "oksparse without comp",
            ),
            (
                "oracle oksparse_ef m=2 n=2 d=16 rho=0.1 comp=dgc seed=1 drops=0.5",
                "drops on non-resilient oksparse",
            ),
            (
                "cost oksparse nodes=1 gpus=8 d=1000",
                "single-node oksparse",
            ),
            ("cost treear nodes=4 d=1000", "treear excluded"),
            ("cost gtopk nodes=3 gpus=4 d=1000", "non-pow2 gtopk nodes"),
            ("cost hitopk nodes=1 gpus=8 d=1000", "single-node hitopk"),
            (
                "meta perm comp=nosuch d=64 k=8 seed=1",
                "unknown compressor",
            ),
            ("meta perm comp=dgc d=64 k=128 seed=1", "k > d"),
            ("meta nosuch comp=dgc d=64 k=8 seed=1", "unknown property"),
            ("frob x y=1", "unknown kind"),
            (
                "oracle hitopk m=2 n=2 d=abc rho=0.1 comp=dgc seed=1",
                "bad number",
            ),
        ] {
            assert!(parse_line(line).is_err(), "should reject: {why}: {line}");
        }
    }

    #[test]
    fn last_duplicate_key_wins() {
        let case = parse_line("oracle ring m=2 n=2 d=16 seed=1 seed=9").expect("parses");
        match case {
            Case::Oracle(c) => assert_eq!(c.seed, 9),
            _ => panic!("expected oracle case"),
        }
    }
}
