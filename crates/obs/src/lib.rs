//! Unified metrics/trace plane for the cloudtrain stack.
//!
//! The paper's key evidence is time-breakdown instrumentation: Fig. 8
//! decomposes HiTopKComm into its four stages and Fig. 9 reports DataCache
//! tier hit rates. Before this crate the reproduction's counters were
//! scattered (`ScratchStats` in collectives, `FaultCounters` in simnet,
//! `MemStats` in datacache) with no single export surface. [`Registry`] is
//! that surface: every plane reports named **counters**, **gauges**, and
//! scoped **spans** into one registry, which exports a byte-stable JSONL
//! snapshot and a human-readable breakdown table.
//!
//! # Determinism
//!
//! Nothing in this crate reads a wall clock. Span timestamps are supplied
//! by the caller:
//!
//! * the performance plane (`cloudtrain-simnet`) charges spans from the
//!   simulator's **virtual time** (`NetSim::makespan`),
//! * the correctness plane (`cloudtrain-collectives`) charges spans on the
//!   registry's **logical clock** ([`Registry::charge`]), a monotone
//!   counter of deterministic work units (elements touched),
//! * the data plane (`cloudtrain-datacache`) charges the loader's modelled
//!   virtual seconds.
//!
//! No collective, compressor or loader body takes a registry: a call
//! returns what it did, and the caller charges it afterwards.
//!
//! Two runs of the same seeded workload therefore produce **byte-identical**
//! [`Registry::to_jsonl`] output — the same determinism bar the CI fault
//! gauntlet holds `timeline::event_log` to, and the property the gauntlet's
//! obs snapshot `cmp`s in CI.
//!
//! # JSONL schema
//!
//! One JSON object per line, counters first (sorted by name), then gauges
//! (sorted by name), then spans in open order:
//!
//! ```text
//! {"type":"counter","name":"<name>","value":<u64>}
//! {"type":"gauge","name":"<name>","value":<fixed-precision sci float>}
//! {"type":"span","name":"<name>","depth":<usize>,"start":<f>,"end":<f>}
//! ```
//!
//! Floats are rendered with the workspace-wide `{:.9e}` fixed-precision
//! convention so formatting can never introduce run-to-run drift.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

/// Handle to an open span, returned by [`Registry::span_open`] and consumed
/// by [`Registry::span_close`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded (closed or still-open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name, e.g. `"hitopk/intra reduce-scatter"`.
    pub name: String,
    /// Virtual time the span opened.
    pub start: f64,
    /// Virtual time the span closed (equals `start` while still open).
    pub end: f64,
    /// Nesting depth at open time (0 = top level).
    pub depth: usize,
}

impl Span {
    /// Duration of the span in virtual time units.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A registry of named counters, gauges, and virtual-time spans.
///
/// Counters are monotone `u64` sums, gauges are last-write-wins `f64`
/// values, and spans are scoped timers whose timestamps the caller
/// supplies (see the crate docs for where each plane gets its clock).
///
/// # Examples
/// ```
/// use cloudtrain_obs::Registry;
///
/// let mut reg = Registry::new();
/// reg.counter_add("cache/hits", 3);
/// let id = reg.span_open("epoch", reg.now());
/// reg.advance(2.0);
/// let t = reg.now();
/// reg.span_close(id, t);
/// assert_eq!(reg.counter("cache/hits"), 3);
/// assert_eq!(reg.span_total("epoch"), 2.0);
/// // Byte-stable export: same inputs, same bytes — always.
/// assert_eq!(reg.to_jsonl(), reg.clone().to_jsonl());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: Vec<Span>,
    depth: usize,
    clock: f64,
}

impl Registry {
    /// An empty registry with the logical clock at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Sets a gauge to `value` (last write wins).
    ///
    /// # Panics
    /// Panics on non-finite values — they would poison the byte-stable
    /// export (`NaN != NaN` breaks replay comparison).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "gauge {name}: non-finite value {value}");
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Current reading of the logical clock.
    pub fn now(&self) -> f64 {
        self.clock
    }

    /// Advances the logical clock by `units` (deterministic work units or
    /// virtual seconds — the caller picks the dimension and keeps it
    /// consistent within a plane).
    ///
    /// # Panics
    /// Panics if `units` is negative or non-finite (the clock is monotone).
    pub fn advance(&mut self, units: f64) {
        assert!(
            units.is_finite() && units >= 0.0,
            "advance: clock must move monotonically (got {units})"
        );
        self.clock += units;
    }

    /// Moves the logical clock forward to `t` (no-op if `t` is behind —
    /// the clock never rewinds, so interleaved planes stay monotone).
    pub fn sync_clock(&mut self, t: f64) {
        if t.is_finite() && t > self.clock {
            self.clock = t;
        }
    }

    /// Opens a span at virtual time `start`; nested opens record their
    /// depth. Close it with [`Registry::span_close`].
    pub fn span_open(&mut self, name: &str, start: f64) -> SpanId {
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end: start,
            depth: self.depth,
        });
        self.depth += 1;
        id
    }

    /// Closes a span at virtual time `end`.
    ///
    /// # Panics
    /// Panics if `end` precedes the span's start (spans never run
    /// backwards in virtual time).
    pub fn span_close(&mut self, id: SpanId, end: f64) {
        let span = &mut self.spans[id.0];
        assert!(
            end >= span.start,
            "span {}: end {end} precedes start {}",
            span.name,
            span.start
        );
        span.end = end;
        self.depth = self.depth.saturating_sub(1);
    }

    /// Records `units` of work done as one span: opens `name` at
    /// [`Self::now`], advances the clock by `units` and closes it there.
    /// The clock is logical, so a span charged after the work it covers
    /// is the one that would have been recorded around it.
    pub fn charge(&mut self, name: &str, units: f64) {
        let id = self.span_open(name, self.now());
        self.advance(units);
        self.span_close(id, self.now());
    }

    /// All recorded spans, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total virtual time across all spans with this name.
    pub fn span_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Folds another registry into this one: counters add, gauges
    /// last-write-win (other's values), spans append in order, and the
    /// logical clock jumps to the max. Used to merge a plane's detached
    /// registry (e.g. the one a `NetSim` carried) into the run-level one.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        self.spans.extend(other.spans.iter().cloned());
        self.clock = self.clock.max(other.clock);
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.spans.is_empty()
    }

    /// Serialises the registry as byte-stable JSONL (see the crate docs
    /// for the schema). Two identical registries always produce identical
    /// bytes: keys are BTreeMap-sorted, spans keep open order, and floats
    /// use fixed-precision scientific notation.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!(
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}\n",
                escape(name)
            ));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!(
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{}}}\n",
                escape(name),
                fmt_f64(*v)
            ));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"name\":\"{}\",\"depth\":{},\"start\":{},\"end\":{}}}\n",
                escape(&s.name),
                s.depth,
                fmt_f64(s.start),
                fmt_f64(s.end)
            ));
        }
        out
    }

    /// Renders a per-span-name breakdown table (the Fig. 8-style view):
    /// one row per distinct span name in first-appearance order, with
    /// invocation count, total virtual time, and the share of the summed
    /// top-level (depth 0) time.
    pub fn breakdown_table(&self) -> String {
        let mut names: Vec<&str> = Vec::new();
        for s in &self.spans {
            if !names.contains(&s.name.as_str()) {
                names.push(&s.name);
            }
        }
        let top_total: f64 = self
            .spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(Span::seconds)
            .sum();
        let mut out = format!(
            "{:<34} {:>7} {:>15} {:>7}\n",
            "span", "count", "total", "share"
        );
        for name in names {
            let count = self.spans.iter().filter(|s| s.name == name).count();
            let total = self.span_total(name);
            let share = if top_total > 0.0 {
                100.0 * total / top_total
            } else {
                0.0
            };
            out.push_str(&format!(
                "{name:<34} {count:>7} {total:>15.9e} {share:>6.1}%\n"
            ));
        }
        out
    }
}

/// Fixed-precision float rendering shared by every export path (the same
/// `{:.9e}` convention `timeline::event_log` established).
pub fn fmt_f64(v: f64) -> String {
    format!("{v:.9e}")
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Nearest-rank percentile of `samples` (`q` in `[0, 1]`, e.g. `0.99` for
/// p99): the smallest sample such that at least `q · N` samples are `<=`
/// it. Deterministic — no interpolation, so the result is always one of
/// the inputs and byte-stable under [`fmt_f64`]. The tail-latency gate
/// (`BENCH_tails.json`) is built on this.
///
/// # Panics
/// Panics on an empty sample set or a `q` outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted_percentile(&sorted, q)
}

/// Nearest-rank lookup into samples already sorted ascending by
/// [`f64::total_cmp`] — the single rank computation behind [`percentile`]
/// and [`gauge_percentiles`], so a multi-rank query over one sorted copy
/// is byte-identical to independent `percentile` calls.
fn sorted_percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!((0.0..=1.0).contains(&q), "percentile rank outside [0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Records the p50/p95/p99 nearest-rank percentiles of `samples` as gauges
/// `<prefix>/p50`, `<prefix>/p95`, `<prefix>/p99` (plus `<prefix>/count`)
/// — the first-class export surface of the tail gauntlet. Sorts the
/// samples once and indexes all three ranks out of the sorted copy.
pub fn gauge_percentiles(reg: &mut Registry, prefix: &str, samples: &[f64]) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
        reg.gauge_set(&format!("{prefix}/{tag}"), sorted_percentile(&sorted, q));
    }
    reg.gauge_set(&format!("{prefix}/count"), samples.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.95), 5.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Nearest-rank returns an actual sample, never an interpolation.
        let many: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&many, 0.50), 50.0);
        assert_eq!(percentile(&many, 0.95), 95.0);
        assert_eq!(percentile(&many, 0.99), 99.0);
    }

    #[test]
    #[should_panic(expected = "empty sample set")]
    fn percentile_of_nothing_panics() {
        let _ = percentile(&[], 0.5);
    }

    #[test]
    fn gauge_percentiles_exports_the_three_quantiles() {
        let mut r = Registry::new();
        let s: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        gauge_percentiles(&mut r, "tails/dense", &s);
        assert_eq!(r.gauge("tails/dense/p50"), Some(10.0));
        assert_eq!(r.gauge("tails/dense/p95"), Some(19.0));
        assert_eq!(r.gauge("tails/dense/p99"), Some(20.0));
        assert_eq!(r.gauge("tails/dense/count"), Some(20.0));
    }

    /// The single-sort fast path must not change a byte of the export:
    /// gauges recorded by `gauge_percentiles` produce JSONL identical to a
    /// registry fed three independent `percentile` calls, including on
    /// duplicate-laden, negative, and sub-normal-ish samples.
    #[test]
    fn gauge_percentiles_jsonl_matches_independent_percentile_calls() {
        let samples: Vec<f64> = (0..97)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                ((h % 2001) as f64 - 1000.0) * 1e-3
            })
            .chain([0.25, 0.25, 0.25, -0.0, 0.0])
            .collect();
        let mut fast = Registry::new();
        gauge_percentiles(&mut fast, "tails/x", &samples);
        let mut slow = Registry::new();
        for (tag, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            slow.gauge_set(&format!("tails/x/{tag}"), percentile(&samples, q));
        }
        slow.gauge_set("tails/x/count", samples.len() as f64);
        assert_eq!(fast.to_jsonl(), slow.to_jsonl());
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut r = Registry::new();
        assert_eq!(r.counter("x"), 0);
        r.counter_add("x", 2);
        r.counter_add("x", 3);
        assert_eq!(r.counter("x"), 5);
        assert_eq!(r.counters().collect::<Vec<_>>(), vec![("x", 5)]);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = Registry::new();
        assert_eq!(r.gauge("g"), None);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        assert_eq!(r.gauge("g"), Some(2.5));
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_gauge_panics() {
        Registry::new().gauge_set("g", f64::NAN);
    }

    #[test]
    fn spans_nest_and_total() {
        let mut r = Registry::new();
        let outer = r.span_open("outer", r.now());
        r.advance(1.0);
        let inner = r.span_open("inner", r.now());
        r.advance(2.0);
        let t = r.now();
        r.span_close(inner, t);
        r.advance(0.5);
        let t = r.now();
        r.span_close(outer, t);
        assert_eq!(r.spans()[0].depth, 0);
        assert_eq!(r.spans()[1].depth, 1);
        assert_eq!(r.span_total("outer"), 3.5);
        assert_eq!(r.span_total("inner"), 2.0);
    }

    #[test]
    fn sync_clock_never_rewinds() {
        let mut r = Registry::new();
        r.sync_clock(5.0);
        assert_eq!(r.now(), 5.0);
        r.sync_clock(2.0);
        assert_eq!(r.now(), 5.0);
    }

    #[test]
    fn jsonl_is_byte_stable_and_ordered() {
        let build = |flip: bool| {
            let mut r = Registry::new();
            // Insert in both orders: the export must not care.
            if flip {
                r.counter_add("b", 2);
                r.counter_add("a", 1);
            } else {
                r.counter_add("a", 1);
                r.counter_add("b", 2);
            }
            r.gauge_set("g", 0.25);
            let id = r.span_open("s", 1.0);
            r.span_close(id, 2.5);
            r.to_jsonl()
        };
        assert_eq!(build(false), build(true));
        let text = build(false);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"a\",\"value\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"gauge\",\"name\":\"g\",\"value\":2.500000000e-1}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"span\",\"name\":\"s\",\"depth\":0,\"start\":1.000000000e0,\"end\":2.500000000e0}"
        );
    }

    #[test]
    fn jsonl_escapes_names() {
        let mut r = Registry::new();
        r.counter_add("a\"b\\c", 1);
        assert!(r.to_jsonl().contains("a\\\"b\\\\c"));
    }

    #[test]
    fn merge_folds_everything() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 1.0);
        let id = a.span_open("s", 0.0);
        a.span_close(id, 1.0);
        a.advance(1.0);

        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 9.0);
        let id = b.span_open("t", 0.0);
        b.span_close(id, 4.0);
        b.advance(4.0);

        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(9.0));
        assert_eq!(a.spans().len(), 2);
        assert_eq!(a.now(), 4.0);
    }

    #[test]
    fn breakdown_table_shares_sum_to_100() {
        let mut r = Registry::new();
        for (name, dur) in [("p1", 1.0), ("p2", 3.0)] {
            let id = r.span_open(name, r.now());
            r.advance(dur);
            let t = r.now();
            r.span_close(id, t);
        }
        let table = r.breakdown_table();
        assert!(table.contains("p1"));
        assert!(table.contains("25.0%"));
        assert!(table.contains("75.0%"));
    }

    #[test]
    fn charge_records_one_span_of_the_given_units() {
        let mut reg = Registry::new();
        reg.advance(2.0);
        let outer = reg.span_open("outer", reg.now());
        reg.charge("x", 10.0);
        reg.charge("x", 5.0);
        let t = reg.now();
        reg.span_close(outer, t);
        assert_eq!(reg.span_total("x"), 15.0);
        assert_eq!(reg.now(), 17.0);
        let x: Vec<_> = reg.spans().iter().filter(|s| s.name == "x").collect();
        assert_eq!((x[0].start, x[0].end, x[0].depth), (2.0, 12.0, 1));
        assert_eq!((x[1].start, x[1].end, x[1].depth), (12.0, 17.0, 1));
    }
}
