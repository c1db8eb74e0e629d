//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. One [`Tracer`] per rank thread; spans are kept
//! in memory and written as JSONL when the run ends. The program under test
//! is not instrumented: everything here wraps it from outside.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use crate::procfs::{thread_schedstat, SchedStat};

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`, e.g. `compress.mstopk_select`.
    pub name: &'static str,
    /// Rank thread that recorded it.
    pub rank: u32,
    /// Step (training step, aggregation round or batch) it belongs to.
    pub step: u32,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<u32>,
    /// Scheduler account over the span (metered spans only): the start
    /// reading while open, the delta once closed.
    pub sched: Option<SchedStat>,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Span recorder of one rank thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    rank: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder for `rank` whose clock counts from `origin` (shared by all
    /// ranks of a run so their timelines line up).
    pub fn new(origin: Instant, rank: usize) -> Self {
        Self {
            origin,
            rank: rank as u32,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, step: usize, sched: Option<SchedStat>) -> SpanId {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            rank: self.rank,
            step: step as u32,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            sched,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Opens a span nested in whichever span is open now.
    pub fn open(&mut self, name: &'static str, step: usize) -> SpanId {
        self.push(name, step, None)
    }

    /// Opens a span that also meters this thread's scheduler account, for
    /// the spans in which a rank waits for its peers.
    pub fn open_metered(&mut self, name: &'static str, step: usize) -> SpanId {
        let sched = thread_schedstat();
        self.push(name, step, sched)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id.0),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id.0 as usize];
        span.end_ns = end_ns;
        if let Some(start) = span.sched {
            span.sched = thread_schedstat().map(|end| SchedStat {
                on_cpu_ns: end.on_cpu_ns.saturating_sub(start.on_cpu_ns),
                runqueue_wait_ns: end.runqueue_wait_ns.saturating_sub(start.runqueue_wait_ns),
            });
        }
    }

    /// Closes `id` under another name, for a call whose result names it
    /// (which cache tier served a load).
    pub fn close_as(&mut self, id: SpanId, name: &'static str) {
        self.close(id);
        self.spans[id.0 as usize].name = name;
    }

    /// Records `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, step: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, step);
        let out = f();
        self.close(id);
        out
    }

    /// The recorded spans, in open order.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time of `spans[idx]`: its duration minus the part of its interval
/// that its direct children cover (children may overlap one another and may
/// stick out of the parent; both are handled).
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let parent = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx as u32))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Per-step total of the spans called `name` in one rank's list, ms, in
/// step order. Steps with no such span are absent.
pub fn per_step_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut by_step: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *by_step.entry(s.step).or_default() += s.duration_ns();
    }
    by_step.values().map(|ns| *ns as f64 / 1e6).collect()
}

/// Writes every rank's spans as one JSON object per line. A span's `id` is
/// `"<rank>:<index>"`; `parent` names a span of the same rank or is `null`.
pub fn write_jsonl(path: &Path, ranks: &[Vec<Span>]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for spans in ranks {
        for (i, s) in spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => format!("\"{}:{p}\"", s.rank),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"id\":\"{}:{i}\",\"name\":\"{}\",\"rank\":{},\"step\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.rank, s.name, s.rank, s.step, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            rank: 0,
            step: 0,
            start_ns,
            end_ns,
            parent,
            sched: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > a [10,40] > a1 [15,25]; root > b [50,70].
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a1", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 30 - 20);
        assert_eq!(self_ns(&spans, 1), 30 - 10);
        assert_eq!(self_ns(&spans, 2), 10);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        // Children [10,40] and [30,60] overlap; [55,58] is inside the second;
        // [90,120] sticks out of the parent and is clipped to [90,100].
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 30, 60, Some(0)),
            span("y", 10, 40, Some(0)),
            span("z", 55, 58, Some(0)),
            span("w", 90, 120, Some(0)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_spans_and_groups_them_by_step() {
        let mut t = Tracer::new(Instant::now(), 3);
        for step in 0..2 {
            let outer = t.open("step", step);
            t.time("leaf", step, || std::hint::black_box(1 + 1));
            t.time("leaf", step, || std::hint::black_box(2 + 2));
            t.close(outer);
        }
        let spans = t.into_spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[4].parent, Some(3));
        assert_eq!(spans[3].parent, None);
        assert!(spans.iter().all(|s| s.rank == 3 && s.end_ns >= s.start_ns));
        let leaf = per_step_ms(&spans, "leaf");
        assert_eq!(leaf.len(), 2);
        let want = (spans[1].duration_ns() + spans[2].duration_ns()) as f64 / 1e6;
        assert_eq!(leaf[0], want);
        assert!(per_step_ms(&spans, "absent").is_empty());
    }

    #[test]
    fn metered_spans_carry_a_scheduler_delta_when_proc_is_readable() {
        let mut t = Tracer::new(Instant::now(), 0);
        let id = t.open_metered("wait", 0);
        t.close(id);
        let spans = t.into_spans();
        if let Some(delta) = spans[0].sched {
            // A delta over a few microseconds, not an absolute reading.
            assert!(delta.on_cpu_ns < 1_000_000_000);
        }
    }

    #[test]
    fn jsonl_has_one_object_per_span_with_rank_scoped_ids() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-trace");
        let path = dir.join("t.jsonl");
        let mut child = span("b", 2, 3, Some(0));
        child.rank = 1;
        let mut root = span("a", 1, 5, None);
        root.rank = 1;
        write_jsonl(&path, &[vec![span("a", 0, 9, None)], vec![root, child]]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[2],
            "{\"id\":\"1:1\",\"name\":\"b\",\"rank\":1,\"step\":0,\"start_ns\":2,\"end_ns\":3,\"parent\":\"1:0\"}"
        );
        assert!(lines[0].ends_with("\"parent\":null}"));
    }
}
