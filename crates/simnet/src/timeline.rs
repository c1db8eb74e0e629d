//! ASCII timeline rendering of recorded transfers — a quick visual check
//! of what a collective's schedule actually does on the fabric (who is
//! busy when, where the serialization is).

use crate::faults::FaultEvent;
use crate::netsim::TransferEvent;
use cloudtrain_obs::Span;

/// Renders one row per node NIC (tx side) plus one aggregate intra-node
/// row, over `width` character columns spanning `[0, makespan]`. Each cell
/// shows how many transfers overlapped that slice (` `, `1`-`9`, then `#`).
pub fn render_timeline(
    trace: &[TransferEvent],
    nodes: usize,
    gpus_per_node: usize,
    width: usize,
) -> String {
    assert!(width > 0, "render_timeline: width must be positive");
    let makespan = trace.iter().map(|e| e.end).fold(0.0f64, f64::max);
    if makespan <= 0.0 || trace.is_empty() {
        return "(no transfers)\n".to_string();
    }
    let col_of = |t: f64| ((t / makespan) * width as f64).min(width as f64 - 1.0) as usize;

    let mut rows: Vec<Vec<u32>> = vec![vec![0; width]; nodes + 1];
    for e in trace {
        let (a, b) = (col_of(e.start), col_of(e.end));
        if e.inter_node {
            // Charge the sender's node NIC row.
            let node = (e.src / gpus_per_node.max(1)).min(nodes - 1);
            for cell in &mut rows[node][a..=b] {
                *cell += 1;
            }
        } else {
            for cell in &mut rows[nodes][a..=b] {
                *cell += 1;
            }
        }
    }

    let glyph = |n: u32| match n {
        0 => ' ',
        #[expect(
            clippy::unwrap_used,
            reason = "the match arm guarantees n is a single decimal digit, for which from_digit always succeeds"
        )]
        1..=9 => char::from_digit(n, 10).unwrap(),
        _ => '#',
    };
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        let label = if i < nodes {
            format!("nic{i:<3}")
        } else {
            "intra ".to_string()
        };
        out.push_str(&label);
        out.push('|');
        for &n in row {
            out.push(glyph(n));
        }
        out.push_str("|\n");
    }
    out.push_str(&format!(
        "       0 {:>width$.3} s\n",
        makespan,
        width = width - 2
    ));
    out
}

/// Serialises a recorded trace plus its injected faults as a deterministic
/// line-based event log.
///
/// One line per transfer (`>` inter-node, `-` intra-node) followed by one
/// line per fault, all fields rendered with fixed-precision scientific
/// notation — so two runs of the same schedule under the same
/// [`crate::FaultPlan`] seed produce **byte-identical** logs. This is the
/// artifact the CI fault gauntlet diffs: any nondeterminism in the fault
/// path shows up as a byte difference.
///
/// ```
/// use cloudtrain_simnet::timeline::event_log;
/// use cloudtrain_simnet::{clouds, FaultPlan, NetSim, SimResilience};
///
/// let mut sim = NetSim::new(clouds::tencent(2));
/// sim.enable_trace();
/// sim.inject_faults(FaultPlan::new(7).with_drops(0.2), SimResilience::default());
/// sim.transfer(0, 8, 4096);
/// let log = event_log(sim.trace(), sim.fault_events());
/// assert!(log.starts_with("transfer"));
/// ```
pub fn event_log(trace: &[TransferEvent], faults: &[FaultEvent]) -> String {
    event_log_with_spans(trace, faults, &[])
}

/// [`event_log`] extended with span-open/span-close events from an
/// observability registry (see [`cloudtrain_obs::Registry::spans`]), so a
/// full trace — transfers, faults, *and* the phase structure around them —
/// replays deterministically.
///
/// Span events are appended after the transfer and fault lines, ordered by
/// virtual time with record order as the tie-break (an open always
/// precedes its own close):
///
/// ```text
/// span-open name=<name> depth=<d> t=<start>
/// span-close name=<name> depth=<d> t=<end>
/// ```
pub fn event_log_with_spans(
    trace: &[TransferEvent],
    faults: &[FaultEvent],
    spans: &[Span],
) -> String {
    let mut out = String::new();
    for e in trace {
        let dir = if e.inter_node { '>' } else { '-' };
        out.push_str(&format!(
            "transfer {dir} src={} dst={} bytes={} start={:.9e} end={:.9e}\n",
            e.src, e.dst, e.bytes, e.start, e.end
        ));
    }
    for f in faults {
        out.push_str(&format!(
            "fault seq={} src={} dst={} kind={}\n",
            f.seq,
            f.src,
            f.dst,
            f.kind.code()
        ));
    }
    // (time, seq) events: span i contributes an open at seq 2i and a close
    // at seq 2i+1, so equal-time ties resolve in record order and an open
    // sorts before its own close. Span times are finite by construction
    // (the registry's clock is monotone and finite), so the comparison is
    // total.
    let mut events: Vec<(f64, usize, String)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((
            s.start,
            2 * i,
            format!(
                "span-open name={} depth={} t={:.9e}\n",
                s.name, s.depth, s.start
            ),
        ));
        events.push((
            s.end,
            2 * i + 1,
            format!(
                "span-close name={} depth={} t={:.9e}\n",
                s.name, s.depth, s.end
            ),
        ));
    }
    events.sort_by(|a, b| {
        #[expect(
            clippy::expect_used,
            reason = "span times come from the virtual clock, which only ever adds finite non-negative costs"
        )]
        a.0.partial_cmp(&b.0)
            .expect("finite span times")
            .then(a.1.cmp(&b.1))
    });
    for (_, _, line) in events {
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clouds;
    use crate::collectives::sim_torus_all_reduce;
    use crate::NetSim;

    #[test]
    fn renders_rows_and_span() {
        let spec = clouds::tencent(2);
        let mut sim = NetSim::new(spec);
        sim.enable_trace();
        sim_torus_all_reduce(&mut sim, &spec, 4 << 20);
        let s = render_timeline(sim.trace(), 2, 8, 60);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4); // 2 nics + intra + axis
        assert!(lines[0].starts_with("nic0"));
        assert!(lines[2].starts_with("intra"));
        // Something happened on both planes.
        assert!(lines[0].chars().any(|c| c != ' ' && c != '|'));
        assert!(lines[2].contains(|c: char| c.is_ascii_digit() || c == '#'));
    }

    #[test]
    fn empty_trace_is_graceful() {
        assert_eq!(render_timeline(&[], 4, 8, 40), "(no transfers)\n");
    }

    #[test]
    fn event_log_lists_transfers_then_faults() {
        use crate::{FaultPlan, SimResilience};
        let spec = clouds::tencent(2);
        let mut sim = NetSim::new(spec);
        sim.enable_trace();
        sim.inject_faults(FaultPlan::new(9).with_drops(0.9), SimResilience::default());
        sim.transfer(0, 1, 100); // intra: no fault lines
        sim.transfer(0, 8, 100);
        let log = event_log(sim.trace(), sim.fault_events());
        let lines: Vec<&str> = log.lines().collect();
        assert!(lines[0].starts_with("transfer - src=0 dst=1"));
        assert!(lines[1].starts_with("transfer > src=0 dst=8"));
        assert!(lines[2..].iter().all(|l| l.starts_with("fault seq=0")));
        assert!(log.contains("drop[0]"));
    }

    #[test]
    fn event_log_spans_interleave_by_virtual_time() {
        let spec = clouds::tencent(2);
        let mut sim = NetSim::new(spec);
        sim.enable_trace();
        sim.attach_obs();
        sim_torus_all_reduce(&mut sim, &spec, 1 << 20);
        let reg = sim.take_obs().unwrap();
        let log = event_log_with_spans(sim.trace(), sim.fault_events(), reg.spans());
        let span_lines: Vec<&str> = log.lines().filter(|l| l.starts_with("span-")).collect();
        // 3 phases -> 3 opens + 3 closes, opens before their closes.
        assert_eq!(span_lines.len(), 6);
        assert!(span_lines[0].starts_with("span-open name=2dtar/intra reduce-scatter"));
        assert!(log.contains("span-close name=2dtar/intra all-gather"));
        // The spans land after the transfer lines, in sorted time order.
        let times: Vec<f64> = span_lines
            .iter()
            .map(|l| l.rsplit("t=").next().unwrap().parse().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        // Without spans the log is unchanged from the legacy form.
        assert_eq!(
            event_log(sim.trace(), sim.fault_events()),
            event_log_with_spans(sim.trace(), sim.fault_events(), &[])
        );
    }

    #[test]
    fn event_log_is_byte_identical_across_replays() {
        let run = || {
            let spec = clouds::tencent(2);
            let mut sim = NetSim::new(spec);
            sim.enable_trace();
            sim.inject_faults(
                crate::FaultPlan::new(123)
                    .with_drops(0.2)
                    .with_spikes(0.2, 1e-3),
                crate::SimResilience::default(),
            );
            sim_torus_all_reduce(&mut sim, &spec, 1 << 20);
            event_log(sim.trace(), sim.fault_events())
        };
        assert_eq!(run(), run());
    }
}
