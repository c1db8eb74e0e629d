//! The metric catalogue (the same names, units and order as
//! `BENCHMARK.json`; a unit test holds the two together) and the result of
//! one workload run.

/// Name, unit and whether higher is better.
pub type MetricSpec = (&'static str, &'static str, bool);

/// An end-to-end metric and the rule a later change is held to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether higher is better.
    pub higher: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// A count or a virtual time: a pure function of the seed, so two runs
    /// of one commit with one seed must agree bit for bit.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher,
        bound,
        exact,
    }
}

/// End-to-end metrics: what a user of the system sees. Every workload
/// reports every one of them from an untraced run; none is ever zero.
/// (`failed_share`, the eighth, is always zero on these workloads and so
/// travels as the result line's `failed` / `attempted`.)
pub const END_TO_END: &[EndToEnd] = &[
    e2e("steps_per_s", "1/s", true, 0.25, false),
    e2e("cpu_ms_per_step", "ms", false, 0.25, false),
    e2e("setup_s", "s", false, 0.25, false),
    e2e("peak_rss_mb", "MB", false, 0.10, false),
    e2e("quality_gap", "ratio", false, 0.15, true),
    e2e("cloud_step_ms", "virt_ms", false, 0.06, true),
    e2e("wire_kb_per_step", "KB", false, 0.02, true),
];

/// Per-layer metrics, from a traced run. A workload reports the ones whose
/// layer lies on its path; the others read 0 ("this layer did nothing
/// here").
pub const PER_LAYER: &[MetricSpec] = &[
    ("tensor.memcpy_gbps", "GB/s", true),
    ("tensor.add_assign_gbps", "GB/s", true),
    ("tensor.scatter_add_melem_s", "Melem/s", true),
    ("tensor.l2_norm_gbps", "GB/s", true),
    ("compress.ef_compensate_ms", "ms", false),
    ("compress.mstopk_select_ms", "ms", false),
    ("compress.ef_absorb_ms", "ms", false),
    ("compress.mstopk_passes", "count", false),
    ("compress.selected_k", "count", false),
    ("compress.mass_ratio", "ratio", true),
    ("compress.select_small_us", "us", false),
    ("collectives.intra_rs_ms", "ms", false),
    ("collectives.inter_ag_pairs_ms", "ms", false),
    ("collectives.scatter_add_ms", "ms", false),
    ("collectives.intra_ag_ms", "ms", false),
    ("collectives.blocked_share", "share", false),
    ("collectives.runqueue_wait_share", "share", false),
    ("collectives.torus_small_us", "us", false),
    ("collectives.hitopk_small_us", "us", false),
    ("collectives.torus_large_gbps", "GB/s", true),
    ("collectives.calls_per_step", "count", false),
    ("collectives.scratch_misses_steady", "count", false),
    ("dnn.forward_ms", "ms", false),
    ("dnn.backward_ms", "ms", false),
    ("dnn.param_io_ms", "ms", false),
    ("optim.lars_rates_serial_ms", "ms", false),
    ("pto.lars_rates_ms", "ms", false),
    ("optim.apply_ms", "ms", false),
    ("engine.step_ms_p50", "ms", false),
    ("engine.step_ms_tail", "ms", false),
    ("engine.self_ms", "ms", false),
    ("engine.fusion_buckets", "count", false),
    ("engine.model_err_share", "share", false),
    ("obs.overhead_share", "share", false),
    ("obs.jsonl_lines", "count", false),
    ("datacache.fill_samples_s", "1/s", true),
    ("datacache.mem_hit_samples_s", "1/s", true),
    ("datacache.disk_hit_samples_s", "1/s", true),
    ("datacache.decode_us_per_sample", "us", false),
    ("datacache.disk_put_us_per_sample", "us", false),
    ("datacache.disk_get_us_per_sample", "us", false),
    ("datacache.mem_hit_rate", "share", true),
    ("datacache.evictions", "count", false),
    ("datacache.nfs_bytes_per_step", "B", false),
    ("datacache.virtual_ms_per_step", "virt_ms", false),
    ("simnet.hitopk_makespan_ms", "virt_ms", false),
    ("simnet.torus_makespan_ms", "virt_ms", false),
    ("simnet.sim_wall_ms", "ms", false),
    ("trace.overhead_share", "share", false),
    ("trace.round_coverage_share", "share", true),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// As measured, all digits.
    pub value: f64,
    /// Number of timing samples behind a median or tail; 1 for a count or a
    /// single reading.
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked (reps, rounds or loads).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Measured metrics, any order; see [`Outcome::complete`].
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a metric.
    pub fn put(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Counts one checked operation; `check` says what was wrong with it.
    pub fn check(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// The metrics in catalogue order. An end-to-end catalogue must be
    /// covered exactly; a per-layer one is padded with zeros.
    ///
    /// # Panics
    /// Panics on a metric outside `catalogue`, a duplicate, or a missing
    /// end-to-end metric: each is a bug in a workload, not a measurement.
    pub fn complete(&self, catalogue: &[&'static str], pad: bool) -> Vec<Metric> {
        for m in &self.metrics {
            let hits = self.metrics.iter().filter(|o| o.name == m.name).count();
            assert_eq!(hits, 1, "metric {} reported {hits} times", m.name);
            assert!(
                catalogue.contains(&m.name),
                "metric {} is not in the catalogue",
                m.name
            );
        }
        catalogue
            .iter()
            .map(|&name| match self.metrics.iter().find(|m| m.name == name) {
                Some(m) => m.clone(),
                None if pad => Metric {
                    name,
                    value: 0.0,
                    samples: 0,
                },
                None => panic!("end-to-end metric {name} was not measured"),
            })
            .collect()
    }
}

/// The unit of a catalogue metric.
pub fn unit_of(name: &str) -> &'static str {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
    let layers = PER_LAYER.iter().map(|m| (m.0, m.1));
    e2e.chain(layers)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                m.name,
                m.value,
                unit_of(m.name)
            )
        })
        .collect();
    format!("\"metrics\": {{{}}}", body.join(", "))
}

fn verdict_json(outcome: &Outcome) -> String {
    format!(
        "\"correct\": {}, \"attempted\": {}, \"failed\": {}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    )
}

/// The result line the driver reads: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{{}, {}}}",
        verdict_json(outcome),
        metrics_json(metrics, false)
    )
}

/// The result file the suite collects: the result line's content plus the
/// run's parameters (`header`, as JSON members) and each metric's sample
/// count.
pub fn result_file(header: &str, outcome: &Outcome, metrics: &[Metric]) -> String {
    format!(
        "{{{header}, {}, {}}}",
        verdict_json(outcome),
        metrics_json(metrics, true)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<(&str, &str)> = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| (m.name, m.unit, m.higher) == ("setup_s", "s", false)));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn per_layer_is_padded_and_end_to_end_is_not() {
        let mut o = Outcome::default();
        o.put("dnn.forward_ms", 1.5, 40);
        let names: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        let all = o.complete(&names, true);
        assert_eq!(all.len(), PER_LAYER.len());
        assert_eq!(all.iter().filter(|m| m.value != 0.0).count(), 1);
        let missing = std::panic::catch_unwind(|| {
            let mut o = Outcome::default();
            o.put("steps_per_s", 1.0, 1);
            o.complete(&["steps_per_s", "setup_s"], false)
        });
        assert!(missing.is_err());
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_digit() {
        let mut o = Outcome::default();
        o.check(Ok(()));
        o.check(Err("bad".into()));
        o.put("setup_s", 0.1 + 0.2, 3);
        let line = result_line(&o, &o.metrics);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.30000000000000004, \"unit\": \"s\"}}}"
        );
    }
}
