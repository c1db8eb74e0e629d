//! Minimal in-repo stand-in for `criterion`.
//!
//! Provides the API surface the workspace benches use (`benchmark_group`,
//! `bench_function`, `bench_with_input`, `Bencher::iter`, `Throughput`,
//! `sample_size`, the `criterion_group!`/`criterion_main!` macros) with a
//! simple wall-clock measurement loop: a short calibration pass sizes the
//! iteration batch, then the median over `sample_size` samples is reported
//! as ns/iter on stdout. No statistical analysis, plots, or baselines.

#![forbid(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "a benchmark harness measures wall time by definition"
)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Target wall-clock duration of a single measurement sample.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// Top-level harness handle; created by `criterion_group!`.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// How to express throughput for a benchmark's reported time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many elements per iteration.
    Elements(u64),
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
}

/// A benchmark identifier combining a function name and an input parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds `name/parameter`.
    pub fn new<P: Display>(name: &str, parameter: P) -> Self {
        Self {
            id: format!("{name}/{parameter}"),
        }
    }
}

/// A named set of benchmarks sharing sample-count and throughput settings.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup {
    /// Sets the number of measurement samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Sets the throughput used when reporting rates.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs a benchmark with no explicit input parameter.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher);
        self.report(id, &bencher);
        self
    }

    /// Runs a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.sample_size);
        f(&mut bencher, input);
        self.report(&id.id, &bencher);
        self
    }

    /// Ends the group (reporting already happened per-benchmark).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, bencher: &Bencher) {
        let ns = bencher.median_ns();
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) if ns > 0.0 => {
                format!("  ({:.1} Melem/s)", n as f64 / ns * 1e3)
            }
            Some(Throughput::Bytes(n)) if ns > 0.0 => {
                format!("  ({:.1} MiB/s)", n as f64 / ns * 1e9 / (1024.0 * 1024.0))
            }
            _ => String::new(),
        };
        println!("{}/{id}: {ns:.0} ns/iter{rate}", self.name);
    }
}

/// Measures closures: calibrates a batch size, then times samples.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    sample_ns: Vec<f64>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Self {
            sample_size,
            sample_ns: Vec::new(),
        }
    }

    /// Times `f`, storing per-iteration nanoseconds for each sample.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibration: how many iterations fit in one sample window?
        let start = Instant::now();
        let mut calib_iters = 0u64;
        while start.elapsed() < SAMPLE_TARGET / 4 && calib_iters < 1_000_000 {
            std::hint::black_box(f());
            calib_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / calib_iters as f64;
        let batch = ((SAMPLE_TARGET.as_secs_f64() / per_iter) as u64).clamp(1, 10_000_000);

        self.sample_ns.clear();
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let total = t0.elapsed().as_secs_f64();
            self.sample_ns.push(total * 1e9 / batch as f64);
        }
    }

    fn median_ns(&self) -> f64 {
        if self.sample_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.sample_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[sorted.len() / 2]
    }
}

/// Declares a function that runs the listed benchmark targets in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        group.throughput(Throughput::Elements(16));
        let mut ran = false;
        group.bench_function("noop", |b| {
            b.iter(|| std::hint::black_box(1 + 1));
            ran = true;
        });
        group.finish();
        assert!(ran);
    }
}
