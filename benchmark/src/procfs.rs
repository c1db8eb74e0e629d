//! Readers for the two `/proc` files the benchmark meters itself with.
//! Each parser is a pure function of the file's text so it can be tested on
//! fixtures; each reader returns `None` when the file is missing or
//! malformed, and the caller decides whether the metric can be omitted.

use std::fs;

/// A `kB` field (e.g. `VmHWM`) from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(text: &str, key: &str) -> Option<u64> {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))?;
    let mut parts = line.split_ascii_whitespace();
    let value = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// One thread's scheduler account: nanoseconds on a CPU and nanoseconds
/// runnable but waiting for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent executing, ns.
    pub on_cpu_ns: u64,
    /// Time spent on a run queue waiting for a CPU, ns.
    pub runqueue_wait_ns: u64,
}

/// Parses the text of `/proc/<pid>/task/<tid>/schedstat`.
pub fn parse_schedstat(text: &str) -> Option<SchedStat> {
    let mut fields = text.split_ascii_whitespace();
    Some(SchedStat {
        on_cpu_ns: fields.next()?.parse().ok()?,
        runqueue_wait_ns: fields.next()?.parse().ok()?,
    })
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let kb = parse_status_kb(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")?;
    Some(kb as f64 / 1024.0)
}

/// The calling thread's scheduler account.
pub fn thread_schedstat() -> Option<SchedStat> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_finds_the_exact_key() {
        let text = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(text, "VmHWM"), Some(20480));
        assert_eq!(parse_status_kb(text, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(text, "Vm"), None);
        assert_eq!(parse_status_kb(text, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWM:\t12 pages\n", "VmHWM"), None);
    }

    #[test]
    fn schedstat_takes_the_first_two_fields() {
        assert_eq!(
            parse_schedstat("1234567 89012 42\n"),
            Some(SchedStat {
                on_cpu_ns: 1_234_567,
                runqueue_wait_ns: 89_012
            })
        );
        assert_eq!(parse_schedstat("1234567\n"), None);
        assert_eq!(parse_schedstat("a b c"), None);
    }

    #[test]
    fn readers_agree_with_the_running_process() {
        // On Linux the files exist; elsewhere the readers must say so with
        // `None`, never panic.
        if let Some(rss) = peak_rss_mb() {
            assert!(rss > 0.0);
        }
        if let (Some(a), Some(b)) = (thread_schedstat(), thread_schedstat()) {
            assert!(b.on_cpu_ns >= a.on_cpu_ns);
        }
    }
}
