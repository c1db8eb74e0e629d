//! The two things the benchmark asks of the kernel through the C library
//! `std` already links: one CPU for the whole process, and CPU-time clocks
//! fine enough to meter a single rep.
//!
//! **Why one CPU.** The box gives the benchmark two virtual cores of a shared
//! host. Four rank threads that hand work to each other across two such
//! cores are placed by wake-up heuristics (2+2 or 3+1, a 50 % difference in
//! step time) and woken by inter-processor interrupts whose cost is the
//! hypervisor's, so runs of one binary disagreed by 30–40 %. On one CPU every
//! hand-off is a local context switch and a rep's wall time is the ranks'
//! total work plus those switches: the same number run after run. Threads
//! inherit the mask, so one call at process start covers the trainer's and
//! `run_on_group`'s workers.

use std::fs;

/// Words of the mask handed to the kernel: 1,024 CPUs, glibc's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// `struct timespec` as 64-bit Linux lays it out.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}
const _: () = assert!(std::mem::size_of::<usize>() == 8, "64-bit targets only");

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// A stopwatch on CPU time (user + system) at the kernel's nanosecond
/// resolution; `/proc/self/stat` counts in 10 ms ticks, too coarse for one
/// rep. End-to-end results cannot do without it, so a failing clock is a
/// panic.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock {
    clock: i32,
    start_s: f64,
}

impl CpuClock {
    /// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, those that
    /// already exited included.
    pub fn process() -> Self {
        Self::start(2)
    }

    /// `CLOCK_THREAD_CPUTIME_ID`: the calling thread alone.
    pub fn thread() -> Self {
        Self::start(3)
    }

    fn start(clock: i32) -> Self {
        Self {
            clock,
            start_s: Self::now(clock),
        }
    }

    fn now(clock: i32) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, exclusively borrowed `timespec` of the
        // layout asserted above, which is all `clock_gettime` writes to.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime({clock}) failed");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }

    /// CPU seconds since the start; read it on the thread that started a
    /// thread clock.
    pub fn elapsed_s(&self) -> f64 {
        Self::now(self.clock) - self.start_s
    }
}

/// The CPUs of a kernel list such as `0-1,4` (`Cpus_allowed_list`).
pub fn parse_cpu_list(text: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in text.trim().split(',') {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        let (lo, hi): (usize, usize) = (lo.parse().ok()?, hi.parse().ok()?);
        if lo > hi || hi >= MASK_WORDS * 64 {
            return None;
        }
        cpus.extend(lo..=hi);
    }
    Some(cpus)
}

/// Restricts this thread, and every thread it spawns from now on, to the
/// highest-numbered CPU it is allowed on (CPU 0 is where a small VM's
/// interrupts land). Returns that CPU, or why the process stays unpinned.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let cpu = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .and_then(parse_cpu_list)
        .and_then(|cpus| cpus.last().copied())
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live array of exactly the `size_of_val(&mask)`
    // bytes the kernel is told to read, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-1\n"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("\t3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("0-2,5,8-9"), Some(vec![0, 1, 2, 5, 8, 9]));
    }

    #[test]
    fn cpu_clocks_advance_with_work_and_thread_stays_within_process() {
        let (process, thread) = (CpuClock::process(), CpuClock::thread());
        let mut x = 1u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        let (p, t) = (process.elapsed_s(), thread.elapsed_s());
        assert!(t > 0.0 && p >= t * 0.99, "process {p} s, thread {t} s");
    }

    #[test]
    fn malformed_cpu_lists_are_refused() {
        for text in ["", "a", "3-1", "0-", "1,,2", "0-4096"] {
            assert_eq!(parse_cpu_list(text), None, "{text:?}");
        }
    }
}
