//! Host measurements: wall time, the CPU time of the measuring thread,
//! the process's peak resident set, and the pace of the host as timed by
//! a fixed reference pass.
//!
//! Every wall-clock read of the benchmark goes through [`now`], so the
//! repository's determinism lint has one place to accept it. CPU time and
//! peak RSS come from `/proc`, so they need Linux. The benchmark runs
//! every cell on its main thread, so that thread's CPU time is the
//! process's.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::time::Instant;

/// Seconds one [`reference`] pass is taken to last on the nominal host.
/// The benchmark's time metrics are scaled to that host: a span timed
/// between reference passes that took `r` seconds on average is reported
/// as `span * REFERENCE_NOMINAL_S / r`.
pub const REFERENCE_NOMINAL_S: f64 = 0.025;

/// The host's monotonic clock. Host time is what the benchmark measures;
/// it never feeds back into a simulation.
#[must_use]
pub fn now() -> Instant {
    Instant::now() // detlint: allow(D1) — benchmark host timing
}

/// CPU seconds the calling thread has spent on a CPU so far.
///
/// Reads the nanosecond run-time counter of `/proc/thread-self/schedstat`.
/// Falls back to the 10 ms-tick `utime + stime` of `/proc/self/stat` where
/// schedstat is not compiled into the kernel.
///
/// # Panics
///
/// Panics when neither file can be read: the benchmark cannot report
/// CPU-normalised throughput without one of them.
#[must_use]
pub fn thread_cpu_s() -> f64 {
    if let Some(ns) = fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
    {
        return ns as f64 * 1e-9;
    }
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 11 and 12 after `)`.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
/// Zero when `/proc/self/status` has no such line.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Host time of reference work: one pass, or the mean of the passes
/// around a timed span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pace {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of the measuring thread.
    pub cpu_s: f64,
}

impl Pace {
    /// The mean of the pass before a span and the pass after it.
    #[must_use]
    pub fn around(before: Pace, after: Pace) -> Pace {
        Pace {
            wall_s: (before.wall_s + after.wall_s) / 2.0,
            cpu_s: (before.cpu_s + after.cpu_s) / 2.0,
        }
    }

    /// `wall_s` wall seconds measured at this pace, scaled to the nominal
    /// host.
    #[must_use]
    pub fn nominal_wall(self, wall_s: f64) -> f64 {
        wall_s * REFERENCE_NOMINAL_S / self.wall_s
    }

    /// `cpu_s` CPU seconds measured at this pace, scaled to the nominal
    /// host.
    #[must_use]
    pub fn nominal_cpu(self, cpu_s: f64) -> f64 {
        cpu_s * REFERENCE_NOMINAL_S / self.cpu_s
    }
}

/// Times one pass of the benchmark's fixed reference work.
///
/// The benchmark times a pass before and after every timed span and
/// scales the span by their mean, so a host that runs slower for minutes
/// (a busy neighbour on a shared machine) slows both alike and the scaled
/// figure stays put, while a slower program still reads slower. The work
/// is the benchmark's own and never changes with the program: a random
/// cyclic permutation of 1 Mi slots (4 MiB, beyond the private caches)
/// built and walked, and a 4,096-entry min-heap churned, the access
/// patterns of the engines' object tables and event queues.
#[must_use]
pub fn reference() -> Pace {
    let cpu0 = thread_cpu_s();
    let t0 = now();
    std::hint::black_box(reference_work(std::hint::black_box(0x9E37_79B9_7F4A_7C15)));
    Pace {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: thread_cpu_s() - cpu0,
    }
}

fn reference_work(seed: u64) -> u64 {
    const SLOTS: u32 = 1 << 20;
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // Sattolo's shuffle: one cycle through every slot.
    let mut ring: Vec<u32> = (0..SLOTS).collect();
    for i in (1..ring.len()).rev() {
        let j = (next() % i as u64) as usize;
        ring.swap(i, j);
    }
    let mut heap: BinaryHeap<Reverse<u64>> = (0..4_096).map(|_| Reverse(next() >> 20)).collect();
    let mut acc = 0u64;
    for _ in 0..200_000 {
        if let Some(Reverse(t)) = heap.pop() {
            acc = acc.wrapping_add(t);
            heap.push(Reverse(t + (next() >> 44)));
        }
    }
    let mut at = 0u32;
    for _ in 0..300_000 {
        at = ring[at as usize];
    }
    acc.wrapping_add(u64::from(at))
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = thread_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s() > before);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn reference_pass_takes_time_and_scales_to_nominal() {
        let pace = reference();
        assert!(pace.wall_s > 0.0 && pace.cpu_s > 0.0);
        let nominal = Pace {
            wall_s: REFERENCE_NOMINAL_S,
            cpu_s: REFERENCE_NOMINAL_S,
        };
        assert!((nominal.nominal_wall(3.0) - 3.0).abs() < 1e-12);
        let half = Pace::around(
            nominal,
            Pace {
                wall_s: 0.0,
                cpu_s: 0.0,
            },
        );
        assert!((half.nominal_cpu(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
