//! The regression-tracked benchmark suite behind `repro bench`.
//!
//! Times the hot substrates (lock table, event queue, dense maps, client
//! cache), one quick end-to-end run per system with its simulated-events
//! throughput, and a quick sweep at one and at all cores. The end-to-end
//! rows also record a CPU-time throughput (`events_per_sec_cpu`): on a
//! shared or virtualized box, host-level steal inflates wall-clock by
//! multiples while the guest's own CPU accounting stays steady, so the CPU
//! figure is the one throughput floors should gate on. Results are written
//! to a JSON file (`BENCH_sim.json` by default) whose schema is
//! hand-rolled — the workspace builds offline, so there is no serde — and
//! a committed baseline can be compared against with `--baseline`, failing
//! on missing fields or a >2x per-benchmark regression. Two saved reports
//! can be diffed against each other with [`BenchComparison`] (the
//! `--compare OLD NEW` mode of `repro bench`).

use std::fmt::Write as _;
use std::time::Instant;

use siteselect_core::experiments::{deadline_figure, effective_jobs, SweepOptions};
use siteselect_core::{run_experiment, run_experiment_traced};
use siteselect_locks::{Acquire, LockTable, QueueDiscipline};
use siteselect_sim::EventQueue;
use siteselect_storage::ClientCache;
use siteselect_types::{
    ClientId, ExperimentConfig, LockMode, ObjectId, ObjectMap, SimDuration, SimTime, SystemKind,
};

use crate::harness::{format_ns, measure};

/// One measured benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Stable identifier, used to match against the baseline.
    pub name: String,
    /// Best-of-samples nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Simulated engine events per wall-clock second, for end-to-end runs.
    pub events_per_sec: Option<f64>,
    /// Simulated engine events per process-CPU second, for end-to-end
    /// runs. Immune to host-level steal (the guest only accrues CPU time
    /// while actually running), so throughput gates should prefer this
    /// over [`events_per_sec`](Self::events_per_sec) on shared machines.
    pub events_per_sec_cpu: Option<f64>,
}

/// The full suite result: metadata plus every record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Available cores on the machine that produced the numbers.
    pub cores: usize,
    /// `rustc --version` of the toolchain, `"unknown"` if unavailable.
    pub rustc: String,
    /// Short git revision of the tree that produced the numbers,
    /// suffixed `-dirty` when tracked files were modified; `"unknown"`
    /// outside a checkout.
    pub git_rev: String,
    /// Measurements in execution order.
    pub benchmarks: Vec<BenchRecord>,
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|changes| !changes.trim().is_empty());
    format_rev(rev.trim(), dirty)
}

/// `rev`, suffixed `-dirty` when tracked files differ from it.
fn format_rev(rev: &str, dirty: bool) -> String {
    if dirty {
        format!("{rev}-dirty")
    } else {
        rev.to_string()
    }
}

fn bench_cfg(system: SystemKind) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(system, 6, 0.05);
    cfg.runtime.duration = SimDuration::from_secs(200);
    cfg.runtime.warmup = SimDuration::from_secs(40);
    cfg.runtime.seed = 0x5173_5e1e;
    cfg
}

fn lock_table_grant_release() -> f64 {
    let mut table: LockTable<ClientId> = LockTable::new(QueueDiscipline::Fifo);
    let mut i = 0u32;
    measure(|b| {
        b.iter(|| {
            let obj = ObjectId(i % 64);
            let owner = ClientId((i % 7) as u16);
            i = i.wrapping_add(1);
            let got = table.request(obj, owner, LockMode::Exclusive, SimTime::from_secs(10));
            debug_assert!(matches!(got, Acquire::Granted));
            table.release(obj, owner)
        });
    })
}

fn lock_table_contended_promote() -> f64 {
    let mut table: LockTable<ClientId> = LockTable::new(QueueDiscipline::Deadline);
    let (a, b_own) = (ClientId(0), ClientId(1));
    let mut i = 0u32;
    measure(|b| {
        b.iter(|| {
            let obj = ObjectId(i % 16);
            i = i.wrapping_add(1);
            table.request(obj, a, LockMode::Exclusive, SimTime::from_secs(5));
            // Conflicting request parks b; releasing a promotes it.
            table.request(obj, b_own, LockMode::Shared, SimTime::from_secs(3));
            let granted = table.release(obj, a);
            debug_assert_eq!(granted.len(), 1);
            table.release(obj, b_own)
        });
    })
}

fn event_queue_churn() -> f64 {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(128);
    measure(|b| {
        b.iter(|| {
            for k in 0..64u32 {
                // Reversed times exercise real sift work, not append-pop.
                q.push(SimTime::from_micros(u64::from(64 - k)), k);
            }
            let mut drained = 0u32;
            while let Some((_, e)) = q.pop_before(SimTime::from_secs(1)) {
                drained += e;
            }
            drained
        });
    })
}

fn object_map_insert_get_remove() -> f64 {
    let mut map: ObjectMap<u64> = ObjectMap::with_capacity(1024);
    measure(|b| {
        b.iter(|| {
            let mut acc = 0u64;
            for k in 0..256u32 {
                let id = ObjectId((k * 37) % 1024);
                map.insert(id, u64::from(k));
                acc += map.get(id).copied().unwrap_or(0);
            }
            for k in 0..256u32 {
                map.remove(ObjectId((k * 37) % 1024));
            }
            acc
        });
    })
}

fn cache_probe_insert() -> f64 {
    let mut cache = ClientCache::new(50, 200);
    measure(|b| {
        b.iter(|| {
            let mut hits = 0u32;
            for k in 0..256u32 {
                let id = ObjectId(k % 300);
                if cache.probe(id).is_some() {
                    hits += 1;
                } else {
                    cache.insert(id);
                }
            }
            hits
        });
    })
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`.
/// `None` off Linux. Tick granularity is 10ms (`USER_HZ` is 100), so
/// callers must amortize over a long enough window.
fn cpu_time_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field may contain spaces but is parenthesised; utime and
    // stime are the 14th and 15th overall fields.
    let rest = stat.rsplit(')').next()?;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Simulated events per CPU second: repeats the run until at least 300ms
/// of CPU time accrues (30 scheduler ticks, so granularity error stays in
/// the low percent) and divides. `None` where CPU accounting is
/// unavailable.
fn cpu_events_per_sec(cfg: &ExperimentConfig, events: u64) -> Option<f64> {
    let start = cpu_time_seconds()?;
    let mut iters = 0u32;
    loop {
        run_experiment(cfg).ok()?;
        iters += 1;
        let elapsed = cpu_time_seconds()? - start;
        if elapsed >= 0.3 || iters >= 1000 {
            return Some(events as f64 * f64::from(iters) / elapsed.max(1e-9));
        }
    }
}

/// Times one full simulation and derives simulated-events/sec — by wall
/// clock and by process CPU time — from a traced twin run (tracing is a
/// pure observer, so the event count is the untraced run's event count
/// too).
fn sim_run(system: SystemKind) -> (f64, f64, Option<f64>) {
    let cfg = bench_cfg(system);
    let (_, trace) = run_experiment_traced(&cfg, 16).expect("valid bench config");
    let events = trace.report.events;
    let ns = measure(|b| {
        b.iter(|| run_experiment(&cfg).expect("valid bench config"));
    });
    let events_per_sec = events as f64 / (ns / 1e9);
    (ns, events_per_sec, cpu_events_per_sec(&cfg, events))
}

/// The client counts of the quick benchmark sweep.
const SWEEP_CLIENTS: [u16; 2] = [4, 8];

/// Wall-clock of one quick deadline sweep at the given job count.
fn sweep_wall_clock(jobs: usize) -> f64 {
    let opts = SweepOptions {
        duration: SimDuration::from_secs(200),
        warmup: SimDuration::from_secs(40),
        seed: 0x5173_5e1e,
        jobs,
    };
    let start = Instant::now();
    deadline_figure(0.05, &SWEEP_CLIENTS, opts).expect("valid sweep config");
    start.elapsed().as_nanos() as f64
}

/// Total simulated events across every cell of the quick sweep, from
/// traced twin runs (tracing is a pure observer, so the counts equal the
/// untraced sweep's). Shared by both sweep benchmarks, whose
/// events-per-second figures therefore differ only in wall-clock.
fn sweep_events() -> u64 {
    let mut total = 0u64;
    for &clients in &SWEEP_CLIENTS {
        for system in SystemKind::ALL {
            let mut cfg = ExperimentConfig::paper(system, clients, 0.05);
            cfg.runtime.duration = SimDuration::from_secs(200);
            cfg.runtime.warmup = SimDuration::from_secs(40);
            cfg.runtime.seed = 0x5173_5e1e;
            let (_, trace) = run_experiment_traced(&cfg, 16).expect("valid sweep config");
            total += trace.report.events;
        }
    }
    total
}

/// Runs the whole suite, printing each result as it lands.
#[must_use]
pub fn run_suite() -> BenchReport {
    let cores = effective_jobs(0, usize::MAX);
    let mut benchmarks = Vec::new();
    let mut push = |name: &str, ns: f64, events_per_sec: Option<f64>, cpu: Option<f64>| {
        match (events_per_sec, cpu) {
            (Some(eps), Some(cpu)) => println!(
                "{name:<45} {:>14}   {eps:>12.0} ev/s  {cpu:>12.0} ev/cpu-s",
                format_ns(ns)
            ),
            (Some(eps), None) => println!("{name:<45} {:>14}   {eps:>12.0} ev/s", format_ns(ns)),
            _ => println!("{name:<45} {:>14}", format_ns(ns)),
        }
        benchmarks.push(BenchRecord {
            name: name.to_string(),
            ns_per_iter: ns,
            events_per_sec,
            events_per_sec_cpu: cpu,
        });
    };

    push("lock_table/grant_release", lock_table_grant_release(), None, None);
    push(
        "lock_table/contended_promote",
        lock_table_contended_promote(),
        None,
        None,
    );
    push("event_queue/churn_64", event_queue_churn(), None, None);
    push(
        "object_map/insert_get_remove_256",
        object_map_insert_get_remove(),
        None,
        None,
    );
    push("client_cache/probe_insert_256", cache_probe_insert(), None, None);
    for (name, system) in [
        ("sim/centralized_quick", SystemKind::Centralized),
        ("sim/client_server_quick", SystemKind::ClientServer),
        ("sim/load_sharing_quick", SystemKind::LoadSharing),
    ] {
        let (ns, eps, cpu) = sim_run(system);
        push(name, ns, Some(eps), cpu);
    }
    let events = sweep_events() as f64;
    let ns1 = sweep_wall_clock(1);
    push("sweep/deadline_quick_jobs1", ns1, Some(events / (ns1 / 1e9)), None);
    // "all" = one worker per core; the core count itself is in the meta
    // block, so the benchmark name is stable across machines.
    let ns_all = sweep_wall_clock(cores);
    push(
        "sweep/deadline_quick_jobs_all",
        ns_all,
        Some(events / (ns_all / 1e9)),
        None,
    );

    BenchReport {
        cores,
        rustc: rustc_version(),
        git_rev: git_rev(),
        benchmarks,
    }
}

/// JSON float formatting: finite, plain decimal, round-trippable enough
/// for regression ratios.
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

impl BenchReport {
    /// Serializes the report to the committed JSON schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"meta\": {{\"cores\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\"}},",
            self.cores,
            self.rustc.replace('\\', "\\\\").replace('"', "\\\""),
            self.git_rev.replace('\\', "\\\\").replace('"', "\\\"")
        );
        out.push_str("  \"benchmarks\": [\n");
        for (i, b) in self.benchmarks.iter().enumerate() {
            let eps = b
                .events_per_sec
                .map_or_else(|| "null".to_string(), jnum);
            let cpu = b
                .events_per_sec_cpu
                .map_or_else(|| "null".to_string(), jnum);
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"ns_per_iter\": {}, \"events_per_sec\": {}, \"events_per_sec_cpu\": {}}}",
                b.name,
                jnum(b.ns_per_iter),
                eps,
                cpu
            );
            out.push_str(if i + 1 < self.benchmarks.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Reads one `"field": value` number off a benchmark line; `Ok(None)` when
/// the field is absent (older reports) or `null`.
fn field_num(line: &str, field: &str) -> Result<Option<f64>, String> {
    let key = format!("\"{field}\": ");
    let Some(pos) = line.find(&key) else {
        return Ok(None);
    };
    let raw = line[pos + key.len()..]
        .split([',', '}'])
        .next()
        .unwrap_or("")
        .trim();
    if raw == "null" {
        return Ok(None);
    }
    let v: f64 = raw
        .parse()
        .map_err(|e| format!("bad {field} in {line}: {e}"))?;
    Ok(Some(v))
}

/// Extracts the benchmark records from a report in our own schema.
///
/// This is a scanner for the exact format [`BenchReport::to_json`] writes
/// (one benchmark object per line), not a general JSON parser; anything it
/// cannot read reports as a malformed report. Reports written before the
/// `events_per_sec_cpu` field existed parse with that field `None`.
fn parse_report(json: &str) -> Result<Vec<BenchRecord>, String> {
    let mut out = Vec::new();
    for line in json.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix("{\"name\": \"") else {
            continue;
        };
        let (name, _) = rest
            .split_once('"')
            .ok_or_else(|| format!("unterminated name in: {line}"))?;
        let ns = field_num(line, "ns_per_iter")?
            .ok_or_else(|| format!("missing ns_per_iter in: {line}"))?;
        if !ns.is_finite() || ns <= 0.0 {
            return Err(format!("non-positive ns_per_iter in: {line}"));
        }
        out.push(BenchRecord {
            name: name.to_string(),
            ns_per_iter: ns,
            events_per_sec: field_num(line, "events_per_sec")?,
            events_per_sec_cpu: field_num(line, "events_per_sec_cpu")?,
        });
    }
    if out.is_empty() {
        return Err("no benchmarks found in report".to_string());
    }
    Ok(out)
}

/// Maximum tolerated slowdown against the baseline.
pub const REGRESSION_LIMIT: f64 = 2.0;

/// Compares `current` against a committed `baseline` report.
///
/// # Errors
///
/// Returns a description of the first problem found: a baseline that does
/// not parse, a baseline benchmark missing from the current run, or a
/// benchmark slower than [`REGRESSION_LIMIT`] times its baseline.
/// Machine-speed differences make cross-machine comparison meaningless, so
/// callers should only compare runs from comparable machines (CI compares
/// against a fresh same-machine run).
pub fn compare_against_baseline(current: &BenchReport, baseline: &str) -> Result<(), String> {
    let baseline = parse_report(baseline)?;
    for base in &baseline {
        let Some(cur) = current.benchmarks.iter().find(|b| b.name == base.name) else {
            return Err(format!("benchmark `{}` missing from current run", base.name));
        };
        let ratio = cur.ns_per_iter / base.ns_per_iter;
        if ratio > REGRESSION_LIMIT {
            return Err(format!(
                "benchmark `{}` regressed {ratio:.2}x ({} -> {})",
                base.name,
                format_ns(base.ns_per_iter),
                format_ns(cur.ns_per_iter)
            ));
        }
    }
    Ok(())
}

/// One benchmark's old-vs-new pairing inside a [`BenchComparison`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Benchmark name, present in both reports.
    pub name: String,
    /// The old report's record.
    pub old: BenchRecord,
    /// The new report's record.
    pub new: BenchRecord,
}

impl BenchDelta {
    /// New-over-old time ratio (>1 is slower).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.new.ns_per_iter / self.old.ns_per_iter
    }

    /// Signed time change in percent (+10 means 10% slower).
    #[must_use]
    pub fn delta_pct(&self) -> f64 {
        (self.ratio() - 1.0) * 100.0
    }

    /// True when the slowdown exceeds [`REGRESSION_LIMIT`].
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.ratio() > REGRESSION_LIMIT
    }
}

/// A per-benchmark diff of two saved reports (`repro bench --compare`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Benchmarks present in both reports, in the old report's order.
    pub deltas: Vec<BenchDelta>,
    /// Names only the old report has — treated as a regression (a gate
    /// must not pass because a benchmark silently vanished).
    pub only_in_old: Vec<String>,
    /// Names only the new report has; informational.
    pub only_in_new: Vec<String>,
}

impl BenchComparison {
    /// Pairs up two reports' records by benchmark name.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed report.
    pub fn from_json(old: &str, new: &str) -> Result<Self, String> {
        let old = parse_report(old).map_err(|e| format!("old report: {e}"))?;
        let new = parse_report(new).map_err(|e| format!("new report: {e}"))?;
        let mut deltas = Vec::new();
        let mut only_in_old = Vec::new();
        for o in &old {
            match new.iter().find(|n| n.name == o.name) {
                Some(n) => deltas.push(BenchDelta {
                    name: o.name.clone(),
                    old: o.clone(),
                    new: n.clone(),
                }),
                None => only_in_old.push(o.name.clone()),
            }
        }
        let only_in_new = new
            .iter()
            .filter(|n| !old.iter().any(|o| o.name == n.name))
            .map(|n| n.name.clone())
            .collect();
        Ok(BenchComparison {
            deltas,
            only_in_old,
            only_in_new,
        })
    }

    /// True when any benchmark regressed past [`REGRESSION_LIMIT`] or
    /// disappeared from the new report.
    #[must_use]
    pub fn regressed(&self) -> bool {
        !self.only_in_old.is_empty() || self.deltas.iter().any(BenchDelta::regressed)
    }

    /// Human-readable table: per-benchmark old/new times, signed delta
    /// percent, and throughput movement where recorded.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<45} {:>12} {:>12} {:>9}",
            "benchmark", "old", "new", "delta"
        );
        for d in &self.deltas {
            let mark = if d.regressed() { "  !! regression" } else { "" };
            let _ = write!(
                out,
                "{:<45} {:>12} {:>12} {:>+8.1}%{mark}",
                d.name,
                format_ns(d.old.ns_per_iter),
                format_ns(d.new.ns_per_iter),
                d.delta_pct()
            );
            // Prefer the steal-immune CPU throughput when both sides
            // recorded one.
            let pair = match (d.old.events_per_sec_cpu, d.new.events_per_sec_cpu) {
                (Some(o), Some(n)) => Some((o, n, "ev/cpu-s")),
                _ => match (d.old.events_per_sec, d.new.events_per_sec) {
                    (Some(o), Some(n)) => Some((o, n, "ev/s")),
                    _ => None,
                },
            };
            if let Some((o, n, unit)) = pair {
                let _ = write!(out, "   ({o:.0} -> {n:.0} {unit})");
            }
            out.push('\n');
        }
        for name in &self.only_in_old {
            let _ = writeln!(out, "{name:<45} only in old report  !! regression");
        }
        for name in &self.only_in_new {
            let _ = writeln!(out, "{name:<45} only in new report");
        }
        out
    }

    /// Machine-readable form of the diff, same hand-rolled JSON dialect as
    /// the reports themselves.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"regression_limit\": {REGRESSION_LIMIT}, \"regressed\": {},",
            self.regressed()
        );
        out.push_str("  \"benchmarks\": [\n");
        for (i, d) in self.deltas.iter().enumerate() {
            let opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), jnum);
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"old_ns\": {}, \"new_ns\": {}, \"delta_pct\": {}, \
                 \"old_events_per_sec\": {}, \"new_events_per_sec\": {}, \
                 \"old_events_per_sec_cpu\": {}, \"new_events_per_sec_cpu\": {}, \
                 \"regressed\": {}}}",
                d.name,
                jnum(d.old.ns_per_iter),
                jnum(d.new.ns_per_iter),
                jnum(d.delta_pct()),
                opt(d.old.events_per_sec),
                opt(d.new.events_per_sec),
                opt(d.old.events_per_sec_cpu),
                opt(d.new.events_per_sec_cpu),
                d.regressed()
            );
            out.push_str(if i + 1 < self.deltas.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        let names = |v: &[String]| {
            v.iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "  \"only_in_old\": [{}],", names(&self.only_in_old));
        let _ = writeln!(out, "  \"only_in_new\": [{}]", names(&self.only_in_new));
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_marks_modified_trees_dirty() {
        assert_eq!(format_rev("087af9d", false), "087af9d");
        assert_eq!(format_rev("087af9d", true), "087af9d-dirty");
    }

    fn report(names_ns: &[(&str, f64)]) -> BenchReport {
        BenchReport {
            cores: 4,
            rustc: "rustc 1.95.0 (test)".to_string(),
            git_rev: "deadbee".to_string(),
            benchmarks: names_ns
                .iter()
                .map(|&(n, ns)| BenchRecord {
                    name: n.to_string(),
                    ns_per_iter: ns,
                    events_per_sec: if n.starts_with("sim/") { Some(1e6) } else { None },
                    events_per_sec_cpu: if n.starts_with("sim/") { Some(2e6) } else { None },
                })
                .collect(),
        }
    }

    #[test]
    fn json_roundtrips_through_parser() {
        let r = report(&[("lock_table/grant_release", 120.5), ("sim/ls", 3.5e8)]);
        let parsed = parse_report(&r.to_json()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "lock_table/grant_release");
        assert!((parsed[0].ns_per_iter - 120.5).abs() < 1e-9);
        assert_eq!(parsed[0].events_per_sec, None);
        assert_eq!(parsed[1].events_per_sec, Some(1e6));
        assert_eq!(parsed[1].events_per_sec_cpu, Some(2e6));
    }

    #[test]
    fn parser_tolerates_reports_without_cpu_field() {
        // The schema before events_per_sec_cpu existed.
        let old = "{\"name\": \"a\", \"ns_per_iter\": 10.0, \"events_per_sec\": null}\n";
        let parsed = parse_report(old).unwrap();
        assert_eq!(parsed[0].events_per_sec_cpu, None);
        assert_eq!(parsed[0].events_per_sec, None);
    }

    #[test]
    fn comparison_pairs_and_computes_deltas() {
        let old = report(&[("a", 100.0), ("sim/ls", 200.0), ("gone", 5.0)]);
        let new = report(&[("a", 150.0), ("sim/ls", 100.0), ("fresh", 1.0)]);
        let cmp = BenchComparison::from_json(&old.to_json(), &new.to_json()).unwrap();
        assert_eq!(cmp.deltas.len(), 2);
        assert!((cmp.deltas[0].delta_pct() - 50.0).abs() < 1e-6);
        assert!((cmp.deltas[1].delta_pct() + 50.0).abs() < 1e-6);
        assert_eq!(cmp.only_in_old, vec!["gone".to_string()]);
        assert_eq!(cmp.only_in_new, vec!["fresh".to_string()]);
        // A vanished benchmark counts as a regression even though no
        // surviving row crossed the limit.
        assert!(!cmp.deltas.iter().any(BenchDelta::regressed));
        assert!(cmp.regressed());
    }

    #[test]
    fn comparison_flags_limit_crossing_only() {
        let old = report(&[("a", 100.0), ("b", 100.0)]);
        let new = report(&[("a", 199.0), ("b", 201.0)]);
        let cmp = BenchComparison::from_json(&old.to_json(), &new.to_json()).unwrap();
        assert!(!cmp.deltas[0].regressed());
        assert!(cmp.deltas[1].regressed());
        assert!(cmp.regressed());
        let text = cmp.to_text();
        assert!(text.contains("!! regression"), "{text}");
        let json = cmp.to_json();
        assert!(json.contains("\"regressed\": true"), "{json}");
    }

    #[test]
    fn comparison_json_carries_throughputs() {
        let old = report(&[("sim/ls", 200.0)]);
        let new = report(&[("sim/ls", 100.0)]);
        let cmp = BenchComparison::from_json(&old.to_json(), &new.to_json()).unwrap();
        let json = cmp.to_json();
        assert!(json.contains("\"old_events_per_sec\": 1000000.000"), "{json}");
        assert!(json.contains("\"new_events_per_sec_cpu\": 2000000.000"), "{json}");
        assert!(json.contains("\"only_in_old\": []"), "{json}");
    }

    #[test]
    fn comparison_rejects_malformed_reports() {
        let good = report(&[("a", 1.0)]).to_json();
        assert!(BenchComparison::from_json("nope", &good).is_err());
        assert!(BenchComparison::from_json(&good, "{}").is_err());
    }

    #[test]
    fn comparison_accepts_equal_and_rejects_regression() {
        let base = report(&[("a", 100.0), ("b", 50.0)]);
        let same = report(&[("a", 100.0), ("b", 99.0)]);
        assert!(compare_against_baseline(&same, &base.to_json()).is_ok());
        let slow = report(&[("a", 100.0), ("b", 101.0)]);
        let err = compare_against_baseline(&slow, &base.to_json()).unwrap_err();
        assert!(err.contains("`b` regressed"), "{err}");
    }

    #[test]
    fn comparison_flags_missing_benchmark() {
        let cur = report(&[("a", 100.0)]);
        let base = report(&[("a", 100.0), ("c", 10.0)]);
        let err = compare_against_baseline(&cur, &base.to_json()).unwrap_err();
        assert!(err.contains("`c` missing"), "{err}");
    }

    #[test]
    fn malformed_baseline_is_an_error() {
        let cur = report(&[("a", 1.0)]);
        assert!(compare_against_baseline(&cur, "{}").is_err());
        assert!(compare_against_baseline(&cur, "not json at all").is_err());
    }
}
