//! Per-layer metrics from a workload's traced run, and the attribution of
//! its untraced wall time to layers: counts times ns per operation, with
//! the unexplained remainder stated as `core.self_s`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use siteselect_obs::{fold_root, Event, SpanKind, TraceData, TraceRecord};
use siteselect_types::{AbortReason, ExperimentConfig, ObjectId};

use crate::cell::{Judgement, Run};
use crate::layers::{self, OpStream};

/// A metric's name, unit and the direction that is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Name printed in the result line.
    pub name: &'static str,
    /// Unit printed next to the value.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

/// A [`Spec`] in one line.
#[must_use]
pub const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// The per-layer metrics a traced run prints, by layer (crate name).
pub const PER_LAYER: [Spec; 49] = [
    spec("sim.queue.ns_per_op", "ns", "lower"),
    spec("sim.events", "count", "lower"),
    spec("workload.generate_s", "s", "lower"),
    spec("workload.txns", "count", "higher"),
    spec("locks.table.ns_per_op", "ns", "lower"),
    spec("locks.wfg.ns_per_check", "ns", "lower"),
    spec("locks.window.ns_per_offer", "ns", "lower"),
    spec("locks.callback.ns_per_recall", "ns", "lower"),
    spec("locks.lock_waits", "count", "lower"),
    spec("locks.locks_held", "count", "lower"),
    spec("locks.callbacks", "count", "lower"),
    spec("locks.windows", "count", "lower"),
    spec("locks.forward_hops", "count", "lower"),
    spec("locks.forward_per_window", "count", "higher"),
    spec("locks.deadlock_aborts", "count", "lower"),
    spec("locks.blocked_s", "s", "lower"),
    spec("storage.cache.ns_per_probe", "ns", "lower"),
    spec("storage.cache.hit_pct", "%", "higher"),
    spec("storage.buffer.hit_pct", "%", "higher"),
    spec("storage.wal.ns_per_append", "ns", "lower"),
    spec("storage.wal_records", "count", "lower"),
    spec("net.fabric.ns_per_send", "ns", "lower"),
    spec("net.messages", "count", "lower"),
    spec("net.bytes", "bytes", "lower"),
    spec("net.msgs_per_txn", "count", "lower"),
    spec("core.in_time_pct", "%", "higher"),
    spec("core.shipped", "count", "higher"),
    spec("core.decomposed", "count", "higher"),
    spec("core.h1_rejections", "count", "lower"),
    spec("core.client_cpu_util", "%", "lower"),
    spec("core.server_cpu_util", "%", "lower"),
    spec("core.self_s", "s", "lower"),
    spec("obs.records", "count", "lower"),
    spec("obs.records_per_txn", "count", "lower"),
    spec("obs.emit_ns_on", "ns", "lower"),
    spec("obs.emit_ns_off", "ns", "lower"),
    spec("obs.trace_overhead_pct", "%", "lower"),
    spec("obs.trace_mb", "MB", "lower"),
    spec("check.serializability_s", "s", "lower"),
    spec("check.coherence_s", "s", "lower"),
    spec("check.deadline_s", "s", "lower"),
    spec("check.recovery_s", "s", "lower"),
    spec("check.violations", "count", "lower"),
    spec("blame.extract_s", "s", "lower"),
    spec("blame.lock_wait_s", "s", "lower"),
    spec("blame.window_s", "s", "lower"),
    spec("blame.net_s", "s", "lower"),
    spec("blame.disk_s", "s", "lower"),
    spec("blame.exec_s", "s", "lower"),
];

/// Blame causes reported per workload, with their metric names.
const BLAME_CAUSES: [(SpanKind, &str); 5] = [
    (SpanKind::LockWait, "blame.lock_wait_s"),
    (SpanKind::Window, "blame.window_s"),
    (SpanKind::Net, "blame.net_s"),
    (SpanKind::Disk, "blame.disk_s"),
    (SpanKind::Exec, "blame.exec_s"),
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Lock-layer operations a trace shows, counted the way the engines do
/// them.
///
/// A request that blocks emits `LockWait` and, if it is granted later,
/// `LockHeld` for the same unit and object; a request granted at once
/// emits only `LockHeld`. So requests are the `LockHeld`s that close no
/// wait plus every `LockWait`. Each request is preceded by one
/// `would_deadlock` check, and so is each deadlock the check finds, which
/// aborts instead of requesting. Only the lock tables the engines trace
/// are counted: CE's server table and the CS/LS client tables, not the
/// CS/LS server table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LockOps {
    /// Lock requests (granted at once, or blocked).
    pub requests: u64,
    /// Blocked requests granted later.
    pub granted_after_wait: u64,
    /// Deadlock-avoidance checks.
    pub deadlock_checks: u64,
    /// Holders messaged over all callback recalls.
    pub recall_holders: u64,
}

impl LockOps {
    /// Counts the lock operations in `records`.
    #[must_use]
    pub fn of(records: &[TraceRecord]) -> LockOps {
        let mut ops = LockOps::default();
        // Blocked requests not yet granted, by root transaction and object
        // (a subtask waits under its root id and holds under its own).
        let mut waiting: BTreeMap<(u64, ObjectId), u32> = BTreeMap::new();
        let mut deadlocks = 0;
        for r in records {
            match r.event {
                Event::LockWait { txn, object } => {
                    ops.requests += 1;
                    *waiting
                        .entry((fold_root(txn).as_u64(), object))
                        .or_default() += 1;
                }
                Event::LockHeld { txn, object, .. } => {
                    let key = (fold_root(txn).as_u64(), object);
                    match waiting.get_mut(&key) {
                        Some(n) => {
                            ops.granted_after_wait += 1;
                            *n -= 1;
                            if *n == 0 {
                                waiting.remove(&key);
                            }
                        }
                        None => ops.requests += 1,
                    }
                }
                Event::Abort {
                    reason: AbortReason::Deadlock,
                    ..
                } => deadlocks += 1,
                Event::CallbackIssued { holders, .. } => {
                    ops.recall_holders += u64::from(holders);
                }
                _ => {}
            }
        }
        ops.deadlock_checks = ops.requests + deadlocks;
        ops
    }

    fn add(&mut self, o: LockOps) {
        self.requests += o.requests;
        self.granted_after_wait += o.granted_after_wait;
        self.deadlock_checks += o.deadlock_checks;
        self.recall_holders += o.recall_holders;
    }
}

/// Counts a workload's traced run reports, summed over its cells.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// A representative cell configuration (the first cell's).
    pub cfg: Option<ExperimentConfig>,
    /// Cells profiled.
    pub cells: u64,
    /// Host wall seconds of the untraced runs.
    pub untraced_wall_s: f64,
    /// Host wall seconds of the traced runs (engine only, no oracles).
    pub traced_wall_s: f64,
    /// Host seconds of `Trace::generate` over the cells.
    pub generate_s: f64,
    /// Transactions generated over the whole run of every cell.
    pub txns: u64,
    /// CE event-queue pops.
    pub events: u64,
    /// Trace records by event kind, summed.
    pub kinds: BTreeMap<&'static str, u64>,
    /// Lock-layer operations over the whole run.
    pub locks: LockOps,
    /// Transactions measured. This and the counters below up to
    /// `cpu_util` come from `RunMetrics` and cover the measurement window.
    pub measured: u64,
    /// Transactions committed by their deadline.
    pub in_time: u64,
    /// Deadlock aborts.
    pub deadlock_aborts: u64,
    /// Simulated seconds transactions spent blocked.
    pub blocked_s: f64,
    /// Client cache hits and accesses.
    pub cache: (u64, u64),
    /// Server buffer hits and accesses.
    pub buffer: (u64, u64),
    /// Protocol messages.
    pub messages: u64,
    /// Bytes on the wire.
    pub bytes: u64,
    /// Messages by kind in `MessageKind::ALL` order.
    pub message_mix: Vec<u64>,
    /// Transactions shipped to another site.
    pub shipped: u64,
    /// Transactions run as parallel subtasks.
    pub decomposed: u64,
    /// Requests H1 declared locally infeasible.
    pub h1_rejections: u64,
    /// Sums of per-cell client and server CPU utilisation.
    pub cpu_util: (f64, f64),
    /// Trace records emitted.
    pub records: u64,
    /// Largest single-cell trace held in memory, MB.
    pub trace_mb: f64,
    /// Host seconds per oracle, in `ORACLES` order.
    pub check_s: [f64; 4],
    /// Oracle violations found.
    pub violations: u64,
    /// Host seconds of blame extraction.
    pub blame_s: f64,
    /// Simulated critical-path seconds per blame cause.
    pub blame_cause_s: [f64; 5],
    /// Measurement-window share of the run, to scale window-only counters
    /// to the whole run for attribution.
    pub window_share: f64,
}

/// Oracle names in `Profile::check_s` order.
pub const ORACLES: [&str; 4] = ["serializability", "coherence", "deadline", "recovery"];

impl Profile {
    /// Adds one cell: its untraced run, the host wall seconds and trace of
    /// its traced run, and the oracles' judgement of that trace.
    pub fn add(
        &mut self,
        cfg: &ExperimentConfig,
        untraced: &Run,
        traced_wall_s: f64,
        trace: &TraceData,
        judgement: &Judgement,
    ) {
        if self.cfg.is_none() {
            self.cfg = Some(cfg.clone());
            let d = cfg.runtime.duration.as_secs_f64();
            self.window_share = ratio(d - cfg.runtime.warmup.as_secs_f64(), d);
        }
        let m = &untraced.metrics;
        self.cells += 1;
        self.untraced_wall_s += untraced.wall_s;
        self.traced_wall_s += traced_wall_s;
        self.events += untraced.events;
        for (&k, &n) in &trace.report.kinds {
            *self.kinds.entry(k).or_default() += n;
        }
        self.locks.add(LockOps::of(&trace.records));
        self.measured += m.measured;
        self.in_time += m.in_time;
        self.deadlock_aborts += m.failures.deadlock;
        self.blocked_s += m.blocking.mean() * m.blocking.count() as f64;
        self.cache.0 += m.cache.memory_hits + m.cache.disk_hits;
        self.cache.1 += m.cache.memory_hits + m.cache.disk_hits + m.cache.misses;
        self.buffer.0 += m.server_buffer.hits();
        self.buffer.1 += m.server_buffer.total();
        self.messages += m.messages.total_messages();
        self.bytes += m.messages.total_bytes();
        let kinds = siteselect_net::MessageKind::ALL;
        self.message_mix.resize(kinds.len(), 0);
        for (slot, &k) in self.message_mix.iter_mut().zip(&kinds) {
            *slot += m.messages.count(k);
        }
        self.shipped += m.load_sharing.shipped;
        self.decomposed += m.load_sharing.decomposed;
        self.h1_rejections += m.load_sharing.h1_rejections;
        self.cpu_util.0 += m.client_cpu_utilization;
        self.cpu_util.1 += m.server_cpu_utilization;
        self.records += trace.report.events;
        let mb = (trace.records.len() * std::mem::size_of::<TraceRecord>()) as f64 / 1e6;
        self.trace_mb = self.trace_mb.max(mb);
        for v in &judgement.verdicts {
            if let Some(i) = ORACLES.iter().position(|&o| o == v.oracle) {
                self.check_s[i] += v.secs;
            }
            self.violations += u64::from(v.violation.is_some());
        }
        self.blame_s += judgement.blame_s;
        for (slot, (kind, _)) in self.blame_cause_s.iter_mut().zip(BLAME_CAUSES) {
            *slot += judgement.blame.causes[kind.index()].total_us as f64 / 1e6;
        }
    }

    fn kind(&self, k: &str) -> u64 {
        self.kinds.get(k).copied().unwrap_or(0)
    }

    /// Scales a measurement-window counter to the whole run.
    fn whole_run(&self, n: u64) -> f64 {
        ratio(n as f64, self.window_share)
    }

    /// What the layer drivers are fed for this workload.
    ///
    /// # Panics
    ///
    /// Panics if no cell was added.
    #[must_use]
    pub fn op_stream(&self) -> OpStream {
        let cfg = self.cfg.clone().expect("a profile holds at least one cell");
        let (waits, requests) = (self.kind("lock_wait"), self.locks.requests);
        let (cache_slots, hit) = if self.cache.1 > 0 {
            (
                (
                    cfg.client.memory_cache_objects,
                    cfg.client.disk_cache_objects,
                ),
                ratio(self.cache.0 as f64, self.cache.1 as f64),
            )
        } else {
            (
                (cfg.server.buffer_objects, 0),
                ratio(self.buffer.0 as f64, self.buffer.1 as f64),
            )
        };
        OpStream {
            queue_depth: (self.txns / self.cells.max(1)) as usize,
            conflict: ratio(waits as f64, requests as f64),
            locks_per_txn: ratio(requests as f64, self.txns as f64),
            window_batch: ratio(
                self.kind("forward_hop") as f64,
                self.kind("window_open") as f64,
            ),
            recall_fanout: ratio(
                self.locks.recall_holders as f64,
                self.kind("callback_issued") as f64,
            ),
            cache_slots,
            hit,
            writes_per_commit: ratio(
                self.kind("wal_write") as f64,
                self.kind("wal_commit") as f64,
            ),
            message_mix: self.message_mix.clone(),
            cfg,
        }
    }
}

/// ns per operation of every driven layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct Costs {
    /// `EventQueue` hold (pop + push).
    pub queue: f64,
    /// `LockTable` request + release/cancel.
    pub table: f64,
    /// `WaitForGraph::would_deadlock`.
    pub wfg: f64,
    /// `WindowManager::offer`.
    pub window: f64,
    /// `CallbackTracker` recall.
    pub callback: f64,
    /// `ClientCache` probe.
    pub cache: f64,
    /// `Wal::append`.
    pub wal: f64,
    /// `Fabric::send`.
    pub fabric: f64,
    /// `EventSink::emit`, enabled.
    pub emit_on: f64,
    /// `EventSink::emit`, disabled.
    pub emit_off: f64,
}

impl Costs {
    /// Times every layer driver on `ops`.
    #[must_use]
    pub fn measure(ops: &OpStream) -> Costs {
        Costs {
            queue: layers::queue_ns(ops),
            table: layers::lock_table_ns(ops),
            wfg: layers::wfg_ns(ops),
            window: layers::window_ns(ops),
            callback: layers::callback_ns(ops),
            cache: layers::cache_ns(ops),
            wal: layers::wal_ns(ops),
            fabric: layers::fabric_ns(ops),
            emit_on: layers::emit_ns(true),
            emit_off: layers::emit_ns(false),
        }
    }
}

/// One row of an attribution table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer (crate name).
    pub layer: &'static str,
    /// The operation counted.
    pub op: &'static str,
    /// How many times the untraced run did it (whole run).
    pub count: f64,
    /// ns per operation from the layer driver; zero for a row measured
    /// directly.
    pub ns: f64,
    /// Attributed host seconds.
    pub secs: f64,
}

impl Profile {
    /// Counts x ns/op per layer for the untraced run. Rows measured
    /// directly (trace generation) carry their own seconds.
    #[must_use]
    pub fn attribution(&self, c: &Costs) -> Vec<Row> {
        let row = |layer, op, count: f64, ns: f64| Row {
            layer,
            op,
            count,
            ns,
            secs: count * ns * 1e-9,
        };
        vec![
            row(
                "sim",
                "queue pop+push (CE only)",
                self.events as f64,
                c.queue,
            ),
            Row {
                layer: "workload",
                op: "Trace::generate per cell",
                count: self.cells as f64,
                ns: 0.0,
                secs: self.generate_s,
            },
            row(
                "locks",
                "lock request+release",
                self.locks.requests as f64,
                c.table,
            ),
            row(
                "locks",
                "wait-for deadlock check",
                self.locks.deadlock_checks as f64,
                c.wfg,
            ),
            row(
                "locks",
                "window offer",
                (self.kind("window_open") + self.kind("forward_hop")) as f64,
                c.window,
            ),
            row(
                "locks",
                "callback recall",
                self.kind("callback_issued") as f64,
                c.callback,
            ),
            row(
                "storage",
                "cache/buffer probe",
                self.whole_run(self.cache.1 + self.buffer.1),
                c.cache,
            ),
            row(
                "storage",
                "WAL append",
                (self.kind("wal_write") + self.kind("wal_commit") + self.kind("wal_abort")) as f64,
                c.wal,
            ),
            row(
                "net",
                "fabric send",
                self.whole_run(self.messages),
                c.fabric,
            ),
            row(
                "obs",
                "emit, sink disabled",
                self.records as f64,
                c.emit_off,
            ),
        ]
    }

    /// Untraced wall seconds no layer row explains.
    #[must_use]
    pub fn self_s(&self, c: &Costs) -> f64 {
        self.untraced_wall_s - self.attribution(c).iter().map(|r| r.secs).sum::<f64>()
    }

    /// The workload's attribution table as text, remainder included, plus
    /// the traced run's extra costs.
    #[must_use]
    pub fn render_attribution(&self, workload: &str, c: &Costs) -> String {
        let wall = self.untraced_wall_s;
        let share = |s: f64| 100.0 * ratio(s, wall);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "attribution of {workload}: untraced wall {wall:.3} s over {} cells \
             (window-only counters scaled by {:.3} to the whole run)",
            self.cells,
            ratio(1.0, self.window_share)
        );
        let _ = writeln!(
            out,
            "  {:<9} {:<28} {:>14} {:>10} {:>10} {:>7}",
            "layer", "op", "count", "ns/op", "s", "share"
        );
        for r in self.attribution(c) {
            let ns = if r.ns > 0.0 {
                format!("{:.1}", r.ns)
            } else {
                "measured".into()
            };
            let _ = writeln!(
                out,
                "  {:<9} {:<28} {:>14.0} {:>10} {:>10.4} {:>6.1}%",
                r.layer,
                r.op,
                r.count,
                ns,
                r.secs,
                share(r.secs)
            );
        }
        let rest = self.self_s(c);
        let _ = writeln!(
            out,
            "  {:<9} {:<28} {:>14} {:>10} {:>10.4} {:>6.1}%   <- core.self_s: engine logic, EDF CPU, \
             buffer, CS/LS queue and everything not driven above",
            "core", "unattributed remainder", "", "", rest, share(rest)
        );
        let emit_on = self.records as f64 * c.emit_on * 1e-9;
        let _ = writeln!(
            out,
            "  traced run: wall {:.3} s (+{:.3} s), of which emit on {:.4} s ({} records x {:.1} ns); \
             oracles {:.3} s, blame {:.3} s",
            self.traced_wall_s,
            self.traced_wall_s - wall,
            emit_on,
            self.records,
            c.emit_on,
            self.check_s.iter().sum::<f64>(),
            self.blame_s
        );
        out
    }

    /// The value of per-layer metric `name`.
    ///
    /// # Panics
    ///
    /// Panics on a name not in [`PER_LAYER`].
    #[must_use]
    pub fn value(&self, name: &str, c: &Costs) -> f64 {
        let cells = self.cells.max(1) as f64;
        match name {
            "sim.queue.ns_per_op" => c.queue,
            "sim.events" => self.events as f64,
            "workload.generate_s" => self.generate_s,
            "workload.txns" => self.txns as f64,
            "locks.table.ns_per_op" => c.table,
            "locks.wfg.ns_per_check" => c.wfg,
            "locks.window.ns_per_offer" => c.window,
            "locks.callback.ns_per_recall" => c.callback,
            "locks.lock_waits" => self.kind("lock_wait") as f64,
            "locks.locks_held" => self.kind("lock_held") as f64,
            "locks.callbacks" => self.kind("callback_issued") as f64,
            "locks.windows" => self.kind("window_open") as f64,
            "locks.forward_hops" => self.kind("forward_hop") as f64,
            "locks.forward_per_window" => ratio(
                self.kind("forward_hop") as f64,
                self.kind("window_open") as f64,
            ),
            "locks.deadlock_aborts" => self.deadlock_aborts as f64,
            "locks.blocked_s" => self.blocked_s,
            "storage.cache.ns_per_probe" => c.cache,
            "storage.cache.hit_pct" => 100.0 * ratio(self.cache.0 as f64, self.cache.1 as f64),
            "storage.buffer.hit_pct" => 100.0 * ratio(self.buffer.0 as f64, self.buffer.1 as f64),
            "storage.wal.ns_per_append" => c.wal,
            "storage.wal_records" => {
                (self.kind("wal_write") + self.kind("wal_commit") + self.kind("wal_abort")) as f64
            }
            "net.fabric.ns_per_send" => c.fabric,
            "net.messages" => self.messages as f64,
            "net.bytes" => self.bytes as f64,
            "net.msgs_per_txn" => ratio(self.messages as f64, self.measured as f64),
            "core.in_time_pct" => 100.0 * ratio(self.in_time as f64, self.measured as f64),
            "core.shipped" => self.shipped as f64,
            "core.decomposed" => self.decomposed as f64,
            "core.h1_rejections" => self.h1_rejections as f64,
            "core.client_cpu_util" => 100.0 * self.cpu_util.0 / cells,
            "core.server_cpu_util" => 100.0 * self.cpu_util.1 / cells,
            "core.self_s" => self.self_s(c),
            "obs.records" => self.records as f64,
            "obs.records_per_txn" => ratio(self.records as f64, self.txns as f64),
            "obs.emit_ns_on" => c.emit_on,
            "obs.emit_ns_off" => c.emit_off,
            "obs.trace_overhead_pct" => {
                100.0
                    * ratio(
                        self.traced_wall_s - self.untraced_wall_s,
                        self.untraced_wall_s,
                    )
            }
            "obs.trace_mb" => self.trace_mb,
            "check.serializability_s" => self.check_s[0],
            "check.coherence_s" => self.check_s[1],
            "check.deadline_s" => self.check_s[2],
            "check.recovery_s" => self.check_s[3],
            "check.violations" => self.violations as f64,
            "blame.extract_s" => self.blame_s,
            _ => BLAME_CAUSES
                .iter()
                .position(|&(_, n)| n == name)
                .map(|i| self.blame_cause_s[i])
                .unwrap_or_else(|| panic!("unknown per-layer metric {name}")),
        }
    }
}
