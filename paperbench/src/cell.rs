//! Running one cell through the public API, untraced or traced with full
//! history, judging a traced cell with the four oracles, and keeping the
//! record that decides whether the cell failed.

use siteselect_check::{coherence, deadline, recovery, serializability, Violation};
use siteselect_core::{run_experiment, run_experiment_traced, CentralizedSim, RunMetrics};
use siteselect_obs::{BlameReport, EventSink, MetricsRegistry, TraceData};
use siteselect_types::{ExperimentConfig, SimTime, SystemKind};

use crate::host;

/// Sink capacity that never drops a record: the oracles only judge
/// complete histories.
pub const FULL_HISTORY: usize = usize::MAX;

/// The simulated outcome of a cell, compared exactly between repetitions
/// of the cell and between its traced and untraced runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Transactions committed by their deadline.
    pub in_time: u64,
    /// Transactions that arrived inside the measurement window.
    pub measured: u64,
    /// Protocol messages counted by the fabric.
    pub messages: u64,
    /// Client cache hits (memory and disk tier).
    pub cache_hits: u64,
    /// Client cache misses.
    pub cache_misses: u64,
}

impl Fingerprint {
    /// The fingerprint of a run's metrics.
    #[must_use]
    pub fn of(m: &RunMetrics) -> Fingerprint {
        Fingerprint {
            in_time: m.in_time,
            measured: m.measured,
            messages: m.messages.total_messages(),
            cache_hits: m.cache.memory_hits + m.cache.disk_hits,
            cache_misses: m.cache.misses,
        }
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "in_time {}/{} messages {} cache {}h/{}m",
            self.in_time, self.measured, self.messages, self.cache_hits, self.cache_misses
        )
    }
}

/// One execution of a cell.
#[derive(Debug)]
pub struct Run {
    /// Host wall seconds of the engine run.
    pub wall_s: f64,
    /// Host CPU seconds of the engine run.
    pub cpu_s: f64,
    /// Event-queue pops, counted through `CentralizedSim::step`; zero for
    /// CS and LS, whose queue is not visible from outside the engine.
    pub events: u64,
    /// The run's metrics.
    pub metrics: RunMetrics,
    /// The full-history trace, for a traced run.
    pub trace: Option<TraceData>,
}

fn centralized(cfg: &ExperimentConfig, sink: Option<&EventSink>) -> (RunMetrics, u64) {
    let mut sim = CentralizedSim::new(cfg.clone());
    if let Some(sink) = sink {
        sim.attach_sink(sink.clone());
    }
    sim.prepare();
    let mut events = 0;
    while sim.step() {
        events += 1;
    }
    (sim.finalize(), events)
}

/// Runs `cfg` to completion, traced with full history when `traced`.
///
/// # Errors
///
/// Returns why the cell failed: the engine rejected the configuration, or
/// the run's outcomes do not cover every measured transaction.
pub fn run(cfg: &ExperimentConfig, traced: bool) -> Result<Run, String> {
    cfg.validate().map_err(|e| format!("engine error: {e}"))?;
    let cpu0 = host::thread_cpu_s();
    let t0 = host::now();
    let (metrics, events, trace) = match (cfg.system, traced) {
        (SystemKind::Centralized, false) => {
            let (m, events) = centralized(cfg, None);
            (m, events, None)
        }
        (SystemKind::Centralized, true) => {
            let sink = EventSink::enabled(FULL_HISTORY);
            let (m, events) = centralized(cfg, Some(&sink));
            (m, events, sink.finish())
        }
        (_, false) => (
            run_experiment(cfg).map_err(|e| format!("engine error: {e}"))?,
            0,
            None,
        ),
        (_, true) => {
            let (m, trace) = run_experiment_traced(cfg, FULL_HISTORY)
                .map_err(|e| format!("engine error: {e}"))?;
            (m, 0, Some(trace))
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::thread_cpu_s() - cpu0;
    if !metrics.is_consistent() {
        return Err(format!(
            "inconsistent outcomes: {} in time + {} failed != {} measured",
            metrics.in_time,
            metrics.failures.total(),
            metrics.measured
        ));
    }
    Ok(Run {
        wall_s,
        cpu_s,
        events,
        metrics,
        trace,
    })
}

/// One oracle's verdict on a trace, with its host time.
#[derive(Debug)]
pub struct Verdict {
    /// `serializability`, `coherence`, `deadline`, `recovery` or
    /// `harness` (a truncated trace).
    pub oracle: &'static str,
    /// Host seconds the oracle took.
    pub secs: f64,
    /// What it found, if anything.
    pub violation: Option<Violation>,
}

/// Every oracle's verdict on one trace plus its blame report.
#[derive(Debug)]
pub struct Judgement {
    /// Verdicts in oracle order.
    pub verdicts: Vec<Verdict>,
    /// Critical-path blame of every transaction.
    pub blame: BlameReport,
    /// Host seconds of blame extraction.
    pub blame_s: f64,
    /// Host wall seconds of the oracles and blame together.
    pub wall_s: f64,
    /// Host CPU seconds of the oracles and blame together.
    pub cpu_s: f64,
}

impl Judgement {
    /// The violations found, in oracle order.
    pub fn violations(&self) -> impl Iterator<Item = &Violation> {
        self.verdicts.iter().filter_map(|v| v.violation.as_ref())
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = host::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs all four oracles over `trace` (each one, not stopping at the
/// first violation) and extracts its blame report.
#[must_use]
pub fn judge(trace: &TraceData, metrics: &RunMetrics, warmup_end: SimTime) -> Judgement {
    let cpu0 = host::thread_cpu_s();
    let t0 = host::now();
    let mut verdicts = Vec::with_capacity(5);
    if trace.report.dropped > 0 {
        verdicts.push(Verdict {
            oracle: "harness",
            secs: 0.0,
            violation: Some(Violation {
                oracle: "harness",
                at: concat!(file!(), ":", line!()),
                detail: format!("trace dropped {} records", trace.report.dropped),
                replay: None,
            }),
        });
    }
    let (r, secs) = timed(|| serializability::check(trace));
    verdicts.push(Verdict {
        oracle: "serializability",
        secs,
        violation: r.err(),
    });
    let (r, secs) = timed(|| coherence::check(trace));
    verdicts.push(Verdict {
        oracle: "coherence",
        secs,
        violation: r.err(),
    });
    let (r, secs) = timed(|| deadline::check(trace, metrics, warmup_end));
    verdicts.push(Verdict {
        oracle: "deadline",
        secs,
        violation: r.err(),
    });
    let (r, secs) = timed(|| recovery::check(trace));
    verdicts.push(Verdict {
        oracle: "recovery",
        secs,
        violation: r.err(),
    });
    let (blame, blame_s) = timed(|| BlameReport::extract(trace, 3, &MetricsRegistry::disabled()));
    Judgement {
        verdicts,
        blame,
        blame_s,
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::thread_cpu_s() - cpu0,
    }
}

/// Everything a run learned about one cell across its repetitions.
#[derive(Debug)]
pub struct CellRecord {
    /// Engine and seed.
    pub label: String,
    /// Host wall seconds of each repetition (the judged workload's include
    /// its oracles and blame).
    pub walls: Vec<f64>,
    /// Host CPU seconds of each repetition.
    pub cpus: Vec<f64>,
    /// The host's pace around each repetition, where it was timed.
    pub paces: Vec<host::Pace>,
    /// The first repetition's fingerprint.
    pub fingerprint: Option<Fingerprint>,
    /// Why the cell failed; empty when it did not.
    pub failures: Vec<String>,
    /// Oracle violations found on a workload where they do not fail the
    /// cell (the traced run of an unjudged workload).
    pub findings: Vec<String>,
}

impl CellRecord {
    /// An empty record for the cell labelled `label`.
    #[must_use]
    pub fn new(label: String) -> CellRecord {
        CellRecord {
            label,
            walls: Vec::new(),
            cpus: Vec::new(),
            paces: Vec::new(),
            fingerprint: None,
            failures: Vec::new(),
            findings: Vec::new(),
        }
    }

    /// Folds in one repetition: its run (or the reason it failed) and, for
    /// a judged cell, the oracles' verdicts. A fingerprint that differs
    /// from the first repetition's is a determinism failure; each oracle
    /// violation is a failure, recorded once.
    pub fn observe(&mut self, outcome: Result<&Run, String>, judgement: Option<&Judgement>) {
        let run = match outcome {
            Ok(run) => run,
            Err(why) => {
                self.fail(why);
                return;
            }
        };
        self.walls
            .push(run.wall_s + judgement.map_or(0.0, |j| j.wall_s));
        self.cpus
            .push(run.cpu_s + judgement.map_or(0.0, |j| j.cpu_s));
        let fp = Fingerprint::of(&run.metrics);
        match self.fingerprint {
            None => self.fingerprint = Some(fp),
            Some(first) if first != fp => {
                self.fail(format!(
                    "determinism: repetition gave {fp}, first run gave {first}"
                ));
            }
            Some(_) => {}
        }
        for v in judgement.into_iter().flat_map(Judgement::violations) {
            self.fail(format!("{}: {}", v.oracle, v.detail));
        }
    }

    /// Records the host's pace around the repetition just observed.
    pub fn pace(&mut self, pace: host::Pace) {
        self.paces.push(pace);
    }

    /// Records a failure once.
    pub fn fail(&mut self, why: String) {
        if !self.failures.contains(&why) {
            self.failures.push(why);
        }
    }

    /// Whether any check failed on any repetition.
    #[must_use]
    pub fn failed(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Median host wall seconds across repetitions.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        host::median(&self.walls)
    }

    /// Median host CPU seconds across repetitions.
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        host::median(&self.cpus)
    }

    /// Median across paced repetitions of the wall seconds, each scaled to
    /// the nominal host by the pace around it.
    #[must_use]
    pub fn nominal_wall_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .walls
            .iter()
            .zip(&self.paces)
            .map(|(&w, p)| p.nominal_wall(w))
            .collect();
        host::median(&scaled)
    }

    /// Median across paced repetitions of the CPU seconds, each scaled to
    /// the nominal host by the pace around it.
    #[must_use]
    pub fn nominal_cpu_s(&self) -> f64 {
        let scaled: Vec<f64> = self
            .cpus
            .iter()
            .zip(&self.paces)
            .map(|(&c, p)| p.nominal_cpu(c))
            .collect();
        host::median(&scaled)
    }
}
