//! Paper-scale benchmark of the `siteselect` simulators.
//!
//! `run` measures one workload for a given time and returns the result
//! the binary prints: every end-to-end metric (untraced mode) or every
//! per-layer metric plus an attribution table (traced mode), and the
//! output checks that decide which cells failed. See `README.md` in this
//! directory for the workloads, the metrics and their predictions.

pub mod cell;
pub mod host;
pub mod layers;
pub mod profile;
pub mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use siteselect_core::{CentralizedSim, ClientServerSim};
use siteselect_types::{ExperimentConfig, SimTime, SystemKind};
use siteselect_workload::Trace;

use cell::{CellRecord, Judgement, Run};
use profile::{spec, Costs, Profile, Spec, PER_LAYER};
use workload::{label, Shape, Workload};

/// The end-to-end metrics an untraced run prints.
pub const END_TO_END: [Spec; 4] = [
    spec("wall_s", "s", "lower"),
    spec("txns_per_cpu_s", "1/s", "higher"),
    spec("setup_s", "s", "lower"),
    spec("peak_rss_mb", "MB", "lower"),
];

/// Times the set-up is repeated; its median is reported.
pub const SETUP_REPS: usize = 5;

/// What the set-up learned about the cells' inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Inputs {
    /// Host seconds of `Trace::generate` over every cell.
    pub generate_s: f64,
    /// Transactions generated over every cell.
    pub txns: u64,
}

/// Set-up: validates every cell's generated configuration, generates its
/// workload trace and builds its engine, as each run of the cell will.
///
/// # Errors
///
/// Returns the first configuration the engines would reject.
pub fn set_up(cells: &[ExperimentConfig]) -> Result<Inputs, String> {
    let mut inputs = Inputs::default();
    for cfg in cells {
        cfg.validate().map_err(|e| format!("{}: {e}", label(cfg)))?;
        let t0 = host::now();
        let trace = Trace::generate(
            &cfg.workload,
            cfg.cpu.txn_cpu_fraction,
            cfg.database.num_objects,
            cfg.clients,
            cfg.runtime.duration,
            cfg.runtime.seed,
        );
        inputs.generate_s += t0.elapsed().as_secs_f64();
        inputs.txns += trace.len() as u64;
        match cfg.system {
            SystemKind::Centralized => drop(CentralizedSim::new(cfg.clone())),
            _ => drop(ClientServerSim::new(cfg.clone())),
        }
    }
    Ok(inputs)
}

/// One measured execution of a cell: its run and, for a judged workload,
/// the oracles' verdicts on its trace.
fn execute(
    workload: Workload,
    cell: &ExperimentConfig,
) -> Result<(Run, Option<Judgement>), String> {
    let mut run = cell::run(cell, workload.judged())?;
    let judgement = run.trace.take().map(|trace| {
        let warmup_end = SimTime::ZERO + cell.runtime.warmup;
        cell::judge(&trace, &run.metrics, warmup_end)
    });
    Ok((run, judgement))
}

/// Runs every cell once, then keeps repeating cells in order until
/// `seconds` have passed; the first cell always runs a second time, so
/// every run checks that a repetition reproduces its fingerprint. A
/// reference pass runs between repetitions, and each repetition records
/// the host's pace around it.
#[must_use]
pub fn measure(workload: Workload, cells: &[ExperimentConfig], seconds: f64) -> Vec<CellRecord> {
    let start = host::now();
    let mut records: Vec<CellRecord> = cells.iter().map(|c| CellRecord::new(label(c))).collect();
    let mut before = host::reference();
    for round in 0.. {
        for (i, cell) in cells.iter().enumerate() {
            let must = round == 0 || (round == 1 && i == 0);
            if !must && start.elapsed().as_secs_f64() >= seconds {
                return records;
            }
            let outcome = execute(workload, cell);
            let after = host::reference();
            match outcome {
                Ok((run, judgement)) => {
                    records[i].observe(Ok(&run), judgement.as_ref());
                    records[i].pace(host::Pace::around(before, after));
                }
                Err(why) => records[i].observe(Err(why), None),
            }
            before = after;
        }
        if cells.is_empty() {
            break;
        }
    }
    records
}

/// The traced run: every cell once untraced and once traced with full
/// history, the traced metrics checked against the untraced ones, every
/// trace judged by the oracles (violations fail the cell only on the
/// judged workload), then the layer drivers fed the workload's op stream.
#[must_use]
pub fn profile(
    workload: Workload,
    cells: &[ExperimentConfig],
    inputs: Inputs,
) -> (Profile, Costs, Vec<CellRecord>) {
    let mut prof = Profile {
        generate_s: inputs.generate_s,
        txns: inputs.txns,
        ..Profile::default()
    };
    let mut records = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut record = CellRecord::new(label(cell));
        let both = cell::run(cell, false).and_then(|u| cell::run(cell, true).map(|t| (u, t)));
        match both {
            Err(why) => record.observe(Err(why), None),
            Ok((untraced, mut traced)) => {
                let trace = traced.trace.take().expect("a traced run keeps its trace");
                let warmup_end = SimTime::ZERO + cell.runtime.warmup;
                let judgement = cell::judge(&trace, &traced.metrics, warmup_end);
                record.observe(Ok(&untraced), workload.judged().then_some(&judgement));
                if traced.metrics != untraced.metrics {
                    record.fail("tracing changed the run's metrics".into());
                }
                if !workload.judged() {
                    record.findings = judgement
                        .violations()
                        .map(|v| format!("{}: {}", v.oracle, v.detail))
                        .collect();
                }
                prof.add(cell, &untraced, traced.wall_s, &trace, &judgement);
            }
        }
        records.push(record);
    }
    let costs = if prof.cells > 0 {
        Costs::measure(&prof.op_stream())
    } else {
        Costs::default()
    };
    (prof, costs, records)
}

/// The result line: `correct`, `attempted` and `failed` cells, and the
/// metrics with their units, as one JSON object.
#[must_use]
pub fn result_json(records: &[CellRecord], metrics: &[(Spec, f64)]) -> String {
    let failed = records.iter().filter(|r| r.failed()).count();
    let mut out = format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {failed}, "metrics": {{"#,
        failed == 0,
        records.len()
    );
    for (i, (spec, value)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            r#"{sep}"{}": {{"value": {value}, "unit": "{}"}}"#,
            spec.name, spec.unit
        );
    }
    out.push_str("}}");
    out
}

/// Options of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Base seed every cell seed derives from.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Traced mode: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Cell size.
    pub shape: Shape,
}

/// Runs the benchmark; returns the report text, whose last line is the
/// result JSON. `started` is when the process started its work.
///
/// # Errors
///
/// Returns an error when a cell's configuration is rejected at set-up.
pub fn run(opts: &Options, started: Instant) -> Result<String, String> {
    let w = opts.workload;
    let cells = workload::cells(w, opts.shape, opts.seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "paperbench {} seed {}: {} cells ({} x {} seeds), {} clients, {}% updates, {} s simulated ({} s warm-up){}",
        w.name(),
        opts.seed,
        cells.len(),
        w.systems().iter().map(|s| s.to_string()).collect::<Vec<_>>().join("+"),
        opts.shape.seeds,
        opts.shape.clients,
        w.update_fraction() * 100.0,
        opts.shape.duration.as_secs_f64(),
        opts.shape.warmup.as_secs_f64(),
        if w.judged() { ", traced with full history and judged" } else { "" },
    );
    let before_setup = started.elapsed().as_secs_f64();
    let mut before = host::reference();
    let first_pace = before;
    let mut reps = Vec::with_capacity(SETUP_REPS);
    let mut nominal_reps = Vec::with_capacity(SETUP_REPS);
    let mut inputs = Inputs::default();
    for _ in 0..SETUP_REPS {
        let t0 = host::now();
        inputs = set_up(&cells)?;
        let secs = t0.elapsed().as_secs_f64();
        let after = host::reference();
        reps.push(secs);
        nominal_reps.push(host::Pace::around(before, after).nominal_wall(secs));
        before = after;
    }
    let setup_s = first_pace.nominal_wall(before_setup) + host::median(&nominal_reps);
    let _ = writeln!(
        out,
        "set-up: {setup_s:.4} nominal s (median of {SETUP_REPS} repetitions: {nominal_reps:.4?}; \
         host seconds {reps:.4?}), {} transactions generated",
        inputs.txns
    );

    let (records, metrics) = if opts.trace {
        let (prof, costs, records) = profile(w, &cells, inputs);
        out.push_str(&prof.render_attribution(w.name(), &costs));
        let metrics: Vec<(Spec, f64)> = PER_LAYER
            .iter()
            .map(|s| (*s, prof.value(s.name, &costs)))
            .collect();
        (records, metrics)
    } else {
        let records = measure(w, &cells, opts.seconds);
        let wall_s: f64 = records.iter().map(CellRecord::nominal_wall_s).sum();
        let cpu_s: f64 = records.iter().map(CellRecord::nominal_cpu_s).sum();
        let measured: u64 = records
            .iter()
            .filter_map(|r| r.fingerprint)
            .map(|f| f.measured)
            .sum();
        let paces: Vec<f64> = records
            .iter()
            .flat_map(|r| r.paces.iter().map(|p| p.wall_s))
            .collect();
        let _ = writeln!(
            out,
            "host: {:.4} wall s and {:.4} CPU s (sums of per-cell medians); reference pass median \
             {:.2} ms over {} repetitions, nominal {:.2} ms",
            records.iter().map(CellRecord::wall_s).sum::<f64>(),
            records.iter().map(CellRecord::cpu_s).sum::<f64>(),
            host::median(&paces) * 1e3,
            paces.len(),
            host::REFERENCE_NOMINAL_S * 1e3,
        );
        let values = [
            wall_s,
            measured as f64 / cpu_s,
            setup_s,
            host::peak_rss_mb(),
        ];
        (records, END_TO_END.iter().copied().zip(values).collect())
    };
    let _ = writeln!(
        out,
        "{:<26} {:>5} {:>9} {:>9}  fingerprint",
        "cell", "runs", "wall_s", "cpu_s"
    );
    for r in &records {
        let fp = r.fingerprint.map_or_else(|| "-".into(), |f| f.to_string());
        let _ = writeln!(
            out,
            "{:<26} {:>5} {:>9.4} {:>9.4}  {fp}",
            r.label,
            r.walls.len(),
            r.wall_s(),
            r.cpu_s()
        );
        for why in &r.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        for what in &r.findings {
            let _ = writeln!(
                out,
                "  oracle finding (counted in check.violations, not a failed cell here): {what}"
            );
        }
    }
    let failed = records.iter().filter(|r| r.failed()).count();
    let _ = writeln!(
        out,
        "checks: {} of {} cells passed (outcomes consistent, fingerprints repeat{}{})",
        records.len() - failed,
        records.len(),
        if opts.trace {
            ", traced metrics equal untraced"
        } else {
            ""
        },
        if w.judged() {
            ", all four oracles clean"
        } else {
            ""
        },
    );
    for (spec, value) in &metrics {
        let _ = writeln!(out, "  {:<30} {value:>16.6} {}", spec.name, spec.unit);
    }
    if !opts.trace {
        let _ = writeln!(
            out,
            "  (wall_s, txns_per_cpu_s and setup_s are in seconds of the nominal host: each \
             repetition is scaled by the reference passes around it; wall_s is the total of the \
             per-cell medians over {} cells; cells differ by engine and seed, so no percentile of \
             them is reported: see the spread across runs instead)",
            records.len()
        );
    }
    out.push_str(&result_json(&records, &metrics));
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests;
