//! The benchmark's own tests: a tiny-config smoke run of every workload in
//! both modes, every printed name checked against `BENCHMARK.json`, a
//! known-bad history counted as a failed cell, and the lock-operation
//! counts checked against a small traced CE cell.

use std::collections::BTreeSet;

use siteselect_check::synthetic::{bad_history, InjectKind};
use siteselect_lint::json::{self, Value as Json};
use siteselect_obs::Event;
use siteselect_types::{AbortReason, SimDuration};

use crate::cell::{self, CellRecord, Run};
use crate::profile::{LockOps, Spec, PER_LAYER};
use crate::workload::{Shape, Workload};
use crate::{run, Options, END_TO_END};

/// Field `key` of a JSON object.
fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key).unwrap_or_else(|| panic!("missing key {key}"))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    match field(v, key) {
        Json::Str(s) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

fn items<'a>(v: &'a Json, key: &str) -> &'a [Json] {
    match field(v, key) {
        Json::Arr(a) => a,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn parse(src: &str) -> Json {
    json::parse(src).unwrap_or_else(|e| panic!("bad JSON ({e}): {src}"))
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn tiny(workload: Workload, trace: bool) -> Json {
    let opts = Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        shape: Shape::tiny(),
    };
    let report = run(&opts, crate::host::now()).expect("tiny cells are valid");
    parse(report.lines().last().expect("a result line"))
}

fn names(result: &Json) -> Vec<(String, String)> {
    field(result, "metrics")
        .as_obj()
        .expect("metrics is an object")
        .iter()
        .map(|(k, v)| (k.clone(), text(v, "unit").to_string()))
        .collect()
}

fn spec_names(specs: &[Spec]) -> Vec<(String, String)> {
    let mut v: Vec<_> = specs
        .iter()
        .map(|s| (s.name.to_string(), s.unit.to_string()))
        .collect();
    v.sort();
    v
}

#[test]
fn every_workload_runs_tiny_in_both_modes() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let result = tiny(w, trace);
            let cells = (Shape::tiny().seeds * w.systems().len()) as f64;
            assert_eq!(
                field(&result, "attempted"),
                &Json::Num(cells),
                "{}",
                w.name()
            );
            let expect = if trace {
                spec_names(&PER_LAYER)
            } else {
                spec_names(&END_TO_END)
            };
            assert_eq!(names(&result), expect, "{} trace={trace}", w.name());
            if !w.judged() {
                assert_eq!(
                    field(&result, "correct"),
                    &Json::Bool(true),
                    "{} trace={trace}",
                    w.name()
                );
                assert_eq!(field(&result, "failed"), &Json::Num(0.0));
            }
        }
    }
}

#[test]
fn printed_names_match_benchmark_json() {
    let bench = benchmark_json();
    let listed = |key: &str, with_bound: bool| -> Vec<(String, String, String)> {
        let mut v: Vec<_> = items(&bench, key)
            .iter()
            .map(|m| {
                if with_bound {
                    let Json::Num(b) = field(m, "bound") else {
                        panic!("bound is not a number")
                    };
                    assert!(*b > 0.0 && *b <= 0.25, "{key}: bound {b} out of range");
                }
                (
                    text(m, "name").into(),
                    text(m, "unit").into(),
                    text(m, "better").into(),
                )
            })
            .collect();
        v.sort();
        v
    };
    let ours = |specs: &[Spec]| {
        let mut v: Vec<_> = specs
            .iter()
            .map(|s| (s.name.into(), s.unit.into(), s.better.into()))
            .collect();
        v.sort();
        v
    };
    assert_eq!(listed("end_to_end", true), ours(&END_TO_END));
    assert_eq!(listed("per_layer", false), ours(&PER_LAYER));
    for w in items(&bench, "workloads") {
        let name = text(w, "name");
        let workload = Workload::parse(name).unwrap_or_else(|| panic!("unknown workload {name}"));
        assert!(
            !workload.judged(),
            "{name}: a workload listed in BENCHMARK.json must be one on which no cell fails today"
        );
    }
    let result = tiny(Workload::Fig5Contended, false);
    assert_eq!(names(&result), spec_names(&END_TO_END));
}

#[test]
fn a_known_bad_history_is_a_failed_cell() {
    for kind in InjectKind::ALL {
        let (trace, metrics, warmup_end) = bad_history(kind);
        let judgement = cell::judge(&trace, &metrics, warmup_end);
        let run = Run {
            wall_s: 0.1,
            cpu_s: 0.1,
            events: 0,
            metrics,
            trace: None,
        };
        let mut record = CellRecord::new(format!("synthetic {}", kind.label()));
        record.observe(Ok(&run), Some(&judgement));
        assert!(record.failed(), "{}: not counted as failed", kind.label());
        assert!(
            record.failures.iter().any(|f| f.starts_with(kind.label())),
            "{}: failure does not name its oracle: {:?}",
            kind.label(),
            record.failures
        );
        let line = crate::result_json(&[record], &[]);
        let result = parse(&line);
        assert_eq!(field(&result, "failed"), &Json::Num(1.0));
        assert_eq!(field(&result, "correct"), &Json::Bool(false));
    }
}

#[test]
fn a_fingerprint_change_between_repetitions_fails_the_cell() {
    let cfg = Shape::tiny();
    let cells = crate::workload::cells(Workload::Fig3ReadMostly, cfg, 5);
    let mut a = cell::run(&cells[0], false).expect("tiny cell runs");
    let mut record = CellRecord::new(crate::workload::label(&cells[0]));
    record.observe(Ok(&a), None);
    assert!(!record.failed());
    a.metrics.in_time -= 1;
    a.metrics.failures.late += 1;
    record.observe(Ok(&a), None);
    assert!(record.failed());
    assert!(
        record.failures[0].starts_with("determinism"),
        "{:?}",
        record.failures
    );
}

#[test]
fn lock_counts_follow_the_engine() {
    let shape = Shape {
        clients: 40,
        duration: SimDuration::from_secs(300),
        warmup: SimDuration::from_secs(30),
        seeds: 1,
    };
    let cells = crate::workload::cells(Workload::CeOverload, shape, 7);
    let run = cell::run(&cells[0], true).expect("small CE cell runs");
    let records = &run
        .trace
        .as_ref()
        .expect("traced run keeps its trace")
        .records;
    let ops = LockOps::of(records);
    // CE requests each object of a transaction's access set once, so the
    // distinct (transaction, object) pairs held or waited on are exactly
    // its lock requests.
    let (mut held, mut waits, mut deadlocks) = (0, 0, 0);
    let mut requested = BTreeSet::new();
    for r in records {
        match r.event {
            Event::LockHeld { txn, object, .. } => {
                held += 1;
                requested.insert((txn, object));
            }
            Event::LockWait { txn, object } => {
                waits += 1;
                requested.insert((txn, object));
            }
            Event::Abort {
                reason: AbortReason::Deadlock,
                ..
            } => deadlocks += 1,
            _ => {}
        }
    }
    assert!(
        ops.granted_after_wait > 0,
        "the cell must block and then grant some requests"
    );
    assert_eq!(ops.requests, requested.len() as u64);
    assert_eq!(ops.requests + ops.granted_after_wait, held + waits);
    assert_eq!(ops.deadlock_checks, ops.requests + deadlocks);
}
