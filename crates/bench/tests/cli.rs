//! End-to-end tests of the `repro` command line: argument validation,
//! the simcheck self-test (`--inject-violation`), a small green explorer
//! run, and `--jobs` invariance of the printed report.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn zero_valued_numeric_flags_are_rejected_with_clear_errors() {
    for (args, needle) in [
        (&["check", "--jobs", "0"][..], "--jobs must be at least 1"),
        (&["check", "--seeds", "0"][..], "--seeds must be at least 1"),
        (&["check", "--clients", "0"][..], "--clients must be at least 1"),
        (&["check", "--duration", "0"][..], "--duration must be at least 1"),
        (&["faults", "--clients", "0"][..], "--clients must be at least 1"),
        (&["faults", "--jobs", "0"][..], "--jobs must be at least 1"),
        (&["trace", "--duration", "0"][..], "--duration must be at least 1"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains(needle), "{args:?} stderr missing {needle:?}: {err}");
    }
}

#[test]
fn garbled_numeric_flags_are_rejected_not_defaulted() {
    for (args, flag) in [
        (&["check", "--clients", "bogus"][..], "--clients"),
        (&["check", "--seeds", "1e9"][..], "--seeds"),
        (&["check", "--jobs", "-2"][..], "--jobs"),
        (&["trace", "--update", "lots"][..], "--update"),
        (&["check", "--seeds"][..], "--seeds"),
        (&["faults", "--clients", "many"][..], "--clients"),
        (&["faults", "--jobs", "4.5"][..], "--jobs"),
        (&["trace", "--seed", "0x7"][..], "--seed"),
        (&["trace", "--chaos", "heavy"][..], "--chaos"),
        (&["trace", "--warmup"][..], "--warmup"),
    ] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains(flag), "{args:?} stderr missing {flag:?}: {err}");
    }
}

#[test]
fn out_of_range_fractions_are_rejected() {
    let out = repro(&["trace", "--update", "1.5"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--update must be a fraction in [0, 1]"));

    let out = repro(&["check", "--warmup", "80", "--duration", "60"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--warmup"));

    let out = repro(&["trace", "--chaos", "-0.5"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--chaos must be a non-negative intensity"));

    let out = repro(&["trace", "--system", "xx"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("invalid value for --system"));
}

#[test]
fn restart_without_chaos_is_rejected() {
    for args in [&["trace", "--restart"][..], &["trace", "--chaos", "0.0", "--restart"][..]] {
        let out = repro(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let err = stderr_of(&out);
        assert!(err.contains("--restart needs --chaos above 0"), "{args:?} stderr: {err}");
    }
}

#[test]
fn unknown_target_lists_the_valid_ones() {
    let out = repro(&["chekc"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(err.contains("unknown target"), "stderr: {err}");
    assert!(err.contains("check"), "stderr: {err}");
}

#[test]
fn injected_violations_fail_with_diagnostic_and_replay() {
    for (kind, file) in [
        ("serializability", "crates/check/src/serializability.rs"),
        ("coherence", "crates/check/src/coherence.rs"),
        ("deadline", "crates/check/src/deadline.rs"),
        ("recovery", "crates/check/src/recovery.rs"),
    ] {
        let out = repro(&["check", "--inject-violation", kind]);
        assert!(!out.status.success(), "--inject-violation {kind} must exit non-zero");
        let err = stderr_of(&out);
        assert!(
            err.contains(&format!("{kind} violation at {file}")),
            "{kind}: missing file:line diagnostic in: {err}"
        );
        assert!(err.contains("replay:"), "{kind}: missing replay command in: {err}");
    }

    let out = repro(&["check", "--inject-violation", "nonsense"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--inject-violation"));
}

#[test]
fn small_explorer_run_is_green_and_jobs_invariant() {
    let args = |jobs: &'static str| {
        vec![
            "check", "--seeds", "2", "--clients", "2", "--duration", "60", "--warmup", "20",
            "--jobs", jobs,
        ]
    };
    let one = repro(&args("1"));
    assert!(
        one.status.success(),
        "green run failed: {}{}",
        stdout_of(&one),
        stderr_of(&one)
    );
    let report = stdout_of(&one);
    assert!(report.contains("cases passed"), "stdout: {report}");

    // The printed report must not depend on worker count.
    let three = repro(&args("3"));
    assert!(three.status.success());
    assert_eq!(stdout_of(&one), stdout_of(&three), "report differs across --jobs");
}

/// `bench` must not start the suite (and overwrite `./BENCH_sim.json`)
/// for `--help` or an unknown flag: both answer before any work.
#[test]
fn bench_help_and_unknown_flags_do_no_work() {
    let dir = std::env::temp_dir().join(format!("repro_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn repro")
    };
    let help = run(&["bench", "--help"]);
    assert!(help.status.success(), "--help must exit 0: {}", stderr_of(&help));
    assert!(stdout_of(&help).contains("usage: repro"), "{}", stdout_of(&help));
    let bogus = run(&["bench", "--bogus"]);
    assert!(!bogus.status.success(), "--bogus must fail");
    assert!(stderr_of(&bogus).contains("unknown flag `--bogus`"), "{}", stderr_of(&bogus));
    let written: Vec<_> = std::fs::read_dir(&dir).expect("temp dir").collect();
    std::fs::remove_dir_all(&dir).ok();
    assert!(written.is_empty(), "repro wrote files: {written:?}");
}
