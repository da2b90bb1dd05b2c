//! `detlint` — CLI for the cluster lock-order analysis.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or io error.

#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary: stdout/stderr are its interface"
)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
detlint — lock-order analysis for the siteselect cluster runtime

USAGE:
    detlint check [--workspace] [--root <dir>]

Runs D7 (lock acquisition cycles) and D8 (a mutex guard held across a
channel send or thread join) over crates/cluster/src. The rest of the
determinism contract is clippy's: `cargo clippy --workspace --all-targets`.

Violations print as `file:line: detlint[Dn]: message`. A deliberate one
is suppressed in place with `// detlint: allow(Dn) — <reason>` on the
offending line or the line above; the reason is mandatory.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("detlint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("check") => {}
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return Ok(true);
        }
        Some(other) => return Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
    let mut root = default_root();
    while let Some(arg) = it.next() {
        match arg {
            "--workspace" => {} // the only scope; kept for the CI spelling
            "--root" => root = PathBuf::from(it.next().ok_or("--root needs a directory argument")?),
            other => return Err(format!("unknown argument `{other}`\n\n{USAGE}")),
        }
    }
    let report =
        siteselect_lint::check_workspace(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    for v in &report.violations {
        println!("{v}");
    }
    let n = report.violations.len();
    let verdict = if n == 0 {
        "clean".into()
    } else {
        format!("{n} violation(s)")
    };
    println!("detlint: {verdict} ({} files)", report.files_checked);
    Ok(n == 0)
}

/// The workspace root: the nearest ancestor of the current directory
/// that contains the cluster crate, falling back to the current one.
fn default_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_default();
    let root = cwd
        .ancestors()
        .find(|d| d.join(siteselect_lint::SCOPE).is_dir());
    root.unwrap_or(&cwd).to_path_buf()
}
