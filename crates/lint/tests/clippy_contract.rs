//! The clippy half of the determinism contract, held to the D1–D6 and
//! D9 fixtures: every line marked `// violation: <lint>` in a `_bad.rs`
//! fixture draws that lint (and nothing fires elsewhere), and every
//! `_good.rs` fixture is clean, as a library and as a test build.
//!
//! Each fixture is compiled by `clippy-driver` under the workspace's own
//! configuration, read from where the workspace keeps it: the lint table
//! in the root `Cargo.toml` (`[workspace.lints]`), the root
//! `clippy.toml`, and — for D9 — the `#![warn(…)]` attribute the engine
//! crates carry.

use siteselect_lint::json::{self, Value};
use std::path::Path;
use std::process::Command;

const ENGINE_CRATES: [&str; 4] = ["core", "sim", "locks", "storage"];

/// `[workspace.lints.*]` as rustc flags, lowest priority first (later
/// flags win), the order cargo passes them in.
fn workspace_lint_flags(root: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let mut lints: Vec<(i64, String, String)> = Vec::new();
    let mut tool = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            tool = line
                .strip_prefix("[workspace.lints.")
                .and_then(|t| t.strip_suffix(']'));
            continue;
        }
        let (Some(tool), Some((name, value)), false) =
            (tool, line.split_once('='), line.starts_with('#'))
        else {
            continue;
        };
        // `name = "level"` or `name = { level = "…", priority = n }`.
        let level = ["allow", "warn", "deny", "forbid"]
            .into_iter()
            .find(|l| value.contains(&format!("\"{l}\"")))
            .expect("a lint level");
        let priority: i64 = value.split("priority").nth(1).map_or(0, |p| {
            p.trim_matches([' ', '=', '}']).parse().expect("a priority")
        });
        let name = name.trim();
        let name = if tool == "rust" {
            name.to_string()
        } else {
            format!("{tool}::{name}")
        };
        lints.push((priority, name, level.to_string()));
    }
    lints.sort();
    assert!(lints.len() > 20, "lint table looks truncated: {lints:?}");
    lints
        .into_iter()
        .flat_map(|(_, name, level)| [format!("--{level}"), name])
        .collect()
}

/// The D9 lints, read from the engine crates' roots; all four must carry
/// the same attribute.
fn d9_flags(root: &Path) -> Vec<String> {
    let attrs: Vec<String> = ENGINE_CRATES
        .iter()
        .map(|c| {
            let src = std::fs::read_to_string(root.join(format!("crates/{c}/src/lib.rs")))
                .expect("crate root");
            let line = src
                .lines()
                .find(|l| l.starts_with("#![warn(clippy::unwrap_used"));
            line.unwrap_or_else(|| panic!("crates/{c} lacks the D9 lint attribute"))
                .to_string()
        })
        .collect();
    assert!(
        attrs.iter().all(|a| *a == attrs[0]),
        "engine crates disagree on D9: {attrs:?}"
    );
    let inner = attrs[0]
        .trim_start_matches("#![warn(")
        .trim_end_matches(")]");
    inner
        .split(',')
        .flat_map(|l| ["--warn".to_string(), l.trim().to_string()])
        .collect()
}

/// Runs clippy on one fixture; returns `(line, lint)` for every
/// diagnostic that names a lint.
fn clippy(fixture: &str, test_build: bool) -> Vec<(usize, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_dir = std::env::temp_dir().join(format!(
        "clippy_contract_{}_{fixture}_{test_build}",
        std::process::id()
    ));
    std::fs::create_dir_all(&out_dir).expect("temp dir");
    let mut cmd = Command::new("clippy-driver");
    cmd.env("CLIPPY_CONF_DIR", &root)
        .args([
            "--edition",
            "2021",
            "--crate-type",
            "lib",
            "--emit",
            "metadata",
            "--error-format",
            "json",
        ])
        .arg("--out-dir")
        .arg(&out_dir)
        .args(workspace_lint_flags(&root));
    if fixture.starts_with("d9") {
        cmd.args(d9_flags(&root));
    }
    if test_build {
        cmd.args(["--test", "--allow", "dead_code"]);
    }
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/src/{fixture}.rs"));
    let out = cmd
        .arg(&path)
        .output()
        .expect("clippy-driver runs (it ships with the toolchain)");
    std::fs::remove_dir_all(&out_dir).ok();
    let mut found = Vec::new();
    for line in String::from_utf8_lossy(&out.stderr).lines() {
        let Ok(diag) = json::parse(line) else {
            continue;
        };
        let Some(Value::Str(lint)) = diag.get("code").and_then(|c| c.get("code")) else {
            continue;
        };
        let Some(Value::Arr(spans)) = diag.get("spans") else {
            continue;
        };
        for span in spans
            .iter()
            .filter(|s| matches!(s.get("is_primary"), Some(Value::Bool(true))))
        {
            let line = span
                .get("line_start")
                .and_then(Value::as_usize)
                .unwrap_or(0);
            found.push((line, lint.clone()));
        }
    }
    found
}

const RULES: [&str; 7] = ["d1", "d2", "d3", "d4", "d5", "d6", "d9"];

#[test]
fn every_marked_violation_draws_its_lint() {
    for rule in RULES {
        let fixture = format!("{rule}_bad");
        let src = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/src/{fixture}.rs")),
        )
        .expect("fixture");
        let marked: Vec<(usize, String)> = src
            .lines()
            .enumerate()
            .filter_map(|(i, l)| {
                l.split("// violation: ")
                    .nth(1)
                    .map(|lint| (i + 1, lint.trim().to_string()))
            })
            .collect();
        assert!(!marked.is_empty(), "{fixture} marks no violation");
        let found = clippy(&fixture, false);
        for want in &marked {
            assert!(
                found.contains(want),
                "{fixture}:{} is not reported as {}: {found:?}",
                want.0,
                want.1
            );
        }
        for (line, lint) in &found {
            assert!(
                marked.iter().any(|m| m.0 == *line),
                "{fixture}:{line}: unmarked {lint}"
            );
        }
    }
}

#[test]
fn good_fixtures_are_clean() {
    for rule in RULES {
        let fixture = format!("{rule}_good");
        for test_build in [false, true] {
            let found = clippy(&fixture, test_build);
            assert!(
                found.is_empty(),
                "{fixture} (test build: {test_build}): {found:?}"
            );
        }
    }
}
