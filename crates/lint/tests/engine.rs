//! End-to-end tests for `detlint`'s lock-order pass: the D7/D8
//! fixtures, and — the gate this crate exists for — checks that the
//! repository's cluster crate is clean and its lock graph is the known
//! acyclic one.

use siteselect_lint::{check_files, check_workspace, RuleId};
use std::path::{Path, PathBuf};

fn fixtures_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}

/// One cycle and one send-under-lock in the fixture tree, each reported
/// exactly once, at the line marked `// violation`.
#[test]
fn lock_rules_fire_in_the_fixture_tree() {
    let report = check_files(
        &fixtures_root(),
        &["d7_bad", "d7_good", "d8_bad", "d8_good"].map(|f| format!("src/{f}.rs")),
    )
    .expect("fixture tree scans");
    let lock_hits: Vec<(&str, RuleId)> = report
        .violations
        .iter()
        .map(|v| (v.file.as_str(), v.rule))
        .collect();
    assert_eq!(
        lock_hits,
        vec![("src/d7_bad.rs", RuleId::D7), ("src/d8_bad.rs", RuleId::D8),]
    );
    for v in &report.violations {
        let src = std::fs::read_to_string(fixtures_root().join(&v.file)).expect("readable");
        let line = src.lines().nth(v.line as usize - 1).unwrap_or_default();
        assert!(line.contains("// violation"), "{v} points at `{line}`");
        assert!(
            v.to_string()
                .starts_with(&format!("{}:{}: detlint[{}]:", v.file, v.line, v.rule)),
            "unexpected diagnostic shape: {v}"
        );
    }
}

/// Seeding a send under a lock into the cluster crate must flip the CLI
/// to a non-zero exit with a `file:line` diagnostic.
#[test]
fn cli_flags_seeded_violations_with_file_line() {
    let dir = std::env::temp_dir().join(format!("detlint_seed_{}", std::process::id()));
    let src_dir = dir.join(siteselect_lint::SCOPE);
    std::fs::create_dir_all(&src_dir).expect("temp tree");
    std::fs::write(
        src_dir.join("bad.rs"),
        "struct S { m: Mutex<u32>, tx: Sender<u32> }\n\
         impl S {\n\
             fn f(&self) {\n\
                 let g = self.m.lock();\n\
                 let _ = self.tx.send(*g);\n\
             }\n\
         }\n",
    )
    .expect("write seeded violation");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["check", "--workspace", "--root"])
        .arg(&dir)
        .output()
        .expect("detlint binary runs");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(out.status.code(), Some(1), "seeded violation must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/cluster/src/bad.rs:5: detlint[D8]"),
        "{stdout}"
    );
}

/// The acceptance gate: the real cluster crate parses without a single
/// error (an error means the call graph silently loses functions), has
/// zero violations, and its lock graph holds exactly the two known
/// acquired-while-held edges.
#[test]
fn repository_is_clean_with_the_known_lock_graph() {
    let root = repo_root();
    for entry in std::fs::read_dir(root.join(siteselect_lint::SCOPE)).expect("cluster sources") {
        let path = entry.expect("dir entry").path();
        let src = std::fs::read_to_string(&path).expect("readable");
        let unit = siteselect_lint::callgraph::Unit::new(
            path.display().to_string(),
            "cluster".into(),
            &src,
        );
        assert!(
            unit.parsed.errors.is_empty(),
            "{}: {:?}",
            unit.path,
            unit.parsed.errors
        );
    }
    let report = check_workspace(&root).expect("workspace scans");
    let rendered: Vec<String> = report.violations.iter().map(ToString::to_string).collect();
    assert!(
        report.violations.is_empty(),
        "lock-order violations:\n{}",
        rendered.join("\n")
    );
    assert!(report.files_checked >= 7, "scan looks truncated");
    let edges = &report.lock_graph.edges;
    assert!(
        report
            .lock_graph
            .has_edge("ClientShared.state", "SharedServer.inner"),
        "{edges:?}"
    );
    assert!(
        report
            .lock_graph
            .has_edge("SharedServer.inner", "SharedServer.callback_tx"),
        "{edges:?}"
    );
    assert_eq!(edges.len(), 2, "{edges:?}");
    // `detlint check --workspace` — the exact CI invocation — agrees.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_detlint"))
        .args(["check", "--workspace", "--root"])
        .arg(&root)
        .output()
        .expect("detlint binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
