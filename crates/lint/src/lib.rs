//! `siteselect-lint` — `detlint`, the lock-order analyzer for the
//! threaded cluster runtime.
//!
//! The determinism contract (DESIGN.md §11) is enforced by clippy: the
//! workspace lints in the root `Cargo.toml` plus `clippy.toml`. This
//! crate keeps the one pass clippy cannot express: D7 (lock acquisition
//! cycles) and D8 (a guard held across a channel send or thread join)
//! over the cluster's `sync::Mutex` wrapper. See [`locks`] for the
//! analysis and DESIGN.md §16 for why it stays.
//!
//! It has **zero external dependencies**: a hand-rolled [`lexer`], a
//! recursive-descent item [`parse`]r and a [`callgraph`] that resolves
//! calls within one crate.
//!
//! ```text
//! detlint check --workspace        # the CI gate
//! ```
//!
//! A deliberate site is suppressed in place with
//! `// detlint: allow(D8) — <reason>` on the line or the line above; the
//! reason is mandatory.

pub mod callgraph;
pub mod json;
pub mod lexer;
pub mod locks;
pub mod parse;

use callgraph::{CallGraph, Unit};
use lexer::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::Path;

/// The crate the lock pass covers, relative to the workspace root: the
/// only code that takes real OS locks.
pub const SCOPE: &str = "crates/cluster/src";

/// The two lock-order rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Lock acquisition cycle (potential deadlock).
    D7,
    /// Mutex guard held across a channel send or thread join.
    D8,
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// One diagnostic: `file:line: detlint[D7]: message`.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: String,
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: detlint[{}]: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of one run.
#[derive(Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub files_checked: usize,
    /// The acquired-while-held graph the D7 verdict was computed on.
    pub lock_graph: locks::LockGraph,
}

/// Analyses every `.rs` file under [`SCOPE`] in the workspace at `root`.
pub fn check_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    let mut stack = vec![root.join(SCOPE)];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path.strip_prefix(root).unwrap_or(&path);
                let parts: Vec<_> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect();
                files.push(parts.join("/"));
            }
        }
    }
    files.sort();
    check_files(root, &files)
}

/// Analyses the given root-relative files as one crate.
pub fn check_files(root: &Path, files: &[String]) -> std::io::Result<Report> {
    let units = files
        .iter()
        .map(|rel| {
            Ok(Unit::new(
                rel.clone(),
                "cluster".into(),
                &fs::read_to_string(root.join(rel))?,
            ))
        })
        .collect::<std::io::Result<Vec<Unit>>>()?;
    let graph = CallGraph::build(&units);
    let (lock_graph, violations) = locks::check(&units, &graph, &vec![true; units.len()]);
    Ok(Report {
        violations,
        files_checked: units.len(),
        lock_graph,
    })
}

/// Well-formed `// detlint: allow(D7, D8) — reason` suppressions, by the
/// line they apply to. A trailing comment covers its own line; a
/// standalone one covers the next line with code. An annotation without
/// a reason, or naming an unknown rule, suppresses nothing.
#[must_use]
pub fn allowed_by_line(tokens: &[Token]) -> BTreeMap<u32, BTreeSet<RuleId>> {
    let mut out: BTreeMap<u32, BTreeSet<RuleId>> = BTreeMap::new();
    for (idx, tok) in tokens.iter().enumerate() {
        let (text, trailing) = match &tok.kind {
            TokKind::LineComment { text, trailing } => (text.as_str(), *trailing),
            TokKind::BlockComment { text } => (text.as_str(), true),
            _ => continue,
        };
        let Some(rest) = text.split("detlint:").nth(1) else {
            continue;
        };
        let Some((list, reason)) = rest
            .trim_start()
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
        else {
            continue;
        };
        let rules: Option<BTreeSet<RuleId>> = list
            .split(',')
            .map(|p| match p.trim() {
                "D7" => Some(RuleId::D7),
                "D8" => Some(RuleId::D8),
                _ => None,
            })
            .collect();
        let reason = reason
            .trim_start_matches([' ', '\t', '—', '-', ':', '–'])
            .trim();
        let Some(rules) = rules.filter(|_| !reason.is_empty()) else {
            continue;
        };
        let target = if trailing {
            tok.line
        } else {
            tokens
                .get(idx + 1..)
                .and_then(|rest| rest.iter().find(|t| t.is_code()))
                .map_or(tok.line + 1, |t| t.line)
        };
        out.entry(target).or_default().extend(rules);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn annotations_need_a_known_rule_and_a_reason() {
        let src = "// detlint: allow(D8) — unbounded channel\nfn a() {}\n\
                   fn b() {} // detlint: allow(D7)\n\
                   // detlint: allow(D2) — not a lock rule\nfn c() {}\n";
        let allowed = allowed_by_line(&lex(src));
        assert_eq!(allowed.len(), 1, "{allowed:?}");
        assert!(allowed[&2].contains(&RuleId::D8));
    }
}
