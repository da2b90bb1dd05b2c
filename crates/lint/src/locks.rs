//! Lock-order analysis for the threaded cluster runtime: D7 (lock
//! acquisition cycles) and D8 (guards held across channel sends or
//! thread joins).
//!
//! The pass tracks guards of the workspace's own [`Mutex`] wrapper
//! (`crates/cluster/src/sync.rs`) through each function body:
//!
//! * `let g = x.lock();` — the guard lives to the end of the enclosing
//!   block, or to an earlier `drop(g)`.
//! * `x.lock().method(…);` — a temporary, dropped at the end of the
//!   statement.
//! * `if let P = x.lock()… {` / `while let` / `match` / `for … in
//!   x.lock()… {` — the scrutinee temporary lives to the end of the
//!   construct's block (the Rust 2021 rule; conservative for 2024).
//!
//! Lock identity is the dotted receiver path with `self` replaced by
//! the impl type (`SharedServer.inner`); the wrapper's own internal
//! `self.0.lock()` is ignored. While any guard is held:
//!
//! * acquiring another lock — directly or transitively through a call
//!   (summaries reach fixpoint over the crate call graph) — adds an
//!   ordering edge `held → acquired`; a cycle in the resulting graph is
//!   a D7 violation reported at the edge that closes it.
//! * a direct `.send(…)` or zero-argument `.join()` (thread-handle
//!   shape; one-argument `join` is the `str`/`Path` method), or a call
//!   to a function that transitively sends or joins, is a D8 violation:
//!   the send can block under backpressure and the join can wait on a
//!   thread that needs the held lock.
//!
//! Only units marked *active* are scanned for lock sites and
//! violations; send/join facts are seeded in every unit given.

use crate::callgraph::{Call, CallGraph, Unit};
use crate::lexer::Token;
use crate::{allowed_by_line, RuleId, Violation};
use std::collections::{BTreeMap, BTreeSet};

/// One acquired-while-held edge, with the site that created it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub from: String,
    /// Lock acquired (directly or via a call) while `from` was held.
    pub to: String,
    pub file: String,
    pub line: u32,
}

/// The acquired-while-held graph over named locks.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Deduplicated edges, first site wins, sorted by `(from, to)`.
    pub edges: Vec<LockEdge>,
}

impl LockGraph {
    /// True if the graph contains an edge `from → to`.
    #[must_use]
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }
}

/// Per-function facts at fixpoint: locks acquired anywhere inside
/// (directly or transitively) and whether the function can send on a
/// channel or join a thread.
#[derive(Debug, Default, Clone)]
struct FnFacts {
    locks: BTreeSet<String>,
    sends: bool,
    joins: bool,
}

/// Runs the pass. `active[u]` marks units the D7/D8 policy applies to;
/// lock sites are only recognized there. Returns the lock graph and the
/// D7/D8 violations, sorted by `(file, line, rule)`.
#[must_use]
pub fn check(units: &[Unit], graph: &CallGraph, active: &[bool]) -> (LockGraph, Vec<Violation>) {
    let codes: Vec<Vec<&Token>> = units.iter().map(Unit::code).collect();
    let facts = fixpoint(units, graph, active, &codes);
    let allowed: Vec<BTreeMap<u32, BTreeSet<RuleId>>> = units
        .iter()
        .map(|u| allowed_by_line(&u.tokens))
        .collect();

    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    let mut out = Vec::new();
    let mut seen_d8: BTreeSet<(usize, u32)> = BTreeSet::new();

    for (caller, node) in graph.fns.iter().enumerate() {
        if !active[node.unit] {
            continue;
        }
        let unit = &units[node.unit];
        let def = &unit.parsed.fns[node.def];
        if def.test_only {
            continue;
        }
        let Some((s, e)) = def.body else { continue };
        let code = &codes[node.unit];
        let calls_by_tok: BTreeMap<usize, &Call> =
            graph.calls[caller].iter().map(|c| (c.tok, c)).collect();
        // Active guards: (lock name, exclusive scope-end index).
        let mut held: Vec<(String, usize)> = Vec::new();
        for i in s..e.min(code.len()) {
            if unit.parsed.fn_containing(i).is_none_or(|f| !std::ptr::eq(f, def)) {
                continue; // nested fn bodies get their own walk
            }
            held.retain(|g| g.1 > i);
            let line = code[i].line;
            let d8_allowed = allowed[node.unit]
                .get(&line)
                .is_some_and(|rs| rs.contains(&RuleId::D8));
            if let Some(name) = lock_site(code, i, def.self_ty.as_deref()) {
                for (h, _) in &held {
                    edge_insert(&mut edges, h, &name, &unit.path, line);
                }
                let end = guard_scope_end(code, i, s, e);
                held.push((name, end));
                continue;
            }
            if !held.is_empty() {
                if let Some(what) = send_or_join_site(code, i) {
                    if !d8_allowed && seen_d8.insert((node.unit, line)) {
                        out.push(d8(unit, line, &format!(
                            "{what} while holding `{}` — the wait can block with the lock held; \
                             release the guard first or annotate why it cannot block",
                            held_names(&held),
                        )));
                    }
                    continue;
                }
                if let Some(call) = calls_by_tok.get(&i) {
                    let f = &facts[call.callee];
                    for to in &f.locks {
                        for (h, _) in &held {
                            if h != to {
                                edge_insert(&mut edges, h, to, &unit.path, line);
                            }
                        }
                    }
                    if (f.sends || f.joins) && !d8_allowed && seen_d8.insert((node.unit, line)) {
                        let what = if f.sends { "sends on a channel" } else { "joins a thread" };
                        out.push(d8(unit, line, &format!(
                            "call to `{}` {what} while holding `{}` — the wait can block with \
                             the lock held; release the guard first or annotate why it cannot block",
                            call.display,
                            held_names(&held),
                        )));
                    }
                }
            }
        }
    }

    let lock_graph = LockGraph {
        edges: edges
            .into_iter()
            .map(|((from, to), (file, line))| LockEdge { from, to, file, line })
            .collect(),
    };
    out.extend(cycles(&lock_graph, units, &allowed));
    out.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    (lock_graph, out)
}

fn d8(unit: &Unit, line: u32, message: &str) -> Violation {
    Violation {
        file: unit.path.clone(),
        line,
        rule: RuleId::D8,
        message: message.to_string(),
    }
}

fn held_names(held: &[(String, usize)]) -> String {
    held.iter().map(|g| g.0.as_str()).collect::<Vec<_>>().join("`, `")
}

fn edge_insert(
    edges: &mut BTreeMap<(String, String), (String, u32)>,
    from: &str,
    to: &str,
    file: &str,
    line: u32,
) {
    edges
        .entry((from.to_string(), to.to_string()))
        .or_insert_with(|| (file.to_string(), line));
}

/// Seeds per-function facts and unions them along call edges until
/// stable.
fn fixpoint(
    units: &[Unit],
    graph: &CallGraph,
    active: &[bool],
    codes: &[Vec<&Token>],
) -> Vec<FnFacts> {
    let mut facts: Vec<FnFacts> = Vec::with_capacity(graph.fns.len());
    for node in &graph.fns {
        let unit = &units[node.unit];
        let def = &unit.parsed.fns[node.def];
        let mut f = FnFacts::default();
        if let Some((s, e)) = def.body {
            let code = &codes[node.unit];
            for i in s..e.min(code.len()) {
                if unit.parsed.fn_containing(i).is_none_or(|d| !std::ptr::eq(d, def)) {
                    continue;
                }
                if active[node.unit] {
                    if let Some(name) = lock_site(code, i, def.self_ty.as_deref()) {
                        f.locks.insert(name);
                        continue;
                    }
                }
                match send_or_join_site(code, i) {
                    Some(SiteKind::Send) => f.sends = true,
                    Some(SiteKind::Join) => f.joins = true,
                    None => {}
                }
            }
        }
        facts.push(f);
    }
    loop {
        let mut changed = false;
        for caller in 0..graph.fns.len() {
            for call in &graph.calls[caller] {
                let callee = facts[call.callee].clone();
                let f = &mut facts[caller];
                let before = f.locks.len();
                f.locks.extend(callee.locks);
                if f.locks.len() != before {
                    changed = true;
                }
                if callee.sends && !f.sends {
                    f.sends = true;
                    changed = true;
                }
                if callee.joins && !f.joins {
                    f.joins = true;
                    changed = true;
                }
            }
        }
        if !changed {
            return facts;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Send,
    Join,
}

impl std::fmt::Display for SiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiteKind::Send => write!(f, "channel send"),
            SiteKind::Join => write!(f, "thread join"),
        }
    }
}

/// `.send(` at `i`, or a zero-argument `.join()` (the thread-handle
/// shape — `str::join`/`Path::join` take an argument).
fn send_or_join_site(code: &[&Token], i: usize) -> Option<SiteKind> {
    let name = code[i].ident()?;
    if i == 0 || !code[i - 1].is_punct('.') {
        return None;
    }
    if !code.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    match name {
        "send" => Some(SiteKind::Send),
        "join" if code.get(i + 2).is_some_and(|t| t.is_punct(')')) => Some(SiteKind::Join),
        _ => None,
    }
}

/// Recognizes `<receiver>.lock()` at code index `i` (the `lock` ident)
/// and names the lock: the dotted receiver path with a leading `self`
/// replaced by the impl type. Returns `None` for the wrapper's own
/// `self.0.lock()` (a tuple-field receiver is the raw std mutex inside
/// `sync.rs`) and for computed receivers (`f(x).lock()`).
fn lock_site(code: &[&Token], i: usize, self_ty: Option<&str>) -> Option<String> {
    if code[i].ident() != Some("lock") {
        return None;
    }
    if i < 2 || !code[i - 1].is_punct('.') {
        return None;
    }
    if !code.get(i + 1).is_some_and(|t| t.is_punct('('))
        || !code.get(i + 2).is_some_and(|t| t.is_punct(')'))
    {
        return None;
    }
    // Walk the dotted path backwards: ident (. ident)*
    let mut segs: Vec<&str> = Vec::new();
    let mut j = i - 1; // at the '.'
    while let Some(prev) = j.checked_sub(1) {
        let Some(id) = code[prev].ident() else {
            // `self.0.lock()` (a wrapper's internal mutex) or a computed
            // receiver — can't name the lock.
            return None;
        };
        segs.push(id);
        if prev >= 2 && code[prev - 1].is_punct('.') {
            j = prev - 1;
        } else {
            break;
        }
    }
    segs.reverse();
    if segs.is_empty() {
        return None;
    }
    if segs[0] == "self" {
        segs[0] = self_ty.unwrap_or("Self");
    }
    Some(segs.join("."))
}

/// Exclusive scope end for the guard produced by the `.lock()` at `i`.
fn guard_scope_end(code: &[&Token], i: usize, body_s: usize, body_e: usize) -> usize {
    let body_e = body_e.min(code.len());
    let stmt_s = statement_start(code, i, body_s);
    match code[stmt_s].ident() {
        Some("let") => {
            let bind = binding_name(code, stmt_s);
            let end = enclosing_block_end(code, i, body_e);
            if let Some(name) = bind {
                if let Some(d) = drop_site(code, i, end, name) {
                    return d;
                }
            }
            end
        }
        Some("if" | "while" | "match" | "for") => construct_block_end(code, i, body_e),
        _ => temporary_end(code, i, body_e),
    }
}

/// Backward scan to the start of the statement containing `site`.
/// Brackets/parens are balanced; a `{`, `}`, or `;` at depth 0 is a
/// statement boundary (`}` ends a preceding block statement — braces
/// nested inside parens are ignored by the depth rule and stay inside).
fn statement_start(code: &[&Token], site: usize, body_s: usize) -> usize {
    let mut depth = 0i32;
    let mut j = site;
    while j > body_s {
        let t = code[j - 1];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) && depth == 0 {
            break;
        }
        j -= 1;
    }
    j
}

/// The pattern ident of `let [mut] NAME = …`, if it is a simple one.
fn binding_name<'t>(code: &[&'t Token], stmt_s: usize) -> Option<&'t str> {
    let mut k = stmt_s + 1;
    if code.get(k).and_then(|t| t.ident()) == Some("mut") {
        k += 1;
    }
    code.get(k).and_then(|t| t.ident())
}

/// First `drop(NAME)` between `i` and `end`, as the release point.
fn drop_site(code: &[&Token], i: usize, end: usize, name: &str) -> Option<usize> {
    (i..end.min(code.len()).saturating_sub(3)).find(|&k| {
        code[k].ident() == Some("drop")
            && code[k + 1].is_punct('(')
            && code[k + 2].ident() == Some(name)
            && code[k + 3].is_punct(')')
    })
}

/// The `}` closing the innermost block containing `i` (exclusive end).
fn enclosing_block_end(code: &[&Token], i: usize, body_e: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().take(body_e).skip(i) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return k;
            }
            depth -= 1;
        }
    }
    body_e
}

/// For `if let` / `while let` / `match` / `for` scrutinee temporaries:
/// the end of the construct's block — the `}` matching the first `{`
/// at group depth 0 after the site.
fn construct_block_end(code: &[&Token], i: usize, body_e: usize) -> usize {
    let mut gdepth = 0i32;
    let mut k = i;
    while k < body_e {
        let t = code[k];
        if t.is_punct('(') || t.is_punct('[') {
            gdepth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            gdepth -= 1;
        } else if t.is_punct('{') && gdepth == 0 {
            // Match this brace.
            let mut depth = 0i32;
            for (m, u) in code.iter().enumerate().take(body_e).skip(k + 1) {
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    if depth == 0 {
                        return m;
                    }
                    depth -= 1;
                }
            }
            return body_e;
        }
        k += 1;
    }
    body_e
}

/// A plain-statement temporary: dropped at the `;` ending the statement
/// (or at the close of the surrounding block for a tail expression).
fn temporary_end(code: &[&Token], i: usize, body_e: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().take(body_e).skip(i) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return k; // tail expression: block close drops it
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return k;
        }
    }
    body_e
}

/// DFS cycle detection over the lock graph; one D7 violation per
/// distinct cycle, reported at the edge completing it.
fn cycles(
    graph: &LockGraph,
    units: &[Unit],
    allowed: &[BTreeMap<u32, BTreeSet<RuleId>>],
) -> Vec<Violation> {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in &graph.edges {
        adj.entry(&e.from).or_default().push(e);
    }
    let mut out = Vec::new();
    let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
    // Color-marked DFS from every node, deterministic order.
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&LockEdge> = Vec::new();
        let mut on_path: BTreeSet<&str> = [start].into_iter().collect();
        while let Some((node, next)) = stack.last_mut() {
            let succ = adj.get(node).map_or(&[][..], Vec::as_slice);
            if *next >= succ.len() {
                stack.pop();
                if let Some(e) = path.pop() {
                    on_path.remove(e.to.as_str());
                }
                continue;
            }
            let e = succ[*next];
            *next += 1;
            if e.to == start {
                // Cycle closed. Normalize by rotating to the smallest
                // lock name so each cycle reports once.
                let mut names: Vec<String> =
                    path.iter().map(|p| p.from.clone()).collect();
                names.push(e.from.clone());
                let min = names.iter().enumerate().min_by_key(|(_, n)| *n).map_or(0, |(i, _)| i);
                names.rotate_left(min);
                if reported.insert(names.clone()) {
                    let site = path.iter().chain([&e]).max_by_key(|p| (&p.file, p.line));
                    let site = site.expect("cycle has at least one edge");
                    let unit_idx = units.iter().position(|u| u.path == site.file);
                    let suppressed = unit_idx.is_some_and(|u| {
                        allowed[u]
                            .get(&site.line)
                            .is_some_and(|rs| rs.contains(&RuleId::D7))
                    });
                    if !suppressed {
                        let mut display = names.clone();
                        display.push(display[0].clone());
                        out.push(Violation {
                            file: site.file.clone(),
                            line: site.line,
                            rule: RuleId::D7,
                            message: format!(
                                "lock order cycle: `{}` — two threads taking these locks in \
                                 different orders can deadlock; pick one global order",
                                display.join("` → `"),
                            ),
                        });
                    }
                }
            } else if !on_path.contains(e.to.as_str()) {
                on_path.insert(&e.to);
                path.push(e);
                stack.push((&e.to, 0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (LockGraph, Vec<Violation>) {
        let units = vec![Unit::new(
            "crates/cluster/src/x.rs".into(),
            "cluster".into(),
            src,
        )];
        let graph = CallGraph::build(&units);
        check(&units, &graph, &[true])
    }

    #[test]
    fn nested_let_guards_create_an_edge() {
        let (g, v) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }
}
",
        );
        assert!(g.has_edge("S.a", "S.b"), "{:?}", g.edges);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn opposite_orders_form_a_cycle() {
        let (g, v) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
    }
    fn g(&self) {
        let gb = self.b.lock();
        let ga = self.a.lock();
    }
}
",
        );
        assert!(g.has_edge("S.a", "S.b") && g.has_edge("S.b", "S.a"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D7);
        assert!(v[0].message.contains("S.a"), "{}", v[0].message);
    }

    #[test]
    fn temporaries_expire_at_statement_end() {
        let (g, v) = run(
            r"
struct S { a: Mutex<Vec<u32>>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        self.a.lock().push(1);
        let gb = self.b.lock();
    }
}
",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
        assert!(v.is_empty());
    }

    #[test]
    fn drop_releases_the_guard_early() {
        let (g, _) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn f(&self) {
        let ga = self.a.lock();
        drop(ga);
        let gb = self.b.lock();
    }
}
",
        );
        assert!(g.edges.is_empty(), "{:?}", g.edges);
    }

    #[test]
    fn send_under_if_let_scrutinee_guard_is_d8() {
        let (_, v) = run(
            r"
struct S { tx: Mutex<Vec<Option<Sender<u32>>>> }
impl S {
    fn f(&self, i: usize) {
        if let Some(tx) = self.tx.lock()[i].as_ref() {
            let _ = tx.send(7);
        }
    }
}
",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D8);
        assert_eq!(v[0].line, 6);
        assert!(v[0].message.contains("S.tx"), "{}", v[0].message);
    }

    #[test]
    fn send_after_the_if_let_block_is_fine() {
        let (_, v) = run(
            r"
struct S { tx: Mutex<Option<Sender<u32>>> }
impl S {
    fn f(&self, out: &Sender<u32>) {
        if let Some(_tx) = self.tx.lock().as_ref() {
        }
        let _ = out.send(7);
    }
}
",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn transitive_send_through_a_call_is_d8_at_the_call_site() {
        let (_, v) = run(
            r"
struct S { m: Mutex<u32> }
impl S {
    fn notify(&self, tx: &Sender<u32>) {
        let _ = tx.send(1);
    }
    fn f(&self, tx: &Sender<u32>) {
        let g = self.m.lock();
        self.notify(tx);
    }
}
",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D8);
        assert!(v[0].message.contains("notify"), "{}", v[0].message);
    }

    #[test]
    fn transitive_lock_through_a_call_creates_an_edge() {
        let (g, _) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
impl S {
    fn take_b(&self) -> u32 {
        *self.b.lock()
    }
    fn f(&self) {
        let ga = self.a.lock();
        let _ = self.take_b();
    }
}
",
        );
        assert!(g.has_edge("S.a", "S.b"), "{:?}", g.edges);
    }

    #[test]
    fn str_join_with_argument_is_not_a_thread_join() {
        let (_, v) = run(
            r#"
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, parts: &[String]) -> String {
        let g = self.m.lock();
        parts.join(", ")
    }
}
"#,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn zero_arg_join_under_guard_is_d8() {
        let (_, v) = run(
            r"
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, h: JoinHandle<()>) {
        let g = self.m.lock();
        let _ = h.join();
    }
}
",
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::D8);
    }

    #[test]
    fn wrapper_internal_numeric_receiver_is_skipped() {
        let (g, v) = run(
            r"
pub struct Mutex<T>(std::sync::Mutex<T>);
impl<T> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<T> {
        MutexGuard(Some(self.0.lock().unwrap()))
    }
}
",
        );
        assert!(g.edges.is_empty() && v.is_empty());
    }

    #[test]
    fn annotations_suppress_d8() {
        let (_, v) = run(
            r"
struct S { m: Mutex<u32> }
impl S {
    fn f(&self, tx: &Sender<u32>) {
        let g = self.m.lock();
        // detlint: allow(D8) — unbounded channel, send never blocks
        let _ = tx.send(1);
    }
}
",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn test_only_fns_are_skipped() {
        let (g, v) = run(
            r"
struct S { a: Mutex<u32>, b: Mutex<u32> }
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let ga = S.a.lock();
        let gb = S.b.lock();
    }
}
",
        );
        assert!(g.edges.is_empty() && v.is_empty());
    }
}
