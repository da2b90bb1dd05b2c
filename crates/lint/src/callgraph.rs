//! Function index and call graph for one crate.
//!
//! Built on [`crate::parse`]: every parsed function becomes a node, and
//! a token scan over each body extracts call sites, resolved
//! conservatively:
//!
//! * **path calls** — bare names and `crate::`/`self::`/`super::` paths
//!   match functions of that name (same file first); middle segments
//!   filter by module path or file name, unless that would drop every
//!   candidate (better a spurious edge than a silently missing one).
//!   `Self::`/`Type::` match impl blocks by self type. `std::`/`core::`
//!   /`alloc::` paths, and paths into modules the crate does not have,
//!   do not resolve.
//! * **method calls** — `self.name(…)` resolves against the enclosing
//!   impl's self type; any other receiver resolves only when the method
//!   name is unique in the crate *and* not a common std method name
//!   ([`STD_METHODS`]). This keeps `.lock()` and `.send()` from aliasing
//!   functions they don't call.
//!
//! Unresolved calls produce no edge; [`crate::locks`] detects the
//! primitives (`.lock()`, `.send(`) directly at the token level.

use crate::lexer::{lex, Token};
use crate::parse::{code_tokens, parse_file, FnDef, ParsedFile};

/// One source file, lexed and parsed, ready for graph passes.
pub struct Unit {
    /// Root-relative path with `/` separators.
    pub path: String,
    /// Short crate name, used in display names.
    pub crate_name: String,
    pub tokens: Vec<Token>,
    pub parsed: ParsedFile,
}

impl Unit {
    #[must_use]
    pub fn new(path: String, crate_name: String, src: &str) -> Unit {
        let tokens = lex(src);
        let parsed = parse_file(&code_tokens(&tokens));
        Unit {
            path,
            crate_name,
            tokens,
            parsed,
        }
    }

    /// The code-token view body spans index into.
    #[must_use]
    pub fn code(&self) -> Vec<&Token> {
        code_tokens(&self.tokens)
    }
}

pub type FnId = usize;

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into the unit slice the graph was built from.
    pub unit: usize,
    /// Index into that unit's `parsed.fns`.
    pub def: usize,
    /// Display name: `crate::[Type::]name`.
    pub qualified: String,
}

/// One resolved call site.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: FnId,
    pub line: u32,
    /// Code-token index of the callee name in the caller's unit.
    pub tok: usize,
    /// The callee path as written at the call site.
    pub display: String,
}

/// The call graph.
pub struct CallGraph {
    pub fns: Vec<FnNode>,
    /// Outgoing calls, indexed by caller [`FnId`].
    pub calls: Vec<Vec<Call>>,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 23] = [
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "mut", "let",
    "ref", "unsafe", "async", "await", "dyn", "where", "break", "continue", "use", "pub", "fn",
];

/// Common std method names that must never resolve to a crate
/// function by mere name uniqueness.
#[rustfmt::skip]
const STD_METHODS: [&str; 78] = [
    "new", "default", "clone", "len", "is_empty", "iter", "iter_mut", "into_iter", "get",
    "get_mut", "insert", "remove", "push", "pop", "extend", "drain", "clear", "contains",
    "contains_key", "keys", "values", "values_mut", "entry", "sort", "sort_unstable", "sort_by",
    "sort_by_key", "sort_unstable_by", "sort_unstable_by_key", "map", "and_then", "or_else",
    "unwrap", "unwrap_or", "unwrap_or_else", "unwrap_or_default", "expect", "ok", "err", "take",
    "replace", "as_ref", "as_mut", "as_str", "as_slice", "to_string", "to_vec", "to_owned",
    "into", "from", "lock", "try_lock", "send", "recv", "try_recv", "join", "spawn", "now",
    "elapsed", "next", "peek", "fmt", "eq", "cmp", "hash", "min", "max", "abs", "first", "last",
    "split", "trim", "parse", "collect", "filter", "fold", "find", "position",
];

impl CallGraph {
    /// Builds the graph over `units`.
    #[must_use]
    pub fn build(units: &[Unit]) -> CallGraph {
        let mut fns: Vec<FnNode> = Vec::new();
        for (u, unit) in units.iter().enumerate() {
            for (d, def) in unit.parsed.fns.iter().enumerate() {
                let qualified = match &def.self_ty {
                    Some(ty) => format!("{}::{}::{}", unit.crate_name, ty, def.name),
                    None => format!("{}::{}", unit.crate_name, def.name),
                };
                fns.push(FnNode {
                    unit: u,
                    def: d,
                    qualified,
                });
            }
        }
        let defs: Vec<&FnDef> = fns
            .iter()
            .map(|n| &units[n.unit].parsed.fns[n.def])
            .collect();
        let mut calls: Vec<Vec<Call>> = vec![Vec::new(); fns.len()];
        for (caller, node) in fns.iter().enumerate() {
            let unit = &units[node.unit];
            let def = defs[caller];
            let Some((s, e)) = def.body else { continue };
            let code = unit.code();
            for i in s..e {
                // Attribute calls in nested fns to the inner fn only.
                if unit
                    .parsed
                    .fn_containing(i)
                    .is_none_or(|f| !std::ptr::eq(f, def))
                {
                    continue;
                }
                let Some(site) = call_site_at(&code, i) else {
                    continue;
                };
                let in_unit = |id: &FnId| fns[*id].unit == node.unit;
                let mentions = |id: FnId, m: &str| {
                    defs[id].module.iter().any(|seg| seg == m)
                        || units[fns[id].unit]
                            .path
                            .split('/')
                            .any(|c| c == m || c.strip_suffix(".rs") == Some(m))
                };
                let named = |name: &str, ty: Option<&str>| -> Vec<FnId> {
                    (0..fns.len())
                        .filter(|&id| {
                            defs[id].name == name
                                && ty.is_none_or(|t| defs[id].self_ty.as_deref() == Some(t))
                        })
                        .collect()
                };
                let targets: Vec<FnId> = match &site {
                    CallSite::Method {
                        name,
                        self_recv: true,
                    } => def
                        .self_ty
                        .as_deref()
                        .map(|t| named(name, Some(t)))
                        .unwrap_or_default(),
                    CallSite::Method {
                        name,
                        self_recv: false,
                    } => {
                        let cands: Vec<FnId> = named(name, None)
                            .into_iter()
                            .filter(|&id| defs[id].has_self)
                            .collect();
                        if cands.len() == 1 && !STD_METHODS.contains(&name.as_str()) {
                            cands
                        } else {
                            Vec::new()
                        }
                    }
                    CallSite::Path { segs } => {
                        let (name, mids) = segs.split_last().unwrap_or((&segs[0], &[]));
                        let head = segs[0].as_str();
                        if segs.len() == 1 {
                            let all = named(name, None);
                            let here: Vec<FnId> = all.iter().copied().filter(in_unit).collect();
                            if here.is_empty() {
                                all
                            } else {
                                here
                            }
                        } else if matches!(head, "std" | "core" | "alloc") {
                            Vec::new()
                        } else if head == "Self" {
                            def.self_ty
                                .as_deref()
                                .map(|t| named(name, Some(t)))
                                .unwrap_or_default()
                        } else if head.starts_with(char::is_uppercase) {
                            named(name, Some(head)) // `Type::assoc(…)`
                        } else {
                            let crate_rel = matches!(head, "crate" | "self" | "super");
                            let mids = if crate_rel { &mids[1..] } else { mids };
                            let all = named(name, None);
                            let filtered: Vec<FnId> = all
                                .iter()
                                .copied()
                                .filter(|&id| mids.iter().all(|m| mentions(id, m)))
                                .collect();
                            // A local module path must match strictly; a
                            // crate-relative one keeps every candidate
                            // when the filter would drop them all.
                            if filtered.is_empty() && crate_rel {
                                all
                            } else {
                                filtered
                            }
                        }
                    }
                };
                calls[caller].extend(targets.into_iter().map(|callee| Call {
                    callee,
                    line: code[i].line,
                    tok: i,
                    display: site.display(),
                }));
            }
        }
        CallGraph { fns, calls }
    }
}

/// A syntactic call site: either a (possibly qualified) path call or a
/// method call.
pub enum CallSite {
    /// `a::b::name(…)` — `segs` includes the final name.
    Path { segs: Vec<String> },
    /// `recv.name(…)`; `self_recv` when the receiver chain is exactly
    /// `self`.
    Method { name: String, self_recv: bool },
}

impl CallSite {
    fn display(&self) -> String {
        match self {
            CallSite::Path { segs } => segs.join("::"),
            CallSite::Method {
                name,
                self_recv: true,
            } => format!("self.{name}"),
            CallSite::Method {
                name,
                self_recv: false,
            } => format!(".{name}"),
        }
    }
}

/// Classifies the token at `i` as a call site, if it is one.
/// Recognizes `name(`, `name::<T>(`, `path::name(`, and `.name(`.
#[must_use]
pub fn call_site_at(code: &[&Token], i: usize) -> Option<CallSite> {
    let name = code[i].ident()?;
    let punct = |k: usize, c: char| code.get(k).is_some_and(|t| t.is_punct(c));
    if NON_CALL_KEYWORDS.contains(&name) {
        return None;
    }
    // `(` must follow, possibly after a turbofish.
    let mut j = i + 1;
    if punct(j, ':') && punct(j + 1, ':') && punct(j + 2, '<') {
        j = crate::parse::skip_group(code, j + 2);
    }
    if !punct(j, '(') {
        return None;
    }
    // A definition or an attribute head (`#[cfg(…)]`) is not a call.
    let prev = |k: usize| i.checked_sub(k).and_then(|p| code.get(p));
    if prev(1).and_then(|t| t.ident()).is_some_and(|p| {
        matches!(
            p,
            "fn" | "struct" | "enum" | "union" | "trait" | "impl" | "mod"
        )
    }) {
        return None;
    }
    if prev(1).is_some_and(|t| t.is_punct('['))
        && prev(2).is_some_and(|t| t.is_punct('#') || t.is_punct('!'))
    {
        return None;
    }
    if i >= 1 && punct(i - 1, '.') {
        let self_recv =
            i >= 2 && code[i - 2].ident() == Some("self") && !(i >= 3 && punct(i - 3, '.'));
        return Some(CallSite::Method {
            name: name.to_string(),
            self_recv,
        });
    }
    // Walk the leading path backwards: `seg :: seg :: name`. A `>::name(`
    // (qualified generic path) stops the walk.
    let mut segs = vec![name.to_string()];
    let mut k = i;
    while k >= 3 && punct(k - 1, ':') && punct(k - 2, ':') {
        let Some(seg) = code[k - 3].ident() else {
            break;
        };
        segs.insert(0, seg.to_string());
        k -= 3;
    }
    Some(CallSite::Path { segs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(files: &[(&str, &str)]) -> Vec<(String, String)> {
        let units: Vec<Unit> = files
            .iter()
            .map(|(path, src)| Unit::new((*path).into(), "cluster".into(), src))
            .collect();
        let g = CallGraph::build(&units);
        let mut out = Vec::new();
        for (caller, calls) in g.calls.iter().enumerate() {
            for c in calls {
                out.push((
                    g.fns[caller].qualified.clone(),
                    g.fns[c.callee].qualified.clone(),
                ));
            }
        }
        out
    }

    fn pair(a: &str, b: &str) -> (String, String) {
        (format!("cluster::{a}"), format!("cluster::{b}"))
    }

    #[test]
    fn paths_self_methods_and_type_assoc_calls_resolve() {
        let e = edges(&[(
            "crates/cluster/src/server.rs",
            r#"
fn helper() {}
fn a() { helper(); crate::helper(); wrap::<u32>(1); std::mem::drop(1); println!("{}", 1); }
fn wrap<T>(x: T) -> T { x }
struct Server;
impl Server {
    fn with_hint(n: usize) -> Server { Server }
    fn acquire(&self) { self.issue_callbacks(); }
    fn issue_callbacks(&self) {}
}
struct Other;
impl Other {
    fn issue_callbacks(&self) {}
}
fn mk() { Server::with_hint(4); }
"#,
        )]);
        for want in [
            pair("a", "helper"),
            pair("a", "wrap"),
            pair("Server::acquire", "Server::issue_callbacks"),
            pair("mk", "Server::with_hint"),
        ] {
            assert!(e.contains(&want), "{want:?} missing from {e:?}");
        }
        assert_eq!(e.len(), 5, "{e:?}"); // `helper` resolves from both call forms
    }

    #[test]
    fn std_method_names_never_resolve_by_uniqueness() {
        // `now` exists exactly once as a crate method, but `.now(` must
        // stay unresolved — wall-clock `Instant::now` receivers would
        // otherwise alias it. A project-specific unique name does resolve.
        let e = edges(&[
            (
                "crates/cluster/src/clock.rs",
                "struct Clock; impl Clock { fn now(&self) -> u64 { 0 } fn advance_virtual(&self) {} }",
            ),
            ("crates/cluster/src/engine.rs", "fn f(c: &Clock) { c.now(); c.advance_virtual(); }"),
        ]);
        assert_eq!(e, vec![pair("f", "Clock::advance_virtual")]);
    }

    #[test]
    fn nested_fns_and_module_segments() {
        let e = edges(&[(
            "crates/cluster/src/lib.rs",
            r"
fn target() {}
fn outer() {
    fn inner() { target(); }
    inner();
}
mod wheel { pub fn push() {} }
mod heap { pub fn push() {} }
fn f() { crate::wheel::push(); }
",
        )]);
        assert!(e.contains(&pair("inner", "target")), "{e:?}");
        assert!(e.contains(&pair("outer", "inner")), "{e:?}");
        assert!(
            !e.contains(&pair("outer", "target")),
            "outer must not absorb inner's calls: {e:?}"
        );
        assert_eq!(
            e.iter().filter(|(from, _)| from == "cluster::f").count(),
            1,
            "{e:?}"
        );
    }
}
