//! Item scanner on top of [`crate::lexer`].
//!
//! This is deliberately *not* a Rust parser. One pass over the code
//! tokens keeps a stack of open braces, each tagged with what it opened
//! (`mod`, `impl`/`trait`, `fn` body, or anything else), and records
//! every `fn` definition with what the lock pass needs: its body span,
//! the `impl`/`trait` type it is a method of, its inline module path,
//! whether it has a `self` receiver, and whether it is
//! `#[cfg(test)]`/`#[test]`-only. Unbalanced braces are recorded as a
//! parse error (a test asserts the cluster crate has none).
//!
//! All spans are indices into the **code token** vector (comments
//! stripped, see [`code_tokens`]).

use crate::lexer::Token;

/// Filters a lexed stream down to code tokens (the view every pass
/// indexes into).
#[must_use]
pub fn code_tokens(tokens: &[Token]) -> Vec<&Token> {
    tokens.iter().filter(|t| t.is_code()).collect()
}

/// One function (free `fn`, impl method, or trait default method).
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// The `impl`/`trait` type this is a method of, if any.
    pub self_ty: Option<String>,
    /// Inline `mod` path within the file.
    pub module: Vec<String>,
    pub line: u32,
    /// Body span in code-token indices: `code[start..end]` is the body
    /// without its braces. `None` for bodyless trait/extern decls.
    pub body: Option<(usize, usize)>,
    /// Declared under `#[cfg(test)]` / `#[test]` — exempt from the lock
    /// pass.
    pub test_only: bool,
    /// Has a `self` receiver (method-call resolution candidates).
    pub has_self: bool,
}

/// Scan result for one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    pub fns: Vec<FnDef>,
    /// Unbalanced braces, as `line: message`.
    pub errors: Vec<String>,
}

impl ParsedFile {
    /// The function whose body span contains code-token index `i`.
    /// Inner items nested in another body resolve to the innermost fn.
    #[must_use]
    pub fn fn_containing(&self, i: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| f.body.is_some_and(|(s, e)| s <= i && i < e))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(s, e)| e - s))
    }
}

/// What an open brace belongs to.
#[derive(Debug, Clone)]
enum Scope {
    Mod(String),
    /// An `impl`/`trait` body, with its self type.
    Impl(String),
    /// A fn body, by index into `ParsedFile::fns`.
    Fn(usize),
    Other,
}

/// Scans the code-token view of one file.
#[must_use]
pub fn parse_file(code: &[&Token]) -> ParsedFile {
    let mut out = ParsedFile::default();
    // Open braces: (scope, test-only).
    let mut stack: Vec<(Scope, bool)> = Vec::new();
    // Scope and test flag waiting for the next `{` (an item header was
    // just read), and a test attribute waiting for its item.
    let mut pending: Option<(Scope, bool)> = None;
    let mut test_attr = false;
    let ident = |k: usize| code.get(k).and_then(|t| t.ident());
    let punct = |k: usize, c: char| code.get(k).is_some_and(|t| t.is_punct(c));
    let mut i = 0;
    while i < code.len() {
        let in_test = stack.last().is_some_and(|s| s.1);
        if punct(i, '#') && (punct(i + 1, '[') || punct(i + 1, '!') && punct(i + 2, '[')) {
            let open = if punct(i + 1, '[') { i + 1 } else { i + 2 };
            let close = skip_group(code, open);
            let words: Vec<&str> = code[open..close].iter().filter_map(|t| t.ident()).collect();
            test_attr |=
                words == ["test"] || words.first() == Some(&"cfg") && words.contains(&"test");
            i = close;
            continue;
        }
        if punct(i, '{') {
            let scope = pending.take().unwrap_or((Scope::Other, in_test));
            stack.push(scope);
        } else if punct(i, '}') {
            match stack.pop() {
                Some((Scope::Fn(f), _)) => {
                    if let Some(body) = out.fns[f].body.as_mut() {
                        body.1 = i;
                    }
                }
                Some(_) => {}
                None => out
                    .errors
                    .push(format!("{}: unbalanced `}}`", code[i].line)),
            }
        } else if punct(i, ';') {
            pending = None;
            test_attr = false;
        }
        let item = ident(i).is_some_and(|w| ITEM_KEYWORDS.contains(&w));
        let test = in_test || test_attr && item;
        test_attr &= !item;
        match ident(i) {
            Some("mod") if ident(i + 1).is_some() && punct(i + 2, '{') => {
                pending = Some((
                    Scope::Mod(code[i + 1].ident().unwrap_or_default().into()),
                    test,
                ));
            }
            Some("impl" | "trait") if !punct(i.wrapping_sub(1), '<') && !punct(i + 1, '(') => {
                let ty = self_type(code, i);
                pending = Some((Scope::Impl(ty), test));
            }
            Some("fn") if ident(i + 1).is_some() => {
                let self_ty = match stack.last() {
                    Some((Scope::Impl(ty), _)) => Some(ty.clone()),
                    _ => None,
                };
                let module = stack
                    .iter()
                    .filter_map(|(s, _)| match s {
                        Scope::Mod(m) => Some(m.clone()),
                        _ => None,
                    })
                    .collect();
                let (has_self, header_end) = signature(code, i + 2);
                let has_body = punct(header_end, '{');
                out.fns.push(FnDef {
                    name: code[i + 1].ident().unwrap_or_default().into(),
                    self_ty,
                    module,
                    line: code[i].line,
                    body: has_body.then_some((header_end + 1, header_end + 1)),
                    test_only: test,
                    has_self,
                });
                if has_body {
                    pending = Some((Scope::Fn(out.fns.len() - 1), test));
                }
                i = header_end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    if !stack.is_empty() {
        out.errors
            .push(format!("end of file: {} unclosed `{{`", stack.len()));
    }
    out
}

const ITEM_KEYWORDS: [&str; 11] = [
    "fn", "mod", "impl", "trait", "struct", "enum", "union", "const", "static", "type", "use",
];

/// One past the `]`/`)`/`}`/`>` closing the group opening at `open`
/// (`->` arrows inside `<…>` do not close it).
pub(crate) fn skip_group(code: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < code.len() {
        let t = code[k];
        if t.is_punct('-') && code.get(k + 1).is_some_and(|n| n.is_punct('>')) {
            k += 2;
            continue;
        }
        if t.is_punct('[') || t.is_punct('(') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(']') || t.is_punct(')') || t.is_punct('}') || t.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
        k += 1;
    }
    k
}

/// The self type of the `impl`/`trait` header at `kw`: for a trait its
/// name; for an impl the last path segment at angle-depth 0 before the
/// body, taken after `for` when present, frozen at `where`.
fn self_type(code: &[&Token], kw: usize) -> String {
    if code[kw].ident() == Some("trait") {
        return code
            .get(kw + 1)
            .and_then(|t| t.ident())
            .unwrap_or("?trait")
            .into();
    }
    let mut ty = None;
    let mut in_where = false;
    let mut k = kw + 1;
    while k < code.len() && !code[k].is_punct('{') && !code[k].is_punct(';') {
        if code[k].is_punct('<') || code[k].is_punct('(') {
            k = skip_group(code, k);
            continue;
        }
        match code[k].ident() {
            Some("for") => (ty, in_where) = (None, false),
            Some("where") => in_where = true,
            Some(seg) if !in_where => ty = Some(seg),
            _ => {}
        }
        k += 1;
    }
    ty.unwrap_or("?impl").into()
}

/// Reads a fn signature from just after its name: returns whether the
/// first parameter is `self`, and the index of the body's `{` or the
/// terminating `;`.
fn signature(code: &[&Token], mut k: usize) -> (bool, usize) {
    if code.get(k).is_some_and(|t| t.is_punct('<')) {
        k = skip_group(code, k);
    }
    let params_end = skip_group(code, k);
    let has_self = code[k.min(params_end)..params_end]
        .iter()
        .take_while(|t| !t.is_punct(','))
        .any(|t| t.ident() == Some("self"));
    k = params_end;
    while k < code.len() && !code[k].is_punct('{') && !code[k].is_punct(';') {
        if code[k].is_punct('<') || code[k].is_punct('(') || code[k].is_punct('[') {
            k = skip_group(code, k);
        } else {
            k += 1;
        }
    }
    (has_self, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> ParsedFile {
        let toks = lex(src);
        let code = code_tokens(&toks);
        parse_file(&code)
    }

    #[test]
    fn free_fns_impls_and_traits() {
        let p = parse(
            r"
pub fn alpha(x: u32) -> u32 { x + 1 }
struct S { v: Vec<u32> }
impl S {
    pub(crate) fn method(&self) -> usize { self.v.len() }
    fn assoc() -> S { S { v: Vec::new() } }
}
impl std::fmt::Display for S {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }
}
trait T {
    fn required(&self);
    fn defaulted(&self) -> u32 { 7 }
}
pub const fn silent<T: Into<u64>>(x: T) -> u64 where T: Copy { x.into() }
fn closure_bound<F: Fn(u32) -> u32>(f: F, g: fn(u32) -> u32) -> u32 { f(1) }
const TABLE: [u8; 4] = [1, 2, 3, 4];
macro_rules! mk { () => {} }
",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let names: Vec<(String, Option<String>, bool)> = p
            .fns
            .iter()
            .map(|f| (f.name.clone(), f.self_ty.clone(), f.has_self))
            .collect();
        assert_eq!(
            names,
            vec![
                ("alpha".into(), None, false),
                ("method".into(), Some("S".into()), true),
                ("assoc".into(), Some("S".into()), false),
                ("fmt".into(), Some("S".into()), true),
                ("required".into(), Some("T".into()), true),
                ("defaulted".into(), Some("T".into()), true),
                ("silent".into(), None, false),
                ("closure_bound".into(), None, false),
            ]
        );
        // `required` has no body; `defaulted` does.
        assert!(p.fns[4].body.is_none());
        assert!(p.fns[5].body.is_some());
    }

    #[test]
    fn modules_nest_and_cfg_test_marks_fns() {
        let p = parse(
            r"
mod outer {
    pub fn in_outer() {}
    mod inner {
        pub fn deep() {}
    }
}
#[cfg(test)]
mod tests {
    #[test]
    fn a_test() { helper(); }
    fn helper() {}
}
fn top() {}
",
        );
        assert!(p.errors.is_empty(), "{:?}", p.errors);
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("in_outer").module, vec!["outer"]);
        assert_eq!(by_name("deep").module, vec!["outer", "inner"]);
        assert!(by_name("a_test").test_only);
        assert!(by_name("helper").test_only, "cfg(test) mod marks all fns");
        assert!(!by_name("top").test_only);
    }

    #[test]
    fn bodies_span_the_right_tokens() {
        let src = "fn f() { inner_call(); } fn g() {}";
        let toks = lex(src);
        let code = code_tokens(&toks);
        let p = parse_file(&code);
        let (s, e) = p.fns[0].body.unwrap();
        let body_idents: Vec<&str> = code[s..e].iter().filter_map(|t| t.ident()).collect();
        assert_eq!(body_idents, vec!["inner_call"]);
        assert_eq!(p.fn_containing(s).unwrap().name, "f");
        let (gs, ge) = p.fns[1].body.unwrap();
        assert_eq!(gs, ge, "empty body is an empty span");
    }

    #[test]
    fn unbalanced_braces_are_errors() {
        assert!(!parse("fn ok() {} }").errors.is_empty());
        assert!(!parse("fn open() {").errors.is_empty());
    }
}
