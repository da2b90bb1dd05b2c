//! A minimal hand-rolled Rust lexer — just enough structure for the
//! lock-order pass in [`crate::locks`].
//!
//! The lexer's only job is to separate *code* from *non-code* so the
//! pass never fires on a `.lock()` inside a doc comment or a `.send(`
//! inside a string literal, and to keep accurate line numbers for
//! diagnostics. It handles the constructs that trip naive
//! regex scanners: nested block comments, raw strings with arbitrary
//! `#` counts, byte strings, and the char-literal/lifetime ambiguity
//! (`'a'` vs `'a`). It does **not** build an AST.

/// One lexical token with the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    pub kind: TokKind,
    pub line: u32,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`unsafe`, `for`, `HashMap`, …).
    Ident(String),
    /// Single punctuation character (`.`, `:`, `#`, `(`, …).
    Punct(char),
    /// `// …` comment (includes `///` and `//!` doc comments).
    /// `trailing` is true when code precedes it on the same line.
    LineComment { text: String, trailing: bool },
    /// `/* … */` comment, possibly nested and multi-line.
    BlockComment { text: String },
    /// String literal of any flavour; contents are irrelevant to rules.
    Str,
    /// Character or byte literal.
    CharLit,
    /// Lifetime such as `'a` (also label targets like `'outer`).
    Lifetime,
    /// Numeric literal.
    Num,
}

impl Token {
    /// True for tokens that represent executable source rather than
    /// comments (used to decide whether a line "has code").
    #[must_use]
    pub fn is_code(&self) -> bool {
        !matches!(
            self.kind,
            TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        )
    }

    /// The identifier text, if this is an ident token.
    #[must_use]
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True if this token is the punctuation character `c`.
    #[must_use]
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// Lexes `src` into a token stream. Never fails: unterminated literals
/// simply consume to end-of-file, which is good enough for a linter
/// (rustc will reject the file anyway).
#[must_use]
pub fn lex(src: &str) -> Vec<Token> {
    let s: Vec<char> = src.chars().collect();
    let at = |k: usize| s.get(k).copied();
    let ident_char = |c: Option<char>| c.is_some_and(|c| c == '_' || c.is_alphanumeric());
    let mut out = Vec::new();
    let (mut i, mut line, mut code_on_line) = (0usize, 1u32, false);
    while let Some(c) = at(i) {
        let start = i;
        let kind = if c.is_whitespace() {
            i += 1;
            None
        } else if c == '/' && at(i + 1) == Some('/') {
            while at(i).is_some_and(|c| c != '\n') {
                i += 1;
            }
            let text = s[start..i].iter().collect();
            Some(TokKind::LineComment {
                text,
                trailing: code_on_line,
            })
        } else if c == '/' && at(i + 1) == Some('*') {
            let mut depth = 0u32;
            while let Some(c) = at(i) {
                match (c, at(i + 1)) {
                    ('/', Some('*')) => (depth, i) = (depth + 1, i + 2),
                    ('*', Some('/')) => (depth, i) = (depth - 1, i + 2),
                    _ => i += 1,
                }
                if depth == 0 {
                    break;
                }
            }
            Some(TokKind::BlockComment {
                text: s[start..i].iter().collect(),
            })
        } else if let Some((quote, raw, hashes)) = string_start(&s, i) {
            // `"…"`, `b"…"`, `c"…"` honour escapes; raw strings close at a
            // quote followed by as many `#`s as opened them.
            i = quote + 1;
            while let Some(c) = at(i) {
                i += 1;
                if c == '\\' && !raw {
                    i += 1;
                } else if c == '"' && (i..i + hashes).all(|k| at(k) == Some('#')) {
                    i += hashes;
                    break;
                }
            }
            Some(TokKind::Str)
        } else if c == '\'' || c == 'b' && at(i + 1) == Some('\'') {
            // A lifetime (`'a`, `'outer`) or a char/byte literal (`'a'`,
            // `'\n'`, `b'('`): `'X` followed by another ident char and no
            // closing quote is a lifetime.
            i += if c == 'b' { 2 } else { 1 };
            if ident_char(at(i)) && at(i + 1) != Some('\'') {
                while ident_char(at(i)) {
                    i += 1;
                }
                Some(TokKind::Lifetime)
            } else {
                i += if at(i) == Some('\\') { 2 } else { 1 };
                while at(i).is_some_and(|c| c != '\'') {
                    i += 1;
                }
                i += 1;
                Some(TokKind::CharLit)
            }
        } else if c == '_' || c.is_alphabetic() {
            while ident_char(at(i)) {
                i += 1;
            }
            Some(TokKind::Ident(s[start..i].iter().collect()))
        } else if c.is_ascii_digit() {
            // `1.5` continues the number; `1..n` and `v.iter()` do not.
            while ident_char(at(i))
                || at(i) == Some('.') && at(i + 1).is_some_and(|d| d.is_ascii_digit())
            {
                i += 1;
            }
            Some(TokKind::Num)
        } else {
            i += 1;
            Some(TokKind::Punct(c))
        };
        if let Some(kind) = kind {
            let token = Token { kind, line };
            code_on_line |= token.is_code();
            out.push(token);
        }
        for &c in &s[start..i.min(s.len())] {
            if c == '\n' {
                line += 1;
                code_on_line = false;
            }
        }
    }
    out
}

/// If a string literal starts at `i` — `"`, or a `b`/`c`/`r`/`br`/`cr`
/// prefix with `#`s after an `r` — returns the index of its opening
/// quote, whether it is raw, and its `#` count. `r#ident` (a raw
/// identifier) is not a literal.
fn string_start(s: &[char], i: usize) -> Option<(usize, bool, usize)> {
    let mut k = i;
    if matches!(s.get(k), Some('b' | 'c')) {
        k += 1;
    }
    let raw = s.get(k) == Some(&'r');
    if raw {
        k += 1;
    }
    let mut hashes = 0;
    while raw && s.get(k) == Some(&'#') {
        (k, hashes) = (k + 1, hashes + 1);
    }
    (s.get(k) == Some(&'"')).then_some((k, raw, hashes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .into_iter()
            .filter_map(|t| t.ident().map(String::from))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_code() {
        let src = r##"
// Instant::now in a comment
/* HashMap.iter() in a block /* nested */ still comment */
let s = "Instant::now()";
let r = r#"SystemTime::now"#;
let c = cr#"SystemTime::now with "quotes""#;
let e = b"escaped \" quote";
let actual = foo();
"##;
        let ids = idents(src);
        for hidden in ["Instant", "SystemTime", "HashMap", "quotes", "quote"] {
            assert!(!ids.contains(&hidden.to_string()), "{hidden} leaked");
        }
        assert!(ids.contains(&"actual".to_string()));
        assert!(ids.contains(&"foo".to_string()));
        assert_eq!(
            lex(src).iter().filter(|t| t.kind == TokKind::Str).count(),
            4
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = lex(r"fn f<'a>(x: &'a str) -> char { 'x' } let c = '\n'; let after = 1;");
        let lifetimes = toks.iter().filter(|t| t.kind == TokKind::Lifetime).count();
        let chars = toks.iter().filter(|t| t.kind == TokKind::CharLit).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
        assert!(toks.iter().any(|t| t.ident() == Some("after")));
    }

    #[test]
    fn trailing_vs_standalone_comments() {
        let src = "let x = 1; // trailing\n// standalone\nlet y = 2;";
        let toks = lex(src);
        let flags: Vec<bool> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::LineComment { trailing, .. } => Some(*trailing),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec![true, false]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"x\ny\nz\";\nlet b = 1;";
        let toks = lex(src);
        let b = toks.iter().find(|t| t.ident() == Some("b")).expect("b");
        assert_eq!(b.line, 4);
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_method_calls() {
        let ids = idents("for i in 0..10 { v.iter(); } let f = 1.5e3;");
        assert!(ids.contains(&"iter".to_string()));
        let toks = lex("1.5 2");
        let nums = toks.iter().filter(|t| t.kind == TokKind::Num).count();
        assert_eq!(nums, 2);
    }
}
