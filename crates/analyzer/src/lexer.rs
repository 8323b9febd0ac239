//! A minimal Rust lexer: just enough token structure for the rule
//! engine, with the two properties that matter here:
//!
//! * **Comments and string literals are classified, never matched as
//!   code.** `// thread_rng` in a comment or `"Instant::now"` in a
//!   string must not trip a rule; conversely, allow-annotations live in
//!   line comments and must be found there. Handled: line comments,
//!   nested block comments, string/char/byte-string literals, raw
//!   strings (`r"…"`, `r#"…"#`, any number of `#`s), and the
//!   lifetime-vs-char-literal ambiguity.
//! * **No panics on arbitrary input.** The scanner walks raw bytes
//!   with bounds-checked access only; unterminated literals, stray
//!   continuation bytes and malformed escapes all degrade to tokens,
//!   never to a crash (`tests/lexer_never_panics.rs` proves this with
//!   arbitrary byte soup).
//!
//! The lexer is intentionally lossy about things the rules never look
//! at (numeric suffixes, operator composition): a token is a kind, a
//! byte range and a 1-based line number, nothing more.

/// What a token is, at the granularity the rule engine needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// nplus:allow(VIS001): the type of the public field `Token::kind`
pub enum TokKind {
    /// An identifier or keyword (`for`, `unsafe`, `HashMap`, …).
    Ident,
    /// A numeric literal (loosely scanned; suffixes included).
    Number,
    /// Any string-like literal: `"…"`, `r#"…"#`, `b"…"`, `c"…"`, `'x'`.
    Literal,
    /// A lifetime (`'a`) — distinct from a char literal.
    Lifetime,
    /// A `// …` comment, text running to end of line.
    LineComment,
    /// A `/* … */` comment (nesting honored).
    BlockComment,
    /// A single punctuation byte (`.`, `!`, `{`, `:`, …).
    Punct(u8),
}

/// One lexed token: kind, byte range into the source, 1-based line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// nplus:allow(VIS001): the element type `lex` returns
pub struct Token {
    /// The token's classification.
    pub kind: TokKind,
    /// Byte offset of the token's first byte.
    pub start: usize,
    /// Byte offset one past the token's last byte.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// The token's text within `src`; empty if the range is somehow
    /// out of bounds or splits a UTF-8 scalar (never panics).
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// Lexes `src` into a token stream. Total: every byte is consumed,
/// every input produces some token list, and no input panics.
// nplus:allow(VIS001): the never-panics property suite tests/lexer_never_panics.rs fuzzes it
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;
    while i < b.len() {
        let c = b[i];
        let start = i;
        let start_line = line;
        match c {
            b'\n' => {
                line = line.saturating_add(1);
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                toks.push(Token {
                    kind: TokKind::LineComment,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                i += 2;
                let mut depth = 1usize;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line = line.saturating_add(1);
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                toks.push(Token {
                    kind: TokKind::BlockComment,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'"' => {
                i = scan_string(b, i, &mut line);
                toks.push(Token {
                    kind: TokKind::Literal,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            b'\'' => {
                // Lifetime or char literal. A lifetime is `'` + ident
                // start with no closing quote right after one scalar.
                let (end, is_lifetime) = scan_quote(b, i, &mut line);
                i = end;
                toks.push(Token {
                    kind: if is_lifetime {
                        TokKind::Lifetime
                    } else {
                        TokKind::Literal
                    },
                    start,
                    end: i,
                    line: start_line,
                });
            }
            c if is_ident_start(c) => {
                // Raw strings and byte/C strings look like an ident
                // prefix glued to a quote: r", r#", br", b", c", etc.
                if let Some(end) = scan_raw_or_prefixed_string(b, i, &mut line) {
                    i = end;
                    toks.push(Token {
                        kind: TokKind::Literal,
                        start,
                        end: i,
                        line: start_line,
                    });
                } else {
                    while i < b.len() && is_ident_continue(b[i]) {
                        i += 1;
                    }
                    toks.push(Token {
                        kind: TokKind::Ident,
                        start,
                        end: i,
                        line: start_line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                // Loose number scan: digits, `_`, alphanumerics
                // (suffixes, hex), and `.` when followed by a digit.
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d == b'_' || d.is_ascii_alphanumeric() {
                        i += 1;
                    } else if d == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                        i += 2;
                    } else {
                        break;
                    }
                }
                toks.push(Token {
                    kind: TokKind::Number,
                    start,
                    end: i,
                    line: start_line,
                });
            }
            c if c.is_ascii() => {
                i += 1;
                toks.push(Token {
                    kind: TokKind::Punct(c),
                    start,
                    end: i,
                    line: start_line,
                });
            }
            _ => {
                // Non-ASCII outside a literal (doc prose in an odd
                // place, exotic idents): consume the byte and move on.
                i += 1;
            }
        }
    }
    toks
}

fn is_ident_start(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphabetic()
}

fn is_ident_continue(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Scans a `"…"` string starting at the opening quote; returns the
/// index one past the closing quote (or end of input if unterminated).
fn scan_string(b: &[u8], mut i: usize, line: &mut u32) -> usize {
    i += 1; // opening quote
    while i < b.len() {
        match b[i] {
            // An escaped newline (`\` line continuation) still ends a line.
            b'\\' if b.get(i + 1) == Some(&b'\n') => {
                *line = line.saturating_add(1);
                i += 2;
            }
            b'\\' => i = (i + 2).min(b.len()),
            b'"' => return i + 1,
            b'\n' => {
                *line = line.saturating_add(1);
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Scans from a `'`: distinguishes lifetimes from char literals and
/// returns `(end_index, is_lifetime)`.
fn scan_quote(b: &[u8], start: usize, line: &mut u32) -> (usize, bool) {
    let mut i = start + 1;
    match b.get(i) {
        Some(b'\\') => {
            // Escaped char literal: skip escape, then run to the quote.
            i = (i + 2).min(b.len());
            while i < b.len() && b[i] != b'\'' {
                if b[i] == b'\n' {
                    *line = line.saturating_add(1);
                }
                i += 1;
            }
            ((i + 1).min(b.len()), false)
        }
        Some(&c) if is_ident_start(c) => {
            // `'a` could be a lifetime or the char 'a'. Look one ahead:
            // a closing quote makes it a char literal.
            if b.get(i + 1) == Some(&b'\'') {
                (i + 2, false)
            } else {
                while i < b.len() && is_ident_continue(b[i]) {
                    i += 1;
                }
                (i, true)
            }
        }
        Some(b'\'') => (i + 1, false), // the degenerate `''`
        Some(_) => {
            // Some other single scalar (possibly multi-byte UTF-8).
            while i < b.len() && b[i] != b'\'' && b[i] != b'\n' {
                i += 1;
            }
            ((i + 1).min(b.len()), false)
        }
        None => (i, false),
    }
}

/// If the ident starting at `i` is really a raw/byte/C string prefix
/// (`r`, `r#…`, `b`, `br`, `c`, `cr` glued to a quote), scans the whole
/// literal and returns its end. `None` means "a plain identifier".
fn scan_raw_or_prefixed_string(b: &[u8], i: usize, line: &mut u32) -> Option<usize> {
    let mut j = i;
    // Accept at most two prefix letters from {r, b, c} (br, cr, rb…
    // only the real combinations matter; extra leniency is harmless).
    let mut letters = 0;
    let mut raw = false;
    while j < b.len() && letters < 2 {
        match b[j] {
            b'r' => {
                raw = true;
                letters += 1;
                j += 1;
            }
            b'b' | b'c' => {
                letters += 1;
                j += 1;
            }
            _ => break,
        }
    }
    if letters == 0 {
        return None;
    }
    if raw {
        // r, optionally followed by #s, must reach a quote.
        let mut hashes = 0usize;
        while b.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if b.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        // Scan to `"` + hashes `#`s. No escapes in raw strings.
        loop {
            if j >= b.len() {
                return Some(j);
            }
            if b[j] == b'\n' {
                *line = line.saturating_add(1);
                j += 1;
                continue;
            }
            if b[j] == b'"' {
                let mut k = 0usize;
                while k < hashes && b.get(j + 1 + k) == Some(&b'#') {
                    k += 1;
                }
                if k == hashes {
                    return Some(j + 1 + hashes);
                }
            }
            j += 1;
        }
    }
    // b"…" / c"…": cooked string with escapes.
    if b.get(j) == Some(&b'"') {
        return Some(scan_string(b, j, line));
    }
    // b'x' byte char literal.
    if b.get(j) == Some(&b'\'') {
        let (end, _) = scan_quote(b, j, line);
        return Some(end);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ks = kinds("let x = a.keys();");
        assert_eq!(ks[0], (TokKind::Ident, "let".to_string()));
        assert_eq!(ks[1], (TokKind::Ident, "x".to_string()));
        assert_eq!(ks[2], (TokKind::Punct(b'='), "=".to_string()));
        assert!(ks.iter().any(|(k, t)| *k == TokKind::Ident && t == "keys"));
    }

    #[test]
    fn comments_and_strings_are_not_code() {
        let src = r#"// thread_rng in a comment
let s = "Instant::now inside a string";
/* and /* nested */ block comments too */"#;
        let toks = lex(src);
        let code_idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(code_idents, ["let", "s"]);
        assert_eq!(
            toks.iter()
                .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
                .count(),
            2
        );
    }

    #[test]
    fn raw_strings_swallow_their_payload() {
        let src = r###"let x = r#"unwrap() panic!()"#; call();"###;
        let toks = lex(src);
        let idents: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text(src))
            .collect();
        assert_eq!(idents, ["let", "x", "call"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let toks = lex(src);
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokKind::Literal && t.text(src).starts_with('\''))
                .count(),
            2
        );
    }

    #[test]
    fn line_numbers_are_1_based_and_advance() {
        let src = "a\nb\n\nc \"x \\\n y\" d";
        let toks = lex(src);
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, [1, 2, 4, 4, 5]);
    }

    #[test]
    fn unterminated_everything_still_lexes() {
        for src in [
            "\"never closed",
            "r#\"never closed",
            "/* never closed",
            "'",
            "b'",
            "let x = \\",
            "r###",
        ] {
            let _ = lex(src); // must not panic
        }
    }
}
