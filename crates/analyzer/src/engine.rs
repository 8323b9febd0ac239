//! The per-file rule engine: lex, carve out `#[cfg(test)]` regions,
//! collect `nplus:allow` annotations, then run the active rules over
//! the token stream.
//!
//! Everything here is a *token-pattern* heuristic, not a type check.
//! The patterns are documented per rule below; where a heuristic can
//! miss (a map passed in by reference and iterated without a local
//! declaration, say) the runtime determinism suites remain the
//! backstop — the linter exists to catch the common shapes at review
//! time, deterministically and in milliseconds.

use crate::lexer::{lex, TokKind, Token};
use crate::report::Diagnostic;
use crate::rules::{RuleId, RuleSet};

/// How a file participates in its crate, which decides rule scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FileKind {
    /// The crate root (`src/lib.rs`): library code + header check.
    LibRoot,
    /// Library code under `src/` (not `src/bin/`).
    Lib,
    /// A binary target (`src/bin/**`, `src/main.rs`): prints and
    /// `process::exit` are its job.
    Bin,
    /// Test-like targets: `tests/`, `benches/`, `examples/`.
    Test,
}

/// One parsed `// nplus:allow(RULE): reason` annotation.
#[derive(Debug, Clone)]
pub(crate) struct Allow {
    rule: RuleId,
    /// The comment's own line; the suppression covers this line and
    /// the next (so the annotation can trail the finding or sit just
    /// above it).
    line: u32,
}

impl Allow {
    /// Whether this annotation suppresses `rule` at `line`.
    pub(crate) fn covers(&self, rule: RuleId, line: u32) -> bool {
        self.rule == rule && (self.line == line || self.line + 1 == line)
    }
}

/// Analyzes one file's source text under the given rules. `path` is
/// only used to label diagnostics. Never panics, whatever the input.
pub(crate) fn analyze_source(
    path: &str,
    src: &str,
    kind: FileKind,
    rules: RuleSet,
) -> Vec<Diagnostic> {
    let toks = lex(src);
    let test_mask = cfg_test_mask(&toks, src);
    let mut diags = Vec::new();

    // --- The suppression layer -----------------------------------
    let allows = parse_allows(path, &toks, src, &mut diags);

    // --- Crate-root header (HYG001) -------------------------------
    if rules.crate_root_header && !has_forbid_unsafe_header(&toks, src) {
        diags.push(Diagnostic::new(
            RuleId::Hyg001,
            path,
            1,
            "crate root is missing the canonical `#![forbid(unsafe_code)]` header".to_string(),
        ));
    }

    // --- Token-pattern rules --------------------------------------
    let map_names = if rules.map_iteration {
        collect_map_typed_names(&toks, src)
    } else {
        Vec::new()
    };
    // Work on code tokens only (comments carry no findings except the
    // allow layer above).
    let code_toks: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();

    let text = |t: &Token| t.text(src);
    let is_punct = |t: &Token, c: u8| t.kind == TokKind::Punct(c);
    let is_ident = |t: &Token, s: &str| t.kind == TokKind::Ident && text(t) == s;

    for (i, t) in code_toks.iter().enumerate() {
        let in_test = test_mask.iter().any(|&(s, e)| t.start >= s && t.start < e);
        let next = code_toks.get(i + 1).copied();
        let next2 = code_toks.get(i + 2).copied();
        let prev = i.checked_sub(1).and_then(|j| code_toks.get(j)).copied();
        let prev2 = i.checked_sub(2).and_then(|j| code_toks.get(j)).copied();

        // HYG002 — `unsafe` has no test exemption.
        if rules.no_unsafe && is_ident(t, "unsafe") {
            diags.push(Diagnostic::new(
                RuleId::Hyg002,
                path,
                t.line,
                "`unsafe` outside the whitelisted counting allocator".to_string(),
            ));
        }

        if in_test {
            continue;
        }

        // DET001 — wall clock.
        if rules.wall_clock_and_entropy && kind != FileKind::Bin && kind != FileKind::Test {
            if is_ident(t, "Instant")
                && next.is_some_and(|n| is_punct(n, b':'))
                && code_toks.get(i + 3).is_some_and(|n| is_ident(n, "now"))
            {
                diags.push(Diagnostic::new(
                    RuleId::Det001,
                    path,
                    t.line,
                    "`Instant::now()` reads the wall clock".to_string(),
                ));
            }
            if is_ident(t, "SystemTime") {
                diags.push(Diagnostic::new(
                    RuleId::Det001,
                    path,
                    t.line,
                    "`SystemTime` reads the wall clock".to_string(),
                ));
            }
        }

        // DET002 — entropy randomness.
        if rules.wall_clock_and_entropy
            && kind != FileKind::Bin
            && kind != FileKind::Test
            && (is_ident(t, "thread_rng") || is_ident(t, "from_entropy") || is_ident(t, "OsRng"))
        {
            diags.push(Diagnostic::new(
                RuleId::Det002,
                path,
                t.line,
                format!("`{}` draws operating-system entropy", text(t)),
            ));
        }

        // DET003 — unordered map iteration.
        if rules.map_iteration && !map_names.is_empty() {
            // `name.iter()` / `.keys()` / `.values()` / `.into_iter()`
            // / `.drain()` where `name` is a HashMap/HashSet binding.
            if t.kind == TokKind::Ident
                && matches!(
                    text(t),
                    "iter" | "iter_mut" | "keys" | "values" | "values_mut" | "into_iter" | "drain"
                )
                && next.is_some_and(|n| is_punct(n, b'('))
                && prev.is_some_and(|p| is_punct(p, b'.'))
                && prev2.is_some_and(|p| {
                    p.kind == TokKind::Ident && map_names.iter().any(|m| m == text(p))
                })
            {
                let owner = prev2.map(text).unwrap_or("?");
                diags.push(Diagnostic::new(
                    RuleId::Det003,
                    path,
                    t.line,
                    format!(
                        "`{owner}.{}()` iterates a HashMap/HashSet in arbitrary order",
                        text(t)
                    ),
                ));
            }
            // `for pat in &name` / `for pat in name {`.
            if is_ident(t, "in") {
                let mut j = i + 1;
                while code_toks
                    .get(j)
                    .is_some_and(|n| is_punct(n, b'&') || is_ident(n, "mut"))
                {
                    j += 1;
                }
                if let (Some(name_tok), Some(open)) = (code_toks.get(j), code_toks.get(j + 1)) {
                    if name_tok.kind == TokKind::Ident
                        && map_names.iter().any(|m| m == text(name_tok))
                        && is_punct(open, b'{')
                    {
                        diags.push(Diagnostic::new(
                            RuleId::Det003,
                            path,
                            name_tok.line,
                            format!(
                                "`for … in {}` iterates a HashMap/HashSet in arbitrary order",
                                text(name_tok)
                            ),
                        ));
                    }
                }
            }
        }

        // SRV001 — unwrap/expect.
        if rules.serving_surface
            && kind != FileKind::Bin
            && kind != FileKind::Test
            && t.kind == TokKind::Ident
            && matches!(text(t), "unwrap" | "expect")
            && prev.is_some_and(|p| is_punct(p, b'.'))
            && next.is_some_and(|n| is_punct(n, b'('))
        {
            diags.push(Diagnostic::new(
                RuleId::Srv001,
                path,
                t.line,
                format!("`.{}()` can panic on the serving path", text(t)),
            ));
        }

        // SRV002 — panicking macros.
        if rules.serving_surface
            && kind != FileKind::Bin
            && kind != FileKind::Test
            && t.kind == TokKind::Ident
            && matches!(text(t), "panic" | "unreachable" | "todo" | "unimplemented")
            && next.is_some_and(|n| is_punct(n, b'!'))
            && next2.is_some_and(|n| is_punct(n, b'(') || is_punct(n, b'[') || is_punct(n, b'{'))
        {
            diags.push(Diagnostic::new(
                RuleId::Srv002,
                path,
                t.line,
                format!("`{}!` panics on the serving path", text(t)),
            ));
        }

        // SRV003 — process::exit.
        if rules.serving_surface
            && kind != FileKind::Bin
            && kind != FileKind::Test
            && is_ident(t, "exit")
            && prev.is_some_and(|p| is_punct(p, b':'))
            && code_toks
                .get(i.wrapping_sub(3))
                .is_some_and(|p| is_ident(p, "process"))
        {
            diags.push(Diagnostic::new(
                RuleId::Srv003,
                path,
                t.line,
                "`process::exit` tears down the whole server".to_string(),
            ));
        }

        // HYG003 — stdout prints in library code.
        if rules.no_print
            && kind != FileKind::Bin
            && kind != FileKind::Test
            && t.kind == TokKind::Ident
            && matches!(text(t), "println" | "print" | "dbg")
            && next.is_some_and(|n| is_punct(n, b'!'))
        {
            diags.push(Diagnostic::new(
                RuleId::Hyg003,
                path,
                t.line,
                format!("`{}!` in library code pollutes stdout", text(t)),
            ));
        }
    }

    // --- Apply suppressions ---------------------------------------
    let mut out = Vec::new();
    for d in diags {
        let suppressed = d.rule.suppressible() && allows.iter().any(|a| a.covers(d.rule, d.line));
        if !suppressed {
            out.push(d);
        }
    }
    out.sort_by_key(|d| (d.line, d.rule));
    out
}

/// Parses every `// nplus:allow(RULE): reason` annotation in a file.
/// Malformed annotations become `ALW001`/`ALW002` findings in `diags`
/// and suppress nothing.
pub(crate) fn parse_allows(
    path: &str,
    toks: &[Token],
    src: &str,
    diags: &mut Vec<Diagnostic>,
) -> Vec<Allow> {
    let mut allows: Vec<Allow> = Vec::new();
    for t in toks.iter().filter(|t| t.kind == TokKind::LineComment) {
        let body = t.text(src).trim_start_matches('/').trim();
        let Some(rest) = body.strip_prefix("nplus:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(Diagnostic::new(
                RuleId::Alw001,
                path,
                t.line,
                "unterminated nplus:allow annotation".to_string(),
            ));
            continue;
        };
        let code = rest[..close].trim();
        let tail = rest[close + 1..].trim_start();
        let Some(rule) = RuleId::from_code(code) else {
            diags.push(Diagnostic::new(
                RuleId::Alw002,
                path,
                t.line,
                format!("nplus:allow names unknown rule {code:?}"),
            ));
            continue;
        };
        let reason = tail.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            diags.push(Diagnostic::new(
                RuleId::Alw001,
                path,
                t.line,
                format!("nplus:allow({code}) needs a reason: `// nplus:allow({code}): <why>`"),
            ));
            continue;
        }
        if !rule.suppressible() {
            diags.push(Diagnostic::new(
                RuleId::Alw002,
                path,
                t.line,
                format!("rule {code} cannot be suppressed"),
            ));
            continue;
        }
        allows.push(Allow { rule, line: t.line });
    }
    allows
}

/// Byte ranges covered by `#[cfg(test)]`- or `#[test]`-attributed
/// items (the attribute through the item's closing `}` or `;`).
pub(crate) fn cfg_test_mask(toks: &[Token], src: &str) -> Vec<(usize, usize)> {
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut mask = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].kind.eq(&TokKind::Punct(b'#')) {
            i += 1;
            continue;
        }
        // Attribute: `#[ … ]` (inner `#![…]` never marks tests).
        let Some(open) = code.get(i + 1) else { break };
        if open.kind != TokKind::Punct(b'[') {
            i += 1;
            continue;
        }
        // Scan the attribute body to its matching `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut is_test_attr = false;
        let mut saw_cfg = false;
        let mut saw_not = false;
        let mut first_ident: Option<&str> = None;
        while j < code.len() {
            match code[j].kind {
                TokKind::Punct(b'[') => depth += 1,
                TokKind::Punct(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokKind::Ident => {
                    let t = code[j].text(src);
                    if first_ident.is_none() {
                        first_ident = Some(t);
                    }
                    if t == "cfg" {
                        saw_cfg = true;
                    }
                    if t == "not" {
                        // `#[cfg(not(test))]` marks *live* code.
                        saw_not = true;
                    }
                    if t == "test" && !saw_not && (saw_cfg || first_ident == Some("test")) {
                        is_test_attr = true;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Skip any further attributes, then consume the item to its
        // end: the matching `}` of its first brace, or a `;` before
        // any brace opens.
        let start_byte = code[i].start;
        let mut k = j + 1;
        while code.get(k).is_some_and(|t| t.kind == TokKind::Punct(b'#'))
            && code
                .get(k + 1)
                .is_some_and(|t| t.kind == TokKind::Punct(b'['))
        {
            let mut d = 0usize;
            k += 1;
            while k < code.len() {
                match code[k].kind {
                    TokKind::Punct(b'[') => d += 1,
                    TokKind::Punct(b']') => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            k += 1;
        }
        let mut brace_depth = 0usize;
        let mut end_byte = src.len();
        while k < code.len() {
            match code[k].kind {
                TokKind::Punct(b'{') => brace_depth += 1,
                TokKind::Punct(b'}') => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if brace_depth == 0 {
                        end_byte = code[k].end;
                        break;
                    }
                }
                TokKind::Punct(b';') if brace_depth == 0 => {
                    end_byte = code[k].end;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        mask.push((start_byte, end_byte));
        i = k + 1;
    }
    mask
}

/// Whether the token stream carries the literal inner attribute
/// `#![forbid(unsafe_code)]`.
fn has_forbid_unsafe_header(toks: &[Token], src: &str) -> bool {
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    code.windows(8).any(|w| {
        w[0].kind == TokKind::Punct(b'#')
            && w[1].kind == TokKind::Punct(b'!')
            && w[2].kind == TokKind::Punct(b'[')
            && w[3].text(src) == "forbid"
            && w[4].kind == TokKind::Punct(b'(')
            && w[5].text(src) == "unsafe_code"
            && w[6].kind == TokKind::Punct(b')')
            && w[7].kind == TokKind::Punct(b']')
    })
}

/// Names bound (or declared as struct fields / locals) with a
/// `HashMap`/`HashSet` type in this file. Heuristic: an ident directly
/// before a `:` or `=` whose right-hand side leads with (a possibly
/// `std::collections::`-qualified) `HashMap`/`HashSet`.
fn collect_map_typed_names(toks: &[Token], src: &str) -> Vec<String> {
    let code: Vec<&Token> = toks
        .iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let mut names = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let word = t.text(src);
        if word != "HashMap" && word != "HashSet" {
            continue;
        }
        // Walk left over a path qualifier (`std :: collections ::`).
        let mut j = i;
        while j >= 2
            && code[j - 1].kind == TokKind::Punct(b':')
            && code[j - 2].kind == TokKind::Punct(b':')
        {
            if j >= 3 && code[j - 3].kind == TokKind::Ident {
                j -= 3;
            } else {
                j -= 2;
                break;
            }
        }
        // Now expect `name :` (type ascription) or `name = | name :  … =`.
        if j >= 2
            && (code[j - 1].kind == TokKind::Punct(b':')
                || code[j - 1].kind == TokKind::Punct(b'='))
            && code[j - 2].kind == TokKind::Ident
        {
            let name = code[j - 2].text(src);
            if !matches!(name, "use" | "as" | "pub" | "in") && !names.iter().any(|n| n == name) {
                names.push(name.to_string());
            }
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<String> {
        analyze_source("t.rs", src, FileKind::Lib, RuleSet::strict())
            .into_iter()
            .map(|d| d.rule.code().to_string())
            .collect()
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = r#"
fn live() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); panic!("fine"); }
}
"#;
        assert_eq!(run(src), ["SRV001"]);
    }

    #[test]
    fn allow_with_reason_suppresses_same_and_next_line() {
        let src = "// nplus:allow(SRV001): startup-only, config is compiled in\nlet x = y.unwrap();\nlet z = w.unwrap();\n";
        assert_eq!(run(src), ["SRV001"]); // only the third line fires
    }

    #[test]
    fn allow_without_reason_is_rejected_and_does_not_suppress() {
        let src = "let x = y.unwrap(); // nplus:allow(SRV001)\n";
        let mut codes = run(src);
        codes.sort();
        assert_eq!(codes, ["ALW001", "SRV001"]);
    }

    #[test]
    fn allow_unknown_rule_is_rejected() {
        let src = "// nplus:allow(XYZ999): whatever\n";
        assert_eq!(run(src), ["ALW002"]);
    }

    #[test]
    fn meta_rules_cannot_be_suppressed() {
        let src = "// nplus:allow(ALW001): trying to allow the allow\n";
        assert_eq!(run(src), ["ALW002"]);
    }

    #[test]
    fn map_iteration_detected_through_field_and_local() {
        let src = r#"
struct C { tables: HashMap<(usize, usize), T> }
impl C {
    fn bad(&self) { for k in self.tables.keys() { use_it(k); } }
}
fn local() {
    let index: std::collections::HashMap<u32, u32> = make();
    for (k, v) in &index { touch(k, v); }
}
fn fine() {
    let v: Vec<u32> = make();
    for x in &v { touch(x); }
    let b: BTreeMap<u32, u32> = make();
    for x in &b { touch(x); }
}
"#;
        assert_eq!(run(src), ["DET003", "DET003"]);
    }

    #[test]
    fn bins_may_print_and_exit() {
        let src = "fn main() { println!(\"hi\"); std::process::exit(2); }";
        let diags = analyze_source("b.rs", src, FileKind::Bin, RuleSet::strict());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = r#"
// Instant::now() thread_rng() .unwrap() panic!()
const DOC: &str = "SystemTime OsRng dbg! unsafe";
"#;
        assert_eq!(run(src), Vec::<String>::new());
    }

    #[test]
    fn wall_clock_and_entropy_fire() {
        let src = "fn f() { let t = Instant::now(); let r = thread_rng(); }";
        let mut codes = run(src);
        codes.sort();
        assert_eq!(codes, ["DET001", "DET002"]);
    }
}
