//! `DEAD001`, the workspace reachability pass: a library `pub` item
//! that no non-test code names is dead surface.
//!
//! The per-file engine cannot see callers in other files, so this pass
//! runs once over every source [`analyze_workspace`] read, plus
//! `perfbench/src`. It is lexical, like the rest of the analyzer: an
//! item is live when its bare name appears as an identifier token in
//! caller code outside the item's own body and, for a type, outside
//! the type's own `impl` blocks in its file. Which files define
//! candidates and which count as callers is decided by path alone; the
//! rules table in [`rules`](crate::rules) spells it out.
//!
//! [`analyze_workspace`]: crate::workspace::analyze_workspace

use crate::engine::{cfg_test_mask, parse_allows, Allow};
use crate::lexer::{lex, TokKind, Token};
use crate::report::Diagnostic;
use crate::rules::RuleId;
use std::collections::BTreeMap;

/// Item keywords a bare `pub` may introduce and this pass checks.
/// `mod` and `use` are deliberately absent: a module lives through
/// its items, and a re-export is not a caller.
const ITEM_KEYWORDS: [&str; 8] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static",
];

/// Keywords whose following identifier is a definition, not a use.
const DEFINING_KEYWORDS: [&str; 9] = [
    "fn", "struct", "enum", "union", "trait", "type", "const", "static", "mod",
];

/// One lexed source, with the byte ranges that never count as callers.
struct Source<'a> {
    rel: &'a str,
    src: &'a str,
    /// Code tokens (comments dropped).
    code: Vec<Token>,
    /// `#[cfg(test)]` items.
    tests: Vec<(usize, usize)>,
    /// `use` declarations.
    uses: Vec<(usize, usize)>,
    /// `impl` blocks: self-type name and byte range.
    impls: Vec<(&'a str, usize, usize)>,
    /// Well-formed `nplus:allow` annotations (the per-file pass
    /// already reported the malformed ones).
    allows: Vec<Allow>,
}

/// A `pub` item this pass checks.
struct Candidate<'a> {
    keyword: &'a str,
    name: &'a str,
    /// The `pub` token's line, where findings and allows anchor.
    line: u32,
    /// The item's own body: `pub` through its closing `}` or `;`.
    body: (usize, usize),
}

/// Whether a workspace-relative file defines candidates and whether
/// its code counts as a caller: `(defines, calls)`.
fn role(rel: &str) -> (bool, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    let dirs = &parts[..parts.len().saturating_sub(1)];
    if dirs.contains(&"tests") || rel.starts_with("crates/testkit/") {
        return (false, false);
    }
    let library = rel.starts_with("crates/")
        && dirs.get(2) == Some(&"src")
        && !dirs.contains(&"bin")
        && !rel.ends_with("src/main.rs");
    (library, true)
}

/// Runs `DEAD001` over `(workspace-relative path, source)` pairs and
/// returns the unsuppressed findings.
pub(crate) fn find_dead(files: &[(String, String)]) -> Vec<Diagnostic> {
    let sources: Vec<Source> = files.iter().map(|(r, s)| index(r, s)).collect();

    // Every caller identifier, by name: (file, byte offset).
    let mut refs: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    for (fi, s) in sources.iter().enumerate() {
        if !role(s.rel).1 {
            continue;
        }
        let text = |i: usize| s.code.get(i).map_or("", |t| t.text(s.src));
        for (i, t) in s.code.iter().enumerate() {
            let defining = i
                .checked_sub(1)
                .is_some_and(|p| DEFINING_KEYWORDS.contains(&text(p)));
            // A `use` names nothing, except the original behind an alias
            // (`use a::B as C;`), whose callers spell only `C`.
            let imported = in_ranges(&s.uses, t.start) && text(i + 1) != "as";
            if t.kind == TokKind::Ident && !defining && !imported && !in_ranges(&s.tests, t.start) {
                refs.entry(t.text(s.src)).or_default().push((fi, t.start));
            }
        }
    }

    let mut out = Vec::new();
    for (fi, s) in sources.iter().enumerate() {
        if !role(s.rel).0 {
            continue;
        }
        for c in candidates(s) {
            let is_type = matches!(c.keyword, "struct" | "enum" | "union" | "type");
            let live = refs.get(c.name).is_some_and(|rs| {
                rs.iter().any(|&(rf, pos)| {
                    let own_body = rf == fi && pos >= c.body.0 && pos < c.body.1;
                    let own_impl = is_type
                        && rf == fi
                        && s.impls
                            .iter()
                            .any(|&(n, a, b)| n == c.name && pos >= a && pos < b);
                    !own_body && !own_impl
                })
            });
            if live || s.allows.iter().any(|a| a.covers(RuleId::Dead001, c.line)) {
                continue;
            }
            out.push(Diagnostic::new(
                RuleId::Dead001,
                s.rel,
                c.line,
                format!(
                    "`pub {} {}` is named by no non-test code outside its own body{}",
                    c.keyword,
                    c.name,
                    if is_type { " and impls" } else { "" }
                ),
            ));
        }
    }
    out
}

fn in_ranges(ranges: &[(usize, usize)], pos: usize) -> bool {
    ranges.iter().any(|&(a, b)| pos >= a && pos < b)
}

/// Lexes one file and finds its test regions, `use` declarations and
/// `impl` blocks.
fn index<'a>(rel: &'a str, src: &'a str) -> Source<'a> {
    let toks = lex(src);
    let tests = cfg_test_mask(&toks, src);
    let allows = parse_allows(rel, &toks, src, &mut Vec::new());
    let code: Vec<Token> = toks
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .collect();
    let is = |i: usize, s: &str| code.get(i).is_some_and(|t| t.text(src) == s);
    let mut uses = Vec::new();
    let mut impls = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        if is(i, "use") {
            let end = (i..code.len()).find(|&j| is(j, ";")).unwrap_or(code.len());
            uses.push((t.start, code.get(end).map_or(src.len(), |e| e.end)));
        } else if is(i, "impl") && item_position(&code, i) {
            let (name, end) = impl_self_type(&code, src, i);
            if let Some(name) = name {
                impls.push((name, t.start, end));
            }
        }
    }
    Source {
        rel,
        src,
        code,
        tests,
        uses,
        impls,
        allows,
    }
}

/// Whether `code[i]` starts an item, as opposed to an `impl Trait`
/// in argument or return position.
fn item_position(code: &[Token], i: usize) -> bool {
    i.checked_sub(1).is_none_or(|p| {
        matches!(
            code[p].kind,
            TokKind::Punct(b'}' | b';' | b']' | b'{') | TokKind::Ident
        )
    })
}

/// The self type named by the `impl` header at `code[at]` (the last
/// path segment after `for`, else after the generics) and the byte end
/// of the block.
fn impl_self_type<'a>(code: &[Token], src: &'a str, at: usize) -> (Option<&'a str>, usize) {
    let mut angle = 0usize;
    let mut name = None;
    let mut path_done = false;
    let mut i = at + 1;
    while let Some(t) = code.get(i) {
        let arrow = t.kind == TokKind::Punct(b'>')
            && i > 0
            && code[i - 1].kind == TokKind::Punct(b'-')
            && code[i - 1].end == t.start;
        match t.kind {
            TokKind::Punct(b'{') if angle == 0 => break,
            TokKind::Punct(b';') if angle == 0 => return (None, t.end),
            TokKind::Punct(b'<') => {
                angle += 1;
                // Generic arguments end the self type's path.
                path_done |= name.is_some();
            }
            TokKind::Punct(b'>') if !arrow => angle = angle.saturating_sub(1),
            TokKind::Ident if angle == 0 => match t.text(src) {
                "for" => {
                    name = None;
                    path_done = false;
                }
                "where" => path_done = true,
                "dyn" | "mut" => {}
                word if !path_done => name = Some(word),
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
    (name, item_end(code, i, src.len()))
}

/// The byte end of the item whose tokens start at `code[from]`: the
/// first `;` at bracket depth 0, or the `}` closing the first
/// depth-0 `{`.
fn item_end(code: &[Token], from: usize, eof: usize) -> usize {
    let mut depth = 0usize;
    for t in code.iter().skip(from) {
        match t.kind {
            TokKind::Punct(b'(' | b'[' | b'{') => depth += 1,
            TokKind::Punct(b')' | b']') => depth = depth.saturating_sub(1),
            TokKind::Punct(b'}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return t.end;
                }
            }
            TokKind::Punct(b';') if depth == 0 => return t.end,
            _ => {}
        }
    }
    eof
}

/// Every bare `pub` item in a file's non-test code.
fn candidates<'a>(s: &Source<'a>) -> Vec<Candidate<'a>> {
    let code = &s.code;
    let text = |i: usize| code.get(i).map_or("", |t| t.text(s.src));
    let mut out = Vec::new();
    for (i, t) in code.iter().enumerate() {
        if text(i) != "pub" || t.kind != TokKind::Ident || in_ranges(&s.tests, t.start) {
            continue;
        }
        // `pub const fn`, `pub async fn`, `pub extern "C" fn`.
        let mut k = i + 1;
        while matches!(text(k), "async" | "unsafe" | "extern")
            || (text(k) == "const" && text(k + 1) == "fn")
            || code.get(k).is_some_and(|t| t.kind == TokKind::Literal)
        {
            k += 1;
        }
        let keyword = text(k);
        let name_tok = code.get(k + 1);
        if !ITEM_KEYWORDS.contains(&keyword) || name_tok.is_none_or(|n| n.kind != TokKind::Ident) {
            continue;
        }
        out.push(Candidate {
            keyword,
            name: text(k + 1),
            line: t.line,
            body: (t.start, item_end(code, k + 1, s.src.len())),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<String> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| (r.to_string(), s.to_string()))
            .collect();
        find_dead(&files)
            .iter()
            .map(|d| format!("{}:{}", d.file, d.line))
            .collect()
    }

    #[test]
    fn roles_follow_the_layout() {
        assert_eq!(role("crates/mac/src/backoff.rs"), (true, true));
        assert_eq!(role("crates/bench/src/bin/fig12.rs"), (false, true));
        assert_eq!(role("crates/bench/benches/kernels.rs"), (false, true));
        assert_eq!(role("perfbench/src/ops.rs"), (false, true));
        assert_eq!(role("src/lib.rs"), (false, true));
        assert_eq!(role("examples/quickstart.rs"), (false, true));
        assert_eq!(role("tests/phy_chain.rs"), (false, false));
        assert_eq!(role("crates/core/tests/proptests.rs"), (false, false));
        assert_eq!(role("crates/testkit/src/lib.rs"), (false, false));
    }

    #[test]
    fn recursion_and_own_impls_are_not_callers() {
        let lib = "\
pub fn fact(n: u64) -> u64 { if n == 0 { 1 } else { n * fact(n - 1) } }
pub struct Node { next: Option<Box<Node>> }
impl Node { pub fn leaf() -> Node { Node { next: None } } }
impl Default for Node { fn default() -> Self { Node::leaf() } }
";
        assert_eq!(
            run(&[("crates/a/src/lib.rs", lib)]),
            ["crates/a/src/lib.rs:1", "crates/a/src/lib.rs:2"]
        );
    }

    #[test]
    fn same_file_siblings_and_generic_impls_resolve() {
        let lib = "\
pub struct Row<T>(pub T);
pub fn live() -> Row<u8> { Row(0) }
impl<T: Fn() -> u8> Shape for Row<T> where T: Copy { fn f(&self) {} }
pub const N: [u8; 2] = [0; 2];
";
        let bin = "fn main() { live(); }";
        assert_eq!(
            run(&[("crates/a/src/lib.rs", lib), ("crates/a/src/bin/m.rs", bin)]),
            ["crates/a/src/lib.rs:4"]
        );
    }

    #[test]
    fn aliased_import_keeps_the_original() {
        let lib = "pub fn original() {}\n";
        let root = "pub use a::original as alias;\n";
        let bin = "fn main() { alias(); }";
        assert_eq!(
            run(&[
                ("crates/a/src/lib.rs", lib),
                ("src/lib.rs", root),
                ("crates/a/src/bin/m.rs", bin),
            ]),
            Vec::<String>::new()
        );
    }
}
