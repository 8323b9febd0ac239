//! `VIS001`, the workspace reachability pass: a library `pub` item
//! that no non-test code outside its own crate names should not be
//! `pub`.
//!
//! The per-file engine cannot see callers in other files, so this pass
//! runs once over every source [`analyze_workspace`] read, plus
//! `perfbench/src`. It is lexical, like the rest of the analyzer: an
//! item is reachable when its bare name appears as an identifier token
//! in caller code outside the item's own library crate. Inside the
//! crate, rustc's exact `dead_code` lint takes over once the item is
//! `pub(crate)`. Which files define candidates and which count as
//! callers is decided by path alone; the rules table in
//! [`rules`](crate::rules) spells it out.
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
    /// Well-formed `nplus:allow` annotations (the per-file pass
    /// already reported the malformed ones).
    allows: Vec<Allow>,
}

/// A workspace-relative file's role: the library crate whose `src/` it
/// belongs to (testkit excepted), if any, and whether its code counts
/// as a caller. Bins, `benches/` and `examples/` are outside their
/// package's library.
fn role(rel: &str) -> (Option<&str>, bool) {
    let parts: Vec<&str> = rel.split('/').collect();
    let dirs = &parts[..parts.len().saturating_sub(1)];
    if dirs.contains(&"tests") || rel.starts_with("crates/testkit/") {
        return (None, false);
    }
    let library = rel.starts_with("crates/")
        && dirs.get(2) == Some(&"src")
        && !dirs.contains(&"bin")
        && !rel.ends_with("src/main.rs");
    (library.then(|| parts[1]), true)
}

/// Runs `VIS001` over `(workspace-relative path, source)` pairs.
/// Returns the unsuppressed findings and the number of bare `pub`
/// items the library crates define.
pub(crate) fn find_unreachable(files: &[(String, String)]) -> (Vec<Diagnostic>, usize) {
    let sources: Vec<Source> = files.iter().map(|(r, s)| index(r, s)).collect();

    // Every caller identifier, by name: the caller's library crate.
    let mut refs: BTreeMap<&str, Vec<Option<&str>>> = BTreeMap::new();
    for s in &sources {
        let (library, calls) = role(s.rel);
        if !calls {
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
                refs.entry(t.text(s.src)).or_default().push(library);
            }
        }
    }

    let mut out = Vec::new();
    let mut items = 0;
    for s in &sources {
        let Some(library) = role(s.rel).0 else {
            continue;
        };
        for (keyword, name, line) in candidates(s) {
            items += 1;
            let reached = refs
                .get(name)
                .is_some_and(|rs| rs.iter().any(|&r| r != Some(library)));
            if reached || s.allows.iter().any(|a| a.covers(RuleId::Vis001, line)) {
                continue;
            }
            out.push(Diagnostic::new(
                RuleId::Vis001,
                s.rel,
                line,
                format!(
                    "`pub {keyword} {name}` is named by no non-test code outside crate `{library}`"
                ),
            ));
        }
    }
    (out, items)
}

fn in_ranges(ranges: &[(usize, usize)], pos: usize) -> bool {
    ranges.iter().any(|&(a, b)| pos >= a && pos < b)
}

/// Lexes one file and finds its test regions and `use` declarations.
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
    for (i, t) in code.iter().enumerate() {
        if t.kind == TokKind::Ident && is(i, "use") {
            let end = (i..code.len()).find(|&j| is(j, ";")).unwrap_or(code.len());
            uses.push((t.start, code.get(end).map_or(src.len(), |e| e.end)));
        }
    }
    Source {
        rel,
        src,
        code,
        tests,
        uses,
        allows,
    }
}

/// Every bare `pub` item in a file's non-test code: its keyword, its
/// name and the `pub` token's line, where findings and allows anchor.
fn candidates<'a>(s: &Source<'a>) -> Vec<(&'a str, &'a str, u32)> {
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
        if ITEM_KEYWORDS.contains(&keyword)
            && code.get(k + 1).is_some_and(|n| n.kind == TokKind::Ident)
        {
            out.push((keyword, text(k + 1), t.line));
        }
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
        find_unreachable(&files)
            .0
            .iter()
            .map(|d| format!("{}:{}", d.file, d.line))
            .collect()
    }

    #[test]
    fn roles_follow_the_layout() {
        assert_eq!(role("crates/mac/src/backoff.rs"), (Some("mac"), true));
        assert_eq!(role("crates/bench/src/bin/fig12.rs"), (None, true));
        assert_eq!(role("crates/codec/src/main.rs"), (None, true));
        assert_eq!(role("crates/bench/benches/kernels.rs"), (None, true));
        assert_eq!(role("perfbench/src/ops.rs"), (None, true));
        assert_eq!(role("src/lib.rs"), (None, true));
        assert_eq!(role("examples/quickstart.rs"), (None, true));
        assert_eq!(role("tests/phy_chain.rs"), (None, false));
        assert_eq!(role("crates/core/tests/proptests.rs"), (None, false));
        assert_eq!(role("crates/testkit/src/lib.rs"), (None, false));
    }

    #[test]
    fn recursion_and_own_impls_are_not_callers() {
        let lib = "\
pub fn fact(n: u64) -> u64 { if n == 0 { 1 } else { n * fact(n - 1) } }
pub struct Node { next: Option<Box<Node>> }
impl Node { pub fn leaf() -> Node { Node { next: None } } }
impl Default for Node { fn default() -> Self { Node::leaf() } }
pub fn sibling() -> Node { Node::default() }
";
        // Nor is any other file of the same library crate.
        let other = "fn f() { let _ = (fact(3), sibling()); }";
        assert_eq!(
            run(&[
                ("crates/a/src/lib.rs", lib),
                ("crates/a/src/other.rs", other)
            ]),
            [
                "crates/a/src/lib.rs:1",
                "crates/a/src/lib.rs:2",
                "crates/a/src/lib.rs:3",
                "crates/a/src/lib.rs:5"
            ]
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
