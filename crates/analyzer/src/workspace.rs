//! Workspace walking and per-crate rule profiles.
//!
//! Four profiles exist (DESIGN.md §11):
//!
//! * **deterministic core** — `crates/linalg`, `crates/phy`,
//!   `crates/channel`, `crates/medium`, `crates/mac`, `crates/core`:
//!   wall-clock/entropy rules plus the unordered-iteration rule;
//! * **serving surface** — `crates/server`: wall-clock/entropy rules
//!   plus the panic-free rules (`SRV…`) on non-bin library code;
//! * **deterministic serving** — `crates/codec`: both of the above —
//!   recordings must replay bit-for-bit (determinism) *and* decode
//!   untrusted bytes without panicking (panic-freedom);
//! * **hygiene only** — `crates/testkit`, `crates/bench`,
//!   `crates/analyzer` and the root facade package: the header,
//!   unsafe-whitelist and no-print rules every profile also carries.
//!
//! The walk itself is deterministic (directory entries sorted by
//! name), skips `vendor/` and `target/` entirely, and skips any
//! directory named `fixtures` — the analyzer's own test corpus is
//! *intentionally* full of violations. After the per-file rules, the
//! cross-file `VIS001` pass (the `dead` module) runs over every file
//! read plus `perfbench/src`.

use crate::dead::find_unreachable;
use crate::engine::{analyze_source, parse_allows, FileKind};
use crate::lexer::lex;
use crate::report::{sort_diagnostics, Diagnostic};
use crate::rules::{RuleId, RuleSet};
use std::path::{Path, PathBuf};

/// The one place in the workspace where `unsafe` is legal: the
/// counting global allocator behind the per-run arena proof.
pub(crate) const UNSAFE_WHITELIST: [&str; 1] = ["crates/bench/tests/alloc_steady_state.rs"];

/// A crate's rule profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Profile {
    /// Deterministic simulation core.
    DetCore,
    /// Panic-free serving surface.
    Serving,
    /// Both at once: deterministic *and* panic-free (the recording
    /// codec — replay must be bit-exact, decode input is untrusted).
    DetServing,
    /// Hygiene rules only.
    Hygiene,
}

/// First-party crates and their profiles. A `crates/` subdirectory not
/// named here is analyzed under [`Profile::Hygiene`] — new crates are
/// never silently skipped.
pub(crate) const CRATE_PROFILES: [(&str, Profile); 11] = [
    ("linalg", Profile::DetCore),
    ("phy", Profile::DetCore),
    ("channel", Profile::DetCore),
    ("medium", Profile::DetCore),
    ("mac", Profile::DetCore),
    ("core", Profile::DetCore),
    ("server", Profile::Serving),
    ("codec", Profile::DetServing),
    ("testkit", Profile::Hygiene),
    ("bench", Profile::Hygiene),
    ("analyzer", Profile::Hygiene),
];

/// The rules active for one file of a crate with the given profile.
pub(crate) fn rules_for(profile: Profile, kind: FileKind) -> RuleSet {
    RuleSet {
        // Wall-clock/entropy discipline is a library-wide contract:
        // every profile gets it (bins and tests are exempted by kind
        // inside the engine).
        wall_clock_and_entropy: true,
        map_iteration: matches!(profile, Profile::DetCore | Profile::DetServing),
        serving_surface: matches!(profile, Profile::Serving | Profile::DetServing),
        crate_root_header: kind == FileKind::LibRoot,
        // HYG002 is driven by the whitelist, not the profile.
        no_unsafe: true,
        no_print: true,
    }
}

/// The outcome of a workspace analysis.
#[derive(Debug, Clone)]
// nplus:allow(VIS001): the return type of the public `analyze_workspace`
pub struct WorkspaceReport {
    /// Unsuppressed findings, sorted by `(file, line, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// Files analyzed.
    pub files_scanned: usize,
    /// Well-formed `nplus:allow` annotations across the tree — the
    /// suppression surface a reviewer should glance at.
    pub suppressed: usize,
    /// Bare `pub` items in the library crates: the public surface
    /// `VIS001` checks.
    pub pub_items: usize,
}

/// Analyzes the workspace rooted at `root` (the directory holding the
/// top-level `Cargo.toml`).
///
/// # Errors
/// An `io::Error` only for a missing/unreadable root; unreadable
/// individual files are reported as findings-free skips rather than
/// aborting the whole run (a permissions quirk must not mask real
/// findings elsewhere).
pub fn analyze_workspace(root: &Path) -> std::io::Result<WorkspaceReport> {
    let mut files: Vec<(PathBuf, Profile)> = Vec::new();

    // The root facade package: src/, tests/, examples/.
    for dir in ["src", "tests", "examples"] {
        collect_rs_files(&root.join(dir), &mut files, Profile::Hygiene);
    }
    // Member crates.
    let crates_dir = root.join("crates");
    for entry in sorted_entries(&crates_dir)? {
        if !entry.is_dir() {
            continue;
        }
        let name = entry
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let profile = CRATE_PROFILES
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| *p)
            .unwrap_or(Profile::Hygiene);
        for dir in ["src", "tests", "benches", "examples"] {
            collect_rs_files(&entry.join(dir), &mut files, profile);
        }
    }

    let mut diagnostics = Vec::new();
    let mut suppressed_total = 0usize;
    let mut sources: Vec<(String, String)> = Vec::new();
    for (path, profile) in &files {
        let rel = relative_label(root, path);
        let Ok(src) = std::fs::read_to_string(path) else {
            continue;
        };
        let kind = classify(&rel);
        let rules = rules_for(*profile, kind);
        let mut diags = analyze_source(&rel, &src, kind, rules);
        // The unsafe whitelist is path-based, applied after the fact
        // so whitelisted files still run every *other* rule.
        if UNSAFE_WHITELIST.contains(&rel.as_str()) {
            diags.retain(|d| d.rule != RuleId::Hyg002);
        }
        // Count what the engine suppressed: re-run without allows is
        // overkill; instead the engine reports only unsuppressed
        // findings, so the delta is recomputed cheaply here.
        suppressed_total += count_allows(&src);
        diagnostics.append(&mut diags);
        sources.push((rel, src));
    }
    let scanned = sources.len();

    // Second pass, VIS001: the benchmark harness is its own workspace
    // and is read only for its calls into the library crates.
    let mut perfbench = Vec::new();
    collect_rs_files(
        &root.join("perfbench/src"),
        &mut perfbench,
        Profile::Hygiene,
    );
    for (path, _) in &perfbench {
        if let Ok(src) = std::fs::read_to_string(path) {
            sources.push((relative_label(root, path), src));
        }
    }
    let (mut unreachable, pub_items) = find_unreachable(&sources);
    diagnostics.append(&mut unreachable);

    sort_diagnostics(&mut diagnostics);
    Ok(WorkspaceReport {
        diagnostics,
        files_scanned: scanned,
        suppressed: suppressed_total,
        pub_items,
    })
}

/// How many well-formed `nplus:allow` annotations a file carries —
/// reported so a reviewer can see the suppression surface at a glance.
/// Read from comment tokens, as the engine reads them, so an
/// annotation quoted inside a string literal does not count.
fn count_allows(src: &str) -> usize {
    parse_allows("", &lex(src), src, &mut Vec::new()).len()
}

/// Classifies a workspace-relative path into a [`FileKind`].
fn classify(rel: &str) -> FileKind {
    let parts: Vec<&str> = rel.split('/').collect();
    let in_dir = |d: &str| parts.contains(&d);
    if in_dir("tests") || in_dir("benches") || in_dir("examples") {
        return FileKind::Test;
    }
    if in_dir("bin") || rel.ends_with("src/main.rs") {
        return FileKind::Bin;
    }
    if rel.ends_with("src/lib.rs") {
        return FileKind::LibRoot;
    }
    FileKind::Lib
}

/// Recursively collects `.rs` files under `dir` (deterministic order,
/// `fixtures` directories skipped). Missing directories are fine.
fn collect_rs_files(dir: &Path, out: &mut Vec<(PathBuf, Profile)>, profile: Profile) {
    let Ok(entries) = sorted_entries(dir) else {
        return;
    };
    for entry in entries {
        if entry.is_dir() {
            let name = entry.file_name().map(|n| n.to_string_lossy().into_owned());
            if name.as_deref() == Some("fixtures") {
                continue;
            }
            collect_rs_files(&entry, out, profile);
        } else if entry.extension().is_some_and(|e| e == "rs") {
            out.push((entry, profile));
        }
    }
}

/// `read_dir` with the OS's arbitrary order replaced by name order —
/// the analyzer holds itself to the determinism contract it enforces.
fn sorted_entries(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    Ok(entries)
}

/// The workspace-relative, `/`-separated label for diagnostics.
fn relative_label(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let mut s = String::new();
    for (i, comp) in rel.components().enumerate() {
        if i > 0 {
            s.push('/');
        }
        s.push_str(&comp.as_os_str().to_string_lossy());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_layout() {
        assert_eq!(classify("crates/core/src/lib.rs"), FileKind::LibRoot);
        assert_eq!(classify("crates/core/src/sim/engine.rs"), FileKind::Lib);
        assert_eq!(classify("crates/bench/src/bin/sweep.rs"), FileKind::Bin);
        assert_eq!(
            classify("crates/bench/tests/thread_parity.rs"),
            FileKind::Test
        );
        assert_eq!(classify("crates/bench/benches/kernels.rs"), FileKind::Test);
        assert_eq!(classify("examples/quickstart.rs"), FileKind::Test);
        assert_eq!(classify("src/lib.rs"), FileKind::LibRoot);
    }

    #[test]
    fn profiles_compose_the_expected_rule_sets() {
        let det = rules_for(Profile::DetCore, FileKind::Lib);
        assert!(det.map_iteration && det.wall_clock_and_entropy && !det.serving_surface);
        let srv = rules_for(Profile::Serving, FileKind::Lib);
        assert!(srv.serving_surface && !srv.map_iteration);
        let both = rules_for(Profile::DetServing, FileKind::Lib);
        assert!(both.serving_surface && both.map_iteration && both.wall_clock_and_entropy);
        let hyg = rules_for(Profile::Hygiene, FileKind::LibRoot);
        assert!(hyg.crate_root_header && hyg.no_print && !hyg.serving_surface);
    }

    #[test]
    fn allow_counter_only_counts_well_formed_annotations() {
        let src = "\
a // nplus:allow(DET001): timing report\n\
b // nplus:allow(DET001)\n\
c // nplus:allow(NOPE42): reason\n\
d // nplus:allow(DET001):   \n\
e \"// nplus:allow(DET001): quoted in a string\"\n";
        assert_eq!(count_allows(src), 1);
    }
}
