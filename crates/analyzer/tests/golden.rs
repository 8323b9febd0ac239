//! Golden-diagnostic tests over the fixture corpus.
//!
//! Every `tests/fixtures/<name>.rs` carries a first-line header
//! `//~ kind=<lib|libroot|bin|test> profile=<detcore|serving|hygiene>`
//! choosing how the engine sees it, and a `<name>.golden` file holding
//! the exact rendered findings. The corpus has a positive *and* a
//! negative case for every rule, so both over- and under-reporting
//! regress loudly. The workspace walker skips directories named
//! `fixtures`, so the deliberate violations here never pollute the
//! real `analyze` run. The `dead_ws` directory is a mini-workspace for
//! the cross-file `VIS001` pass, with its golden in `dead_ws.golden`.

use nplus_analyzer::workspace::{analyze_workspace, rules_for, Profile};
use nplus_analyzer::{analyze_source, FileKind};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Parses the `//~ kind=… profile=…` header of a fixture.
fn parse_header(src: &str, name: &str) -> (FileKind, Profile) {
    let header = src.lines().next().unwrap_or_default();
    let field = |key: &str| {
        header
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key))
            .unwrap_or_else(|| panic!("{name}: header missing {key}"))
            .to_string()
    };
    let kind = match field("kind=").as_str() {
        "lib" => FileKind::Lib,
        "libroot" => FileKind::LibRoot,
        "bin" => FileKind::Bin,
        "test" => FileKind::Test,
        other => panic!("{name}: unknown kind {other:?}"),
    };
    let profile = match field("profile=").as_str() {
        "detcore" => Profile::DetCore,
        "serving" => Profile::Serving,
        "hygiene" => Profile::Hygiene,
        other => panic!("{name}: unknown profile {other:?}"),
    };
    (kind, profile)
}

fn rendered_findings(path: &Path) -> String {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let src = std::fs::read_to_string(path).expect("fixture readable");
    let (kind, profile) = parse_header(&src, &name);
    let diags = analyze_source(&name, &src, kind, rules_for(profile, kind));
    let mut out = String::new();
    for d in &diags {
        out.push_str(&format!("{d}\n"));
    }
    out
}

#[test]
fn every_fixture_matches_its_golden() {
    let dir = fixtures_dir();
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 6,
        "corpus shrank to {} fixtures",
        fixtures.len()
    );
    for path in fixtures {
        let actual = rendered_findings(&path);
        let golden_path = path.with_extension("golden");
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
            panic!(
                "missing golden {}; actual findings were:\n{actual}",
                golden_path.display()
            )
        });
        assert_eq!(
            actual,
            golden,
            "{} diverged from its golden; actual findings were:\n{actual}",
            path.display()
        );
    }
}

/// The malformed-allow fixture specifically: a missing reason is ALW001
/// *and* leaves the target finding unsuppressed — suppression without
/// justification must never work.
#[test]
fn missing_allow_reason_is_rejected_and_does_not_suppress() {
    let path = fixtures_dir().join("allow_malformed.rs");
    let out = rendered_findings(&path);
    assert!(out.contains("ALW001"), "missing reason not flagged:\n{out}");
    assert!(
        out.contains("DET001"),
        "malformed allow still suppressed its target:\n{out}"
    );
    assert!(out.contains("ALW002"), "unknown rule not flagged:\n{out}");
}

/// `VIS001` over the `dead_ws` mini-workspace: every caller and
/// non-caller kind the rule documents, plus its suppression and the
/// count of the library's bare `pub` items.
#[test]
fn dead_workspace_matches_its_golden() {
    let dir = fixtures_dir();
    let report = analyze_workspace(&dir.join("dead_ws")).expect("fixture workspace walks");
    let actual: String = report
        .diagnostics
        .iter()
        .map(|d| format!("{d}\n"))
        .collect();
    let golden = std::fs::read_to_string(dir.join("dead_ws.golden")).unwrap_or_default();
    assert_eq!(
        actual, golden,
        "dead_ws diverged; actual findings were:\n{actual}"
    );
    assert_eq!(report.pub_items, 13, "alpha's bare pub items");
}
