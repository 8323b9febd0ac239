//! The gate itself, as a test: the workspace this analyzer ships in
//! must analyze clean. `cargo test` therefore fails the moment anyone
//! introduces an unsuppressed violation, even before CI runs the
//! `analyze` binary.

use nplus_analyzer::workspace::analyze_workspace;
use std::path::Path;

#[test]
fn the_workspace_has_zero_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root resolves");
    let report = analyze_workspace(&root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 100,
        "walk found only {} files — wrong root?",
        report.files_scanned
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        rendered.is_empty(),
        "the workspace must analyze clean; findings:\n{}",
        rendered.join("\n")
    );
}
