//! `analyze` — the workspace's static-analysis gate.
//!
//! ```text
//! analyze [--root DIR] [--json [FILE]]
//! ```
//!
//! Walks every first-party `.rs` file (vendor/, target/ and fixture
//! corpora excluded), runs the per-crate rule profiles (DESIGN.md §11)
//! and prints one line per unsuppressed finding. `--json` emits the
//! machine-readable report instead — to stdout, or to `FILE` (human
//! summary still on stdout) when a path follows the flag.
//!
//! Exit codes: `0` clean, `1` unsuppressed findings (or a report-write
//! failure), `2` usage errors.

use nplus_analyzer::{render_human, render_json, workspace::analyze_workspace};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: analyze [--root DIR] [--json [FILE]]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json = false;
    let mut json_path: Option<PathBuf> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => {
                i += 1;
                match args.get(i) {
                    Some(dir) => root = PathBuf::from(dir),
                    None => return usage_error("--root needs a directory"),
                }
            }
            "--json" => {
                json = true;
                // Optional file operand: anything next that isn't a flag.
                if let Some(next) = args.get(i + 1) {
                    if !next.starts_with("--") {
                        i += 1;
                        json_path = Some(PathBuf::from(next));
                    }
                }
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }

    // Accept either the workspace root or a subdirectory of it: walk
    // up until a directory containing `crates/` appears.
    let root = match find_workspace_root(&root) {
        Some(r) => r,
        None => return usage_error(&format!("{} is not inside the workspace", root.display())),
    };

    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("analyze: cannot walk {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };

    let human = render_human(&report);
    if json {
        let doc = render_json(&report);
        match &json_path {
            None => println!("{doc}"),
            Some(path) => {
                if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
                    eprintln!("analyze: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                print!("{human}");
            }
        }
    } else {
        print!("{human}");
    }

    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walks up from `start` to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and `crates/`).
fn find_workspace_root(start: &std::path::Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("analyze: {msg}\n{USAGE}");
    ExitCode::from(2)
}
