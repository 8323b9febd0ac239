//! Metrics exporter over event recordings.
//!
//! Renders decoded recordings as Prometheus-style text metrics (one
//! sample per run per family, labeled with the run's identity) and as
//! per-run time-series JSON (parallel per-round arrays for dashboards).
//! Values come from replay, so they are bit-for-bit the live run's
//! results.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p nplus-codec --bin export -- <dir|file.rec ...> \
//!     [--metrics [path]] [--series [path]]
//! ```
//!
//! Inputs are any mix of `.rec` files and directories (a directory
//! contributes its `*.rec` entries, sorted by name — recordings here
//! need not form a complete sweep grid). With no flags, metrics go to
//! stdout. `--metrics` and `--series` each take an optional path
//! operand (default stdout). Undecodable inputs report the file and
//! the typed error and exit 2 — never a panic.

use nplus_codec::export::{prometheus_metrics, time_series_json};
use nplus_codec::Recording;

mod inputs;

use inputs::{collect_paths, input_error, load};

/// Writes to the optional path, or stdout when there is none.
fn emit(what: &str, path: &Option<String>, text: &str) {
    match path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, text) {
                eprintln!("error: cannot write {p}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {what} to {p}");
        }
        None => print!("{text}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut inputs: Vec<String> = Vec::new();
    let mut metrics_to: Option<Option<String>> = None;
    let mut series_to: Option<Option<String>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics" => {
                if args.get(i + 1).is_some_and(|s| !s.starts_with('-')) {
                    i += 1;
                    metrics_to = Some(Some(args[i].clone()));
                } else {
                    metrics_to = Some(None);
                }
            }
            "--series" => {
                if args.get(i + 1).is_some_and(|s| !s.starts_with('-')) {
                    i += 1;
                    series_to = Some(Some(args[i].clone()));
                } else {
                    series_to = Some(None);
                }
            }
            other if other.starts_with('-') => {
                input_error(&format!("unknown flag {other:?}"));
            }
            other => inputs.push(other.to_string()),
        }
        i += 1;
    }
    if inputs.is_empty() {
        input_error("usage: export <dir|file.rec ...> [--metrics [path]] [--series [path]]");
    }

    let recordings: Vec<Recording> = collect_paths(&inputs).iter().map(|p| load(p)).collect();

    // No flags at all: metrics to stdout.
    if metrics_to.is_none() && series_to.is_none() {
        metrics_to = Some(None);
    }
    if let Some(path) = &metrics_to {
        emit("metrics", path, &prometheus_metrics(&recordings));
    }
    if let Some(path) = &series_to {
        let mut text = time_series_json(&recordings).to_string_compact();
        text.push('\n');
        emit("series", path, &text);
    }
}
