//! Offline replay and determinism diff over event recordings.
//!
//! `replay` folds recorded event streams back through the same
//! accumulator and aggregation the live sweep used, reproducing
//! `SweepStats` **bit-for-bit** without re-simulating — its `--json`
//! output is byte-identical to the recording sweep's `--json` (CI
//! diffs the two). `replay diff` finds the first frame where two
//! recordings disagree: the determinism-debugging view the
//! bit-identity suites lack.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p nplus-codec --bin replay -- <dir|file.rec ...> [--json [path]]
//! cargo run --release -p nplus-codec --bin replay -- diff a.rec b.rec
//! ```
//!
//! `replay <inputs>` takes any mix of `.rec` files and directories
//! (a directory contributes its `*.rec` entries, sorted by name); the
//! set must form a complete (policy × seed) grid from one sweep.
//! Prints the sweep table, or with `--json [path]` the JSON report the
//! live `sweep` writes.
//!
//! `replay diff a b` exits 0 when the recordings are
//! bitwise-equivalent, 1 with a one-line first-divergence report
//! (event position, round, field, both values) when they are not.
//!
//! Unreadable, corrupt, truncated or future-version inputs report the
//! file, the byte offset and the typed decode error, and exit 2 —
//! recordings are untrusted input and never panic the tool.

use nplus_codec::export::sweep_report_json;
use nplus_codec::{diff_recordings, replay_sweep, Recording};

mod inputs;

use inputs::{collect_paths, input_error, load};

fn run_diff(a_path: &str, b_path: &str) -> ! {
    let a = load(a_path);
    let b = load(b_path);
    match diff_recordings(&a, &b) {
        None => {
            println!("identical: {a_path} and {b_path} are bitwise-equivalent");
            std::process::exit(0);
        }
        Some(d) => {
            let round = match d.round {
                Some(r) => format!(" (round {r})"),
                None => String::new(),
            };
            println!(
                "diverged at {}{round}: {}\n  a: {}\n  b: {}",
                d.location, d.field, d.a, d.b
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("diff") {
        match &args[1..] {
            [a, b] => run_diff(a, b),
            _ => input_error("diff needs exactly two recordings: replay diff a.rec b.rec"),
        }
    }

    let mut inputs: Vec<String> = Vec::new();
    let mut json_to: Option<Option<String>> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                if args.get(i + 1).is_some_and(|s| !s.starts_with('-')) {
                    i += 1;
                    json_to = Some(Some(args[i].clone()));
                } else {
                    json_to = Some(None);
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
        input_error("usage: replay <dir|file.rec ...> [--json [path]] | replay diff a.rec b.rec");
    }

    let recordings: Vec<Recording> = collect_paths(&inputs).iter().map(|p| load(p)).collect();
    let sweep = replay_sweep(&recordings).unwrap_or_else(|e| input_error(&e.to_string()));

    if let Some(path) = &json_to {
        let json = sweep_report_json(
            &sweep.scenario,
            &sweep.environment,
            &sweep.traffic,
            &sweep.mobility,
            sweep.seeds.len() as u64,
            sweep.rounds,
            &sweep.stats,
        );
        match path {
            Some(p) => {
                if let Err(e) = std::fs::write(p, &json) {
                    eprintln!("error: cannot write {p}: {e}");
                    std::process::exit(1);
                }
                eprintln!("wrote {p}");
            }
            None => print!("{json}"),
        }
        return;
    }

    eprintln!(
        "== replay: {} in {} ({} recordings), {} seeds x {} rounds ==",
        sweep.scenario,
        sweep.environment,
        recordings.len(),
        sweep.seeds.len(),
        sweep.rounds,
    );
    println!(
        "\n{:>12} {:>10} {:>8} {:>9} {:>9} {:>9}",
        "policy", "total Mb/s", "±95% CI", "mean DoF", "fairness", "runs"
    );
    for s in &sweep.stats {
        println!(
            "{:>12} {:>10.2} {:>8.2} {:>9.2} {:>9.2} {:>9}",
            s.policy, s.mean_total_mbps, s.ci95_total_mbps, s.mean_dof, s.mean_fairness, s.n_runs
        );
    }
}
