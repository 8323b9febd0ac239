//! `perfbench`: the noise-aware benchmark of the n+ workspace.
//!
//! ```text
//! perfbench --workload <paper_sweep|city_world|serve_mix> --seed N \
//!           --seconds S --trace <0|1> [--out FILE]
//! perfbench compare PARENT.jsonl CHANGE.jsonl
//! perfbench pin
//! ```
//!
//! A run prints its rows in a table, then — as its last line — one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the
//! `end_to_end` metrics of `BENCHMARK.json` untraced (`--trace 0`), the
//! `per_layer` metrics traced (`--trace 1`). `--out` appends the result
//! with every row's quartiles to a JSON-lines file that `compare` reads.
//! `pin` prints the digests the sweep workloads are checked against.
//! Run it from the repository root (it reads `BENCHMARK.json` there).

#![forbid(unsafe_code)]

mod compare;
mod config;
mod digest;
mod layers;
mod ops;
mod report;
mod serve;
mod spec;
mod stats;
mod traced;
mod workloads;

use config::Config;
use nplus_codec::json::Json;
use report::Report;
use std::io::Write as _;
use std::process::ExitCode;
use workloads::SweepKind;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut it = args.iter();
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
        out,
    })
}

/// Prints the pinned digests of every sweep-workload variant.
fn pin() -> ExitCode {
    for (name, text) in [
        ("PAPER", workloads::paper_text as fn(u64) -> spec::SpecText),
        ("CITY", workloads::city_text),
    ] {
        let digests: Result<Vec<String>, String> = (0..workloads::VARIANTS)
            .map(|v| {
                let stats = text(v)
                    .builder_spec()?
                    .try_run()
                    .map_err(|e| e.to_string())?;
                Ok(format!("{:#018x}", digest::stats_digest(&stats)))
            })
            .collect();
        match digests {
            Ok(d) => println!(
                "const {name}_DIGESTS: [u64; VARIANTS as usize] = [{}];",
                d.join(", ")
            ),
            Err(e) => {
                eprintln!("perfbench pin: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let (seed, secs) = (args.seed, args.seconds);
    match (args.workload.as_str(), args.trace) {
        ("paper_sweep", false) => workloads::sweep_untraced(SweepKind::Paper, seed, secs, r),
        ("paper_sweep", true) => workloads::sweep_traced(SweepKind::Paper, seed, secs, r),
        ("city_world", false) => workloads::sweep_untraced(SweepKind::City, seed, secs, r),
        ("city_world", true) => workloads::sweep_traced(SweepKind::City, seed, secs, r),
        ("serve_mix", false) => workloads::serve_untraced(seed, secs, r),
        ("serve_mix", true) => workloads::serve_traced(seed, secs, r),
        (other, _) => Err(format!("no workload named {other:?}")),
    }
}

/// The result line: exactly the declared metrics of this trace mode,
/// each checked to have been measured in its declared unit.
fn result_json(cfg: &Config, trace: bool, r: &mut Report) -> Json {
    let declared = if trace {
        &cfg.per_layer
    } else {
        &cfg.end_to_end
    };
    let mut metrics = Vec::with_capacity(declared.len());
    for d in declared {
        let found = r.get(&d.name).map(|m| (m.value, m.unit));
        r.check(
            matches!(found, Some((v, unit)) if unit == d.unit && v.is_finite()),
            || {
                format!(
                    "metric {} not measured in {} (got {found:?})",
                    d.name, d.unit
                )
            },
        );
        let value = found.map_or(0.0, |(v, _)| if v.is_finite() { v } else { 0.0 });
        metrics.push((
            d.name.clone(),
            Json::Obj(vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::Str(d.unit.clone())),
            ]),
        ));
    }
    Json::Obj(vec![
        ("correct".to_string(), Json::Bool(r.failed == 0)),
        ("attempted".to_string(), Json::Int(r.attempted as i64)),
        ("failed".to_string(), Json::Int(r.failed as i64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ])
}

fn append_record(path: &str, args: &Args, result: &Json, r: &Report) -> std::io::Result<()> {
    let record = Json::Obj(vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".to_string(), Json::Int(args.seed as i64)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("result".to_string(), result.clone()),
        ("rows".to_string(), r.rows_json()),
    ]);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.to_string_compact())?;
    f.flush()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return ExitCode::from(compare::run(&argv[1..]) as u8),
        Some("pin") => return pin(),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::load("BENCHMARK.json") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !cfg.workloads.contains(&args.workload) {
        eprintln!(
            "perfbench: {:?} is not a declared workload {:?}",
            args.workload, cfg.workloads
        );
        return ExitCode::from(2);
    }
    println!(
        "== perfbench {} seed {} for {} s, trace {} ({} cores) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut r = Report::default();
    if let Err(e) = run(&args, &mut r) {
        r.check(false, || e);
    }
    r.print_rows();
    let result = result_json(&cfg, args.trace, &mut r);
    for v in r.violations.iter().take(10) {
        println!("VIOLATION: {v}");
    }
    println!(
        "checks: {} attempted, {} failed (failed_share {})",
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    if let Some(path) = &args.out {
        if let Err(e) = append_record(path, &args, &result, &r) {
            eprintln!("perfbench: --out {path}: {e}");
        }
    }
    println!("{}", result.to_string_compact());
    ExitCode::SUCCESS
}
