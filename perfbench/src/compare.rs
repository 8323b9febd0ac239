//! Compare mode: the runs of a parent and a change, metric by metric.
//!
//! Input files hold one JSON record per line, as `--out` appends them.
//! Runs of the same (workload, trace mode) are paired in file order, so
//! record the parent and the change alternately with the same seeds.

use crate::config::Config;
use crate::report::fmt_num;
use crate::stats::{compare, Verdict};
use nplus_codec::json::{self, Json};
use std::collections::BTreeMap;

type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Reads every record of `path` into (workload, metric) → values.
fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = rec.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}:{}: no result metrics", n + 1));
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// `perfbench compare PARENT CHANGE`: prints one row per (workload,
/// metric) present in both files and a verdict tally. Returns the exit
/// code (0 unless an input cannot be read).
pub fn run(args: &[String]) -> i32 {
    let [parent, change] = args else {
        eprintln!("usage: perfbench compare PARENT.jsonl CHANGE.jsonl");
        return 2;
    };
    let loaded = Config::load("BENCHMARK.json")
        .and_then(|cfg| Ok((cfg, read_runs(parent)?, read_runs(change)?)));
    let (cfg, parent, change) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<12} {:<40} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut tally: BTreeMap<&'static str, usize> = BTreeMap::new();
    for ((workload, name), p) in &parent {
        let (Some(c), Some(decl)) = (
            change.get(&(workload.clone(), name.clone())),
            cfg.find(name),
        ) else {
            continue;
        };
        let Some(cmp) = compare(p, c, decl.better, decl.bound) else {
            continue;
        };
        let span = |s: crate::stats::Summary| {
            format!(
                "{} [{}, {}]",
                fmt_num(s.median),
                fmt_num(s.q1),
                fmt_num(s.q3)
            )
        };
        println!(
            "{workload:<12} {name:<40} {:>30} {:>30} {:>5.0}%  {}",
            span(cmp.parent),
            span(cmp.change),
            cmp.win_share * 100.0,
            cmp.verdict.label()
        );
        *tally.entry(cmp.verdict.label()).or_default() += 1;
    }
    let total: usize = tally.values().sum();
    let line: Vec<String> = [
        Verdict::Improved,
        Verdict::Worse,
        Verdict::Unchanged,
        Verdict::Unresolved,
    ]
    .iter()
    .map(|v| {
        format!(
            "{} {}",
            tally.get(v.label()).copied().unwrap_or(0),
            v.label()
        )
    })
    .collect();
    println!("{total} pairs: {}", line.join(", "));
    0
}
