//! What one benchmark invocation measured: metric values, their sample
//! summaries, and the correctness checks it ran.

use crate::stats::{percentile, Summary};
use nplus_codec::json::Json;
use std::collections::BTreeMap;

/// One reported metric: its value, unit, and — when it summarizes
/// samples — the median/quartile row behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The value the result line carries.
    pub value: f64,
    /// Unit label, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Sample summary, when the value came from repeated samples.
    pub summary: Option<Summary>,
    /// A remark printed next to the row (e.g. an unresolved percentile).
    pub note: Option<String>,
}

/// Metrics plus the correctness ledger of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, Metric>,
    /// Checks made (operations whose output was verified).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check (the first few are printed).
    pub violations: Vec<String>,
}

impl Report {
    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.violations.push(what());
        }
    }

    /// Records a metric that is a single computed value (a count, a
    /// ratio, a throughput over the whole window).
    pub fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        self.insert(
            name,
            Metric {
                value,
                unit,
                summary: None,
                note: None,
            },
        );
    }

    /// Records a metric as the median of `samples`, keeping quartiles
    /// and count. No samples: nothing is recorded.
    pub fn median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if let Some(s) = Summary::of(samples) {
            self.insert(
                name,
                Metric {
                    value: s.median,
                    unit,
                    summary: Some(s),
                    note: None,
                },
            );
        }
    }

    /// Records the `p`-th nearest-rank percentile of `samples`, noting
    /// when fewer than ten samples lie beyond it.
    pub fn percentile(&mut self, name: &str, samples: &[f64], p: f64, unit: &'static str) {
        if let Some(pc) = percentile(samples, p) {
            let note = (!pc.resolved()).then(|| {
                format!(
                    "p{p} of {} samples: only {} beyond it (estimate)",
                    samples.len(),
                    pc.beyond
                )
            });
            self.insert(
                name,
                Metric {
                    value: pc.value,
                    unit,
                    summary: Summary::of(samples),
                    note,
                },
            );
        }
    }

    fn insert(&mut self, name: &str, metric: Metric) {
        self.metrics.insert(name.to_string(), metric);
    }

    /// The recorded metric named `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// Prints every row in a human-readable table.
    pub fn print_rows(&self) {
        for (name, m) in &self.metrics {
            let mut line = format!("{name:<42} {:>14} {:<9}", fmt_num(m.value), m.unit);
            if let Some(s) = m.summary {
                line.push_str(&format!(
                    " median {} [q1 {}, q3 {}] n={}",
                    fmt_num(s.median),
                    fmt_num(s.q1),
                    fmt_num(s.q3),
                    s.n
                ));
            }
            if let Some(note) = &m.note {
                line.push_str(&format!("  ({note})"));
            }
            println!("{line}");
        }
    }

    /// The per-row detail object written to `--out` files.
    pub fn rows_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|(name, m)| {
                    let mut fields = vec![
                        ("value".to_string(), Json::Num(m.value)),
                        ("unit".to_string(), Json::Str(m.unit.to_string())),
                    ];
                    if let Some(s) = m.summary {
                        fields.push(("median".to_string(), Json::Num(s.median)));
                        fields.push(("q1".to_string(), Json::Num(s.q1)));
                        fields.push(("q3".to_string(), Json::Num(s.q3)));
                        fields.push(("n".to_string(), Json::Int(s.n as i64)));
                    }
                    (name.clone(), Json::Obj(fields))
                })
                .collect(),
        )
    }
}

/// Compact human formatting: 4 significant decimals for small values.
pub fn fmt_num(v: f64) -> String {
    if v.abs() >= 1000.0 || v == 0.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}
