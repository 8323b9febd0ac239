//! `BENCHMARK.json`: the declared workloads and metrics, read at run
//! time so the program and the declaration cannot drift apart.

use crate::stats::Better;
use nplus_codec::json::{self, Json};

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit label.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics (the untraced result).
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics (the traced result).
    pub per_layer: Vec<Declared>,
}

impl Config {
    /// Reads and parses `path`.
    ///
    /// # Errors
    /// A one-line description of a missing file or a malformed entry.
    pub fn load(path: &str) -> Result<Config, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let list = |key: &str| -> Result<&[Json], String> {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("{path}: no {key:?} list"))
        };
        let str_of = |entry: &Json, key: &str| -> Result<String, String> {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{path}: an entry lacks a string {key:?}"))
        };
        let metrics = |key: &str| -> Result<Vec<Declared>, String> {
            list(key)?
                .iter()
                .map(|e| {
                    let better = str_of(e, "better")?;
                    Ok(Declared {
                        name: str_of(e, "name")?,
                        unit: str_of(e, "unit")?,
                        better: Better::parse(&better)
                            .ok_or_else(|| format!("{path}: better {better:?}"))?,
                        bound: e.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Config {
            workloads: list("workloads")?
                .iter()
                .map(|w| str_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    /// The declared metric `name`, from either list.
    pub fn find(&self, name: &str) -> Option<&Declared> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }
}
