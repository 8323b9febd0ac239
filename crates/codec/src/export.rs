//! Exporters over decoded recordings: the shared sweep JSON report,
//! Prometheus-style text metrics, and per-run time-series JSON.
//!
//! [`sweep_report_json`] is *the* report layout — the `sweep` bin and
//! the `replay` bin both call it, which is what makes "replayed stats
//! are byte-identical to the live `--json` output" checkable with a
//! plain `diff` — and [`stats_to_json`] is the one statistics
//! serializer it shares with the `sweep-server` responses. The metrics
//! and time-series forms are derived views for dashboards: replayed
//! per-run results and per-round series, labeled with the header's run
//! identity.

use crate::json::{json_f64, Json};
use crate::recording::Recording;
use crate::replay::replay_run;
use nplus::SweepStats;

/// Serializes sweep statistics, one object per policy in comparison
/// order; every undefined float becomes `null`. The `sweep-server`
/// response and [`sweep_report_json`] both embed this form.
pub fn stats_to_json(stats: &[SweepStats]) -> Json {
    Json::Arr(
        stats
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("policy".to_string(), Json::Str(s.policy.clone())),
                    ("n_runs".to_string(), Json::Int(s.n_runs as i64)),
                    ("mean_total_mbps".to_string(), json_f64(s.mean_total_mbps)),
                    ("ci95_total_mbps".to_string(), json_f64(s.ci95_total_mbps)),
                    (
                        "mean_per_flow_mbps".to_string(),
                        Json::Arr(s.mean_per_flow_mbps.iter().map(|&v| json_f64(v)).collect()),
                    ),
                    ("mean_dof".to_string(), json_f64(s.mean_dof)),
                    ("mean_fairness".to_string(), json_f64(s.mean_fairness)),
                ])
            })
            .collect(),
    )
}

/// Renders a sweep's labels and statistics as the JSON report: one
/// compact line plus a newline. Floats print shortest-round-trip and
/// strings are escaped, so serial/parallel and live/replayed runs
/// compare bit for bit with a plain `diff`, and labels read back from
/// recording headers (any UTF-8) cannot break the document. `traffic`
/// and `mobility` take the models' canonical spec strings (what
/// recordings store verbatim).
pub fn sweep_report_json(
    scenario: &str,
    environment: &str,
    traffic: &str,
    mobility: &str,
    n_seeds: u64,
    rounds: usize,
    stats: &[SweepStats],
) -> String {
    let report = Json::Obj(vec![
        ("scenario".to_string(), Json::Str(scenario.to_string())),
        (
            "environment".to_string(),
            Json::Str(environment.to_string()),
        ),
        ("traffic".to_string(), Json::Str(traffic.to_string())),
        ("mobility".to_string(), Json::Str(mobility.to_string())),
        ("seeds".to_string(), json_u64(n_seeds)),
        ("rounds".to_string(), json_u64(rounds as u64)),
        ("stats".to_string(), stats_to_json(stats)),
    ]);
    let mut out = report.to_string_compact();
    out.push('\n');
    out
}

/// The per-run numbers one recording exports: the replayed result plus
/// frame tallies.
struct RunExport {
    total_mbps: f64,
    mean_dof: f64,
    airtime_s: f64,
    rounds: u64,
    contentions: u64,
    joins: u64,
    joins_accepted: u64,
}

fn run_export(rec: &Recording) -> RunExport {
    let result = replay_run(rec);
    let mut rounds = 0u64;
    let mut contentions = 0u64;
    let mut joins = 0u64;
    let mut joins_accepted = 0u64;
    let mut total_samples = 0u64;
    for event in &rec.events {
        match event {
            crate::recording::Event::Contention(_) => contentions += 1,
            crate::recording::Event::Join(ev) => {
                joins += 1;
                joins_accepted += u64::from(ev.accepted);
            }
            crate::recording::Event::Round(ev) => {
                rounds += 1;
                total_samples += ev.duration_samples;
            }
        }
    }
    RunExport {
        total_mbps: result.total_mbps,
        mean_dof: result.mean_dof,
        airtime_s: total_samples as f64 / rec.header.bandwidth_hz,
        rounds,
        contentions,
        joins,
        joins_accepted,
    }
}

/// Escapes a Prometheus label value (`\`, `"`, newline).
fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders one recording's label set, shared by every metric family.
fn labels(rec: &Recording) -> String {
    let h = &rec.header;
    format!(
        "{{policy=\"{}\",environment=\"{}\",scenario=\"{}\",seed=\"{}\"}}",
        escape_label(&h.policy),
        escape_label(&h.environment),
        escape_label(&h.scenario),
        h.seed,
    )
}

/// Renders Prometheus-style text metrics over the recordings: one
/// sample per run per family, labeled with the run's identity
/// (policy, environment, scenario, seed). Values come from replay —
/// bit-for-bit the live run's results — plus frame tallies. Output
/// order follows the input order, so sorted inputs give reproducible,
/// diff-able exports.
pub fn prometheus_metrics(recordings: &[Recording]) -> String {
    /// One metric family: name, Prometheus type, help text, and the
    /// per-run value renderer.
    type Family = (
        &'static str,
        &'static str,
        &'static str,
        Box<dyn Fn(&RunExport) -> String>,
    );
    let exports: Vec<(String, RunExport)> = recordings
        .iter()
        .map(|rec| (labels(rec), run_export(rec)))
        .collect();
    let families: [Family; 7] = [
        (
            "nplus_run_total_mbps",
            "gauge",
            "Total goodput of one recorded run, Mb/s (replayed, bit-exact).",
            Box::new(|e| format!("{}", e.total_mbps)),
        ),
        (
            "nplus_run_mean_dof",
            "gauge",
            "Mean degrees of freedom in use during data transfer.",
            Box::new(|e| format!("{}", e.mean_dof)),
        ),
        (
            "nplus_run_airtime_seconds",
            "gauge",
            "Total airtime the run consumed, seconds.",
            Box::new(|e| format!("{}", e.airtime_s)),
        ),
        (
            "nplus_run_rounds_total",
            "counter",
            "Rounds the run simulated.",
            Box::new(|e| format!("{}", e.rounds)),
        ),
        (
            "nplus_run_contentions_total",
            "counter",
            "Medium acquisitions (primary, join and scheduled).",
            Box::new(|e| format!("{}", e.contentions)),
        ),
        (
            "nplus_run_joins_total",
            "counter",
            "Secondary-contention join attempts.",
            Box::new(|e| format!("{}", e.joins)),
        ),
        (
            "nplus_run_joins_accepted_total",
            "counter",
            "Join attempts that went through.",
            Box::new(|e| format!("{}", e.joins_accepted)),
        ),
    ];
    let mut out = String::new();
    for (name, kind, help, value) in &families {
        out.push_str(&format!("# HELP {name} {help}\n"));
        out.push_str(&format!("# TYPE {name} {kind}\n"));
        for (labels, export) in &exports {
            out.push_str(&format!("{name}{labels} {}\n", value(export)));
        }
    }
    out
}

/// A `u64` as JSON, exact through [`Json::Int`] where it fits (every
/// realistic count does); values beyond `i64` fall back to the closest
/// float rather than failing the whole export.
fn json_u64(v: u64) -> Json {
    match i64::try_from(v) {
        Ok(i) => Json::Int(i),
        Err(_) => json_f64(v as f64),
    }
}

/// Renders per-run time series as JSON: one series per recording —
/// labeled with policy, environment, scenario, traffic, mobility and
/// seed — carrying parallel per-round arrays (round index, delivered
/// bits summed over flows, airtime samples, active stream count).
/// Derived views for dashboards; the recording itself stays the source
/// of truth.
pub fn time_series_json(recordings: &[Recording]) -> Json {
    let series: Vec<Json> = recordings
        .iter()
        .map(|rec| {
            let h = &rec.header;
            let mut rounds = Vec::new();
            let mut total_bits = Vec::new();
            let mut duration_samples = Vec::new();
            let mut active_streams = Vec::new();
            for ev in rec.round_events() {
                rounds.push(json_u64(ev.round as u64));
                total_bits.push(json_f64(ev.flow_bits.iter().sum()));
                duration_samples.push(json_u64(ev.duration_samples));
                active_streams.push(json_u64(ev.streams.len() as u64));
            }
            Json::Obj(vec![
                ("policy".to_string(), Json::Str(h.policy.clone())),
                ("environment".to_string(), Json::Str(h.environment.clone())),
                ("scenario".to_string(), Json::Str(h.scenario.clone())),
                ("traffic".to_string(), Json::Str(h.traffic.clone())),
                ("mobility".to_string(), Json::Str(h.mobility.clone())),
                ("seed".to_string(), json_u64(h.seed)),
                ("seed_index".to_string(), json_u64(h.seed_index as u64)),
                ("round".to_string(), Json::Arr(rounds)),
                ("total_bits".to_string(), Json::Arr(total_bits)),
                ("duration_samples".to_string(), Json::Arr(duration_samples)),
                ("active_streams".to_string(), Json::Arr(active_streams)),
            ])
        })
        .collect();
    Json::Obj(vec![("series".to_string(), Json::Arr(series))])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Labels come from recording headers, which accept any UTF-8:
    /// quotes, backslashes and newlines must be escaped, not pasted
    /// into the document.
    #[test]
    fn sweep_report_escapes_labels() {
        let stats = [SweepStats {
            policy: "x\"y".to_string(),
            n_runs: 2,
            mean_total_mbps: 12.5,
            ci95_total_mbps: 0.1,
            mean_per_flow_mbps: vec![12.5, 0.0],
            mean_dof: 1.5,
            mean_fairness: f64::NAN,
        }];
        let scenario = "a\"b\\c\n";
        let text = sweep_report_json(scenario, "sigcomm11", "saturated", "static", 2, 4, &stats);
        assert!(text.ends_with('\n') && !text[..text.len() - 1].contains('\n'));
        let doc = json::parse(&text).expect("the report is valid JSON");
        assert_eq!(doc.get("scenario").and_then(Json::as_str), Some(scenario));
        assert_eq!(doc.get("seeds").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("rounds").and_then(Json::as_u64), Some(4));
        let row = &doc.get("stats").and_then(Json::as_array).unwrap()[0];
        assert_eq!(row.get("policy").and_then(Json::as_str), Some("x\"y"));
        assert_eq!(
            row.get("mean_total_mbps").and_then(Json::as_f64),
            Some(12.5)
        );
        assert_eq!(row.get("mean_fairness"), Some(&Json::Null));
    }
}
