//! The traced half of every workload: alternating untraced and traced
//! passes over the same sweeps (engine, sweep and tracing-overhead rows),
//! then alternating null-observer and recording passes (codec rows). All
//! passes must agree with the first untraced pass bit for bit, and so
//! must the replay of the recordings.

use crate::digest::stats_digest;
use crate::layers::{
    decode_and_replay, null_pass, recording_pass, traced_pass, untraced_pass, EngineStats, Job,
    SweepLayer,
};
use crate::report::Report;
use crate::stats::median;
use nplus::SweepStats;
use std::time::Instant;

/// Pairs per phase: at least this many, more while the budget lasts.
const MIN_PAIRS: usize = 2;
const MAX_PAIRS: usize = 12;

fn digests(stats: &[Vec<SweepStats>]) -> Vec<u64> {
    stats.iter().map(|s| stats_digest(s)).collect()
}

fn ratio_pct(num: &[f64], den: &[f64]) -> f64 {
    match (median(num), median(den)) {
        (Some(n), Some(d)) if d > 0.0 => (n / d - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Runs both phases over `jobs` within about `budget_s` seconds and
/// reports the engine, sweep, codec and `trace_overhead_pct` rows.
/// Returns the untraced statistics per job, or the first error.
///
/// # Errors
/// A sweep, recorder, decode or replay error's message.
pub fn engine_and_codec(
    jobs: &[Job],
    budget_s: f64,
    r: &mut Report,
) -> Result<Vec<Vec<SweepStats>>, String> {
    let started = Instant::now();
    let mut engine = EngineStats::default();
    let mut sweep = SweepLayer::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut reference: Option<(Vec<Vec<SweepStats>>, Vec<u64>)> = None;
    let phase_end = budget_s * 0.6;
    for pair in 0..MAX_PAIRS {
        if pair >= MIN_PAIRS && started.elapsed().as_secs_f64() >= phase_end {
            break;
        }
        // Alternate which side runs first, so drift favours neither.
        let (u, t) = if pair % 2 == 0 {
            let u = untraced_pass(jobs)?;
            (u, traced_pass(jobs, &mut engine, &mut sweep, pair == 0)?)
        } else {
            let t = traced_pass(jobs, &mut engine, &mut sweep, false)?;
            (untraced_pass(jobs)?, t)
        };
        let want = &reference
            .get_or_insert_with(|| (u.stats.clone(), digests(&u.stats)))
            .1;
        r.check(digests(&u.stats) == *want, || {
            "untraced passes disagree with each other".to_string()
        });
        r.check(digests(&t.stats) == *want, || {
            "the traced pass changed the statistics (observers must only listen)".to_string()
        });
        untraced_s.push(u.wall_s);
        traced_s.push(t.wall_s);
    }
    let (stats, want) = reference.ok_or("no pass ran")?;
    r.value("trace_overhead_pct", ratio_pct(&traced_s, &untraced_s), "%");
    engine.report(r);
    r.percentile("core.sweep.seed_ms.p50", &sweep.seed_ms, 50.0, "ms");
    r.percentile("core.sweep.seed_ms.p90", &sweep.seed_ms, 90.0, "ms");
    r.median("core.sweep.aggregate_us", &sweep.aggregate_us, "us");

    // The codec phase: a sizing run, then alternating null/recording.
    let (_, sizing) = recording_pass(jobs, 0)?;
    let capacity = sizing.iter().flatten().map(Vec::len).max().unwrap_or(0) + 64;
    let (mut null_s, mut rec_s) = (Vec::new(), Vec::new());
    let mut recordings = sizing;
    for pair in 0..MAX_PAIRS {
        if pair >= MIN_PAIRS && started.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        if pair % 2 == 0 {
            null_s.push(null_pass(jobs)?);
        }
        let (s, recs) = recording_pass(jobs, capacity)?;
        rec_s.push(s);
        recordings = recs;
        if pair % 2 == 1 {
            null_s.push(null_pass(jobs)?);
        }
    }
    r.value("codec.record_overhead_pct", ratio_pct(&rec_s, &null_s), "%");
    let bytes: usize = recordings.iter().flatten().map(Vec::len).sum();
    let (mut decode_rps, mut replay_rps) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        let rep = decode_and_replay(&recordings)?;
        r.check(digests(&rep.stats) == want, || {
            "replaying the recordings did not reproduce the live statistics".to_string()
        });
        let rounds = rep.rounds.max(1) as f64;
        r.value("codec.bytes_per_round", bytes as f64 / rounds, "B/round");
        decode_rps.push(rounds / rep.decode_s.max(1e-9));
        replay_rps.push(rounds / rep.replay_s.max(1e-9));
    }
    r.median("codec.decode_rounds_per_s", &decode_rps, "rounds/s");
    r.median("codec.replay_rounds_per_s", &replay_rps, "rounds/s");

    let canonical_us: Vec<f64> = (0..200)
        .map(|_| {
            let t = Instant::now();
            for (spec, _) in jobs {
                std::hint::black_box(spec.canonical().map(|c| c.key()).ok());
            }
            t.elapsed().as_secs_f64() * 1e6 / jobs.len().max(1) as f64
        })
        .collect();
    r.median("core.sweep.canonical_us", &canonical_us, "us");
    Ok(stats)
}
