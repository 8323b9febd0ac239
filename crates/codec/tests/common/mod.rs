//! Shared helpers for the codec integration suites: run a sweep from a
//! spec string with one [`RecordingObserver`] per (policy, seed), the
//! way the `sweep` bin's `--record` does, and keep the live results
//! alongside the encoded bytes for bit-for-bit comparison; and
//! re-encode a decoded [`Recording`] through the same observer.

#![allow(dead_code)]

use nplus::prelude::*;
use nplus::scenario::parse_spec;
use nplus::{RoundRecord, RunIdentity, RunMeta};
use nplus_codec::{Event, Recording, RecordingContext, RecordingObserver};
use std::io;

/// One recorded sweep: the encoded recordings in seed-major,
/// policy-within-seed order, plus everything the live run produced.
pub struct Recorded {
    /// The resolved spec (for canonical-key and re-run comparisons).
    pub spec: SweepSpec,
    /// Encoded recordings, `bytes[seed_index * n_policies + policy_index]`.
    pub bytes: Vec<Vec<u8>>,
    /// The live per-seed results the observed runs produced.
    pub live: Vec<SeedResults>,
    /// Live statistics from an independent, unobserved `try_run`.
    pub live_stats: Vec<SweepStats>,
    /// Resolved policy names, in job order.
    pub names: Vec<String>,
}

/// Records `n_seeds` x `policies` runs of `spec_str` in `env` and
/// returns the encoded recordings next to the live results.
pub fn record_sweep(
    spec_str: &str,
    env: &str,
    policies: &[&str],
    n_seeds: u64,
    rounds: usize,
) -> Recorded {
    let environment = environment_from_name(env).expect("known environment");
    let parsed = parse_spec(spec_str, environment.capacity()).expect("valid spec");
    let traffic = parsed.traffic.unwrap_or_default();
    let mut spec = SweepSpec::new(parsed.scenario)
        .rounds(rounds)
        .seed_count(n_seeds)
        .traffic(traffic)
        .environment_named(env)
        .expect("known environment");
    for name in policies {
        spec = spec.policy_named(name).expect("known policy");
    }
    let names = spec.policy_names();
    let runs = spec
        .try_run_observed(|seed_index, policy_index| {
            RecordingObserver::new(
                Vec::new(),
                RecordingContext {
                    scenario: spec_str.to_string(),
                    traffic: traffic.spec_string(),
                    mobility: MobilityModel::Static.spec_string(),
                    seed_index,
                    n_seeds: n_seeds as usize,
                    policy_index,
                    n_policies: names.len(),
                },
            )
        })
        .expect("sweep runs");
    let mut bytes = Vec::new();
    let mut live = Vec::new();
    for (results, recorders) in runs {
        for rec in recorders {
            bytes.push(rec.finish().expect("in-memory sink never fails"));
        }
        live.push(results);
    }
    let live_stats = spec.try_run().expect("sweep runs");
    Recorded {
        spec,
        bytes,
        live,
        live_stats,
        names,
    }
}

/// Re-encodes a decoded recording with the production encoder: its
/// header and events are replayed, in order, into a fresh
/// [`RecordingObserver`] over an in-memory sink.
///
/// # Errors
/// Whatever [`RecordingObserver::finish`] reports; a round index that
/// regresses is `InvalidData`.
pub fn reencode(rec: &Recording) -> io::Result<Vec<u8>> {
    let h = &rec.header;
    let mut obs = RecordingObserver::new(
        Vec::new(),
        RecordingContext {
            scenario: h.scenario.clone(),
            traffic: h.traffic.clone(),
            mobility: h.mobility.clone(),
            seed_index: h.seed_index,
            n_seeds: h.n_seeds,
            policy_index: h.policy_index,
            n_policies: h.n_policies,
        },
    );
    obs.on_run_start(&RunMeta {
        policy: &h.policy,
        n_flows: h.n_flows,
        rounds: h.rounds,
        bandwidth_hz: h.bandwidth_hz,
        identity: Some(RunIdentity {
            seed: h.seed,
            environment: h.environment.clone(),
            canonical_key: h.canonical_key,
        }),
    });
    for event in &rec.events {
        match event {
            Event::Contention(ev) => obs.on_contention(ev),
            Event::Join(ev) => obs.on_join(ev),
            Event::Round(ev) => obs.on_round_end(&RoundRecord {
                round: ev.round,
                body_symbols: ev.body_symbols,
                duration_samples: ev.duration_samples,
                flow_bits: &ev.flow_bits,
                streams: &ev.streams,
            }),
        }
    }
    obs.finish()
}

/// Asserts two floats are bitwise-identical (the recording contract —
/// stricter than `==`, which would pass `-0.0 == 0.0`).
pub fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

/// Asserts two run results are bitwise-identical in every float.
pub fn assert_run_bitwise(a: &RunResult, b: &RunResult, what: &str) {
    assert_bits(a.total_mbps, b.total_mbps, &format!("{what}: total_mbps"));
    assert_bits(a.mean_dof, b.mean_dof, &format!("{what}: mean_dof"));
    assert_eq!(
        a.per_flow_mbps.len(),
        b.per_flow_mbps.len(),
        "{what}: flows"
    );
    for (f, (x, y)) in a.per_flow_mbps.iter().zip(&b.per_flow_mbps).enumerate() {
        assert_bits(*x, *y, &format!("{what}: per_flow_mbps[{f}]"));
    }
}

/// Asserts two stat sets are bitwise-identical in every float.
pub fn assert_stats_bitwise(a: &[SweepStats], b: &[SweepStats]) {
    assert_eq!(a.len(), b.len(), "policy count");
    for (sa, sb) in a.iter().zip(b) {
        let w = &sa.policy;
        assert_eq!(sa.policy, sb.policy);
        assert_eq!(sa.n_runs, sb.n_runs, "{w}: n_runs");
        assert_bits(
            sa.mean_total_mbps,
            sb.mean_total_mbps,
            &format!("{w}: mean_total_mbps"),
        );
        assert_bits(
            sa.ci95_total_mbps,
            sb.ci95_total_mbps,
            &format!("{w}: ci95_total_mbps"),
        );
        assert_bits(sa.mean_dof, sb.mean_dof, &format!("{w}: mean_dof"));
        assert_bits(
            sa.mean_fairness,
            sb.mean_fairness,
            &format!("{w}: mean_fairness"),
        );
        assert_eq!(
            sa.mean_per_flow_mbps.len(),
            sb.mean_per_flow_mbps.len(),
            "{w}: flows"
        );
        for (f, (x, y)) in sa
            .mean_per_flow_mbps
            .iter()
            .zip(&sb.mean_per_flow_mbps)
            .enumerate()
        {
            assert_bits(*x, *y, &format!("{w}: mean_per_flow_mbps[{f}]"));
        }
    }
}
