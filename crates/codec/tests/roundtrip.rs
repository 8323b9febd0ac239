//! Roundtrip and replay-equivalence suite: decoding a recording and
//! re-encoding it through `RecordingObserver` is bitwise-exact, replay reproduces live results bit-for-bit for every
//! built-in policy across environments and generated families
//! (including sparse `city:` worlds and non-saturated traffic), and
//! the diff localizes an injected divergence to its exact round and
//! field.

mod common;

use common::{assert_run_bitwise, assert_stats_bitwise, record_sweep, reencode};
use nplus_codec::{diff_recordings, replay_run, replay_sweep, Event, Recording};
use proptest::prelude::*;

/// Every built-in policy, in the order the suites sweep them.
const ALL_POLICIES: [&str; 5] = ["dot11n", "beamforming", "nplus", "oracle", "greedy_join"];

/// The acceptance bar: all five policies across two environments —
/// recordings decode back to the exact bytes, per-run replay matches
/// the live `RunResult` bit-for-bit, and sweep replay reproduces the
/// independently computed `SweepStats` bit-for-bit.
#[test]
fn replay_reproduces_sweeps_for_all_policies_across_environments() {
    for env in ["sigcomm11", "outdoor"] {
        let r = record_sweep("three_pairs", env, &ALL_POLICIES, 3, 5);
        let recs: Vec<Recording> = r
            .bytes
            .iter()
            .map(|b| Recording::decode(b).expect("recorded bytes decode"))
            .collect();
        for (bytes, rec) in r.bytes.iter().zip(&recs) {
            assert_eq!(&reencode(rec).expect("decoded recording re-encodes"), bytes);
            assert_eq!(diff_recordings(rec, rec), None);
        }
        for (i, rec) in recs.iter().enumerate() {
            let seed_index = i / ALL_POLICIES.len();
            let policy_index = i % ALL_POLICIES.len();
            assert_eq!(rec.header.policy, r.names[policy_index]);
            assert_eq!(rec.header.environment, env);
            let live = &r.live[seed_index].per_policy[policy_index];
            assert_run_bitwise(
                &replay_run(rec),
                live,
                &format!("{env}/{}/seed{seed_index}", rec.header.policy),
            );
        }
        let sweep = replay_sweep(&recs).expect("complete grid replays");
        assert_eq!(sweep.policies, r.names);
        assert_eq!(sweep.environment, env);
        assert_stats_bitwise(&sweep.stats, &r.live_stats);
    }
}

/// `replay_sweep` is input-order independent: a shuffled grid
/// reassembles to the same stats because positions are recorded in
/// each header.
#[test]
fn replay_sweep_is_input_order_independent() {
    let r = record_sweep("pairs:2", "sigcomm11", &["dot11n", "nplus"], 2, 4);
    let mut recs: Vec<Recording> = r
        .bytes
        .iter()
        .map(|b| Recording::decode(b).expect("recorded bytes decode"))
        .collect();
    recs.reverse();
    let sweep = replay_sweep(&recs).expect("shuffled grid replays");
    assert_stats_bitwise(&sweep.stats, &r.live_stats);
}

/// The header carries the full run identity: spec labels, grid
/// position, seed, and the spec's canonical v3 key.
#[test]
fn header_carries_run_identity() {
    let r = record_sweep(
        "load:poisson:0.5/pairs:2",
        "outdoor",
        &["nplus", "oracle"],
        2,
        3,
    );
    let key = r.spec.canonical().ok().map(|c| c.key());
    assert!(key.is_some(), "registry-named spec canonicalizes");
    for (i, bytes) in r.bytes.iter().enumerate() {
        let h = Recording::decode(bytes)
            .expect("recorded bytes decode")
            .header;
        assert_eq!(h.scenario, "load:poisson:0.5/pairs:2");
        assert_eq!(h.environment, "outdoor");
        assert_eq!(h.traffic, "poisson:0.5");
        assert_eq!(h.mobility, "static");
        assert_eq!(h.canonical_key, key);
        assert_eq!(h.seed_index, i / 2);
        assert_eq!(h.policy_index, i % 2);
        assert_eq!(h.n_seeds, 2);
        assert_eq!(h.n_policies, 2);
        assert_eq!(h.rounds, 3);
        assert_eq!(h.seed, r.spec.seed_list()[i / 2]);
        assert_eq!(h.policy, r.names[i % 2]);
    }
}

/// A one-ulp flip injected into one round's `flow_bits` is localized
/// to exactly that round and field.
#[test]
fn diff_localizes_injected_divergence() {
    let r = record_sweep("pairs:2", "sigcomm11", &["nplus"], 1, 4);
    let a = Recording::decode(&r.bytes[0]).expect("recorded bytes decode");
    let mut b = a.clone();
    let mut hit = false;
    for ev in &mut b.events {
        if let Event::Round(re) = ev {
            if re.round == 2 {
                re.flow_bits[1] = f64::from_bits(re.flow_bits[1].to_bits() ^ 1);
                hit = true;
                break;
            }
        }
    }
    assert!(hit, "round 2 exists");
    let d = diff_recordings(&a, &b).expect("divergence found");
    assert_eq!(d.round, Some(2));
    assert_eq!(d.field, "flow_bits[1]");
    assert_ne!(
        d.a, d.b,
        "rendered values show the ulp step: {} vs {}",
        d.a, d.b
    );
}

/// Recordings of different seeds diverge at the header (seed field),
/// not deep in the stream.
#[test]
fn diff_reports_seed_mismatch_in_header() {
    let r = record_sweep("pairs:2", "sigcomm11", &["nplus"], 2, 3);
    let a = Recording::decode(&r.bytes[0]).expect("recorded bytes decode");
    let b = Recording::decode(&r.bytes[1]).expect("recorded bytes decode");
    let d = diff_recordings(&a, &b).expect("different seeds diverge");
    assert_eq!(d.location, "header");
    assert_eq!(d.field, "seed");
}

/// Spec families the generator produces, the sparse `city:` world and
/// non-saturated traffic models included.
fn family() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("pairs:2"),
        Just("pairs:3"),
        Just("hidden:3"),
        Just("asym:2"),
        Just("multi_ap:2x2"),
        Just("city:8"),
        Just("load:poisson:0.5/pairs:2"),
        Just("load:bursty:3x9/hidden:3"),
    ]
}

proptest! {
    // Each case runs a real (small) sweep; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any (family, environment, policy): the recorded bytes decode
    /// to a recording that re-encodes to the same bytes, and replaying
    /// it reproduces the live result bit-for-bit.
    #[test]
    fn encode_decode_replay_bitwise(
        spec in family(),
        env_i in 0usize..2,
        policy_i in 0usize..ALL_POLICIES.len(),
        rounds in 1usize..5,
    ) {
        let env = ["sigcomm11", "outdoor"][env_i];
        let policy = ALL_POLICIES[policy_i];
        let r = record_sweep(spec, env, &[policy], 1, rounds);
        let rec = Recording::decode(&r.bytes[0]).expect("recorded bytes decode");
        prop_assert_eq!(&reencode(&rec).expect("re-encodes"), &r.bytes[0]);
        prop_assert_eq!(diff_recordings(&rec, &rec), None);
        let live = &r.live[0].per_policy[0];
        let replayed = replay_run(&rec);
        prop_assert_eq!(replayed.total_mbps.to_bits(), live.total_mbps.to_bits());
        prop_assert_eq!(replayed.mean_dof.to_bits(), live.mean_dof.to_bits());
        for (a, b) in replayed.per_flow_mbps.iter().zip(&live.per_flow_mbps) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
