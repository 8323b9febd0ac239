//! City-scale sparse-world integration (DESIGN.md §9): the sparse
//! link-storage path must be a provably-identical generalisation of the
//! dense one, traffic models must preserve the paper's protocol
//! ordering, and thousand-node multi-cell sweeps must keep the
//! serial ≡ parallel determinism contract.

use nplus::prelude::*;
use nplus::scenario::{parse_spec, ScenarioGenerator};
use proptest::{proptest, ProptestConfig};

/// The paper's indoor world with sparse wiring force-enabled but set
/// below/above every physical budget: the received-power floor admits
/// every link a real radio could ever see, and the range cap is far
/// beyond the 40-slot map. Every other parameter is the stock
/// [`SIGCOMM11_INDOOR`]'s, so any result difference against the dense
/// default isolates the sparse storage path itself.
const FLOORED_INDOOR: Environment = Environment {
    name: "floored_sigcomm11",
    link_floor_dbm: Some(-1e9),
    max_link_range: Some(1e9),
    ..SIGCOMM11_INDOOR
};

/// Bitwise equality of sweep statistics — `to_bits` on every float, so
/// NaN fairness compares equal to itself and no tolerance can hide a
/// divergence.
fn stats_bits_identical(a: &[SweepStats], b: &[SweepStats]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.policy == y.policy
                && x.n_runs == y.n_runs
                && x.mean_total_mbps.to_bits() == y.mean_total_mbps.to_bits()
                && x.ci95_total_mbps.to_bits() == y.ci95_total_mbps.to_bits()
                && x.mean_dof.to_bits() == y.mean_dof.to_bits()
                && x.mean_fairness.to_bits() == y.mean_fairness.to_bits()
                && x.mean_per_flow_mbps.len() == y.mean_per_flow_mbps.len()
                && x.mean_per_flow_mbps
                    .iter()
                    .zip(&y.mean_per_flow_mbps)
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// All five registered policies, attached to a fresh spec.
fn all_policies(spec: SweepSpec) -> SweepSpec {
    let mut spec = spec;
    for name in BUILTIN_POLICY_NAMES {
        spec = spec.policy_named(name).unwrap();
    }
    spec
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sparse ≡ dense: on every generated ≤32-node scenario, the sweep
    /// with the sparse hooks enabled-but-permissive (floor below every
    /// budget, range beyond the map) is bit-for-bit identical to the
    /// dense default — under all five policies, at 1 and 2 threads.
    #[test]
    fn sparse_storage_is_bit_identical_to_dense(gen_seed in 0u64..10_000) {
        let scenario = ScenarioGenerator::new(gen_seed).random_for_capacity(32);
        let fresh = || {
            all_policies(
                SweepSpec::new(scenario.clone())
                    .rounds(4)
                    .seed_count(2),
            )
        };
        let dense = fresh().threads(1).run();
        for threads in [1, 2] {
            let sparse = fresh()
                .environment(FLOORED_INDOOR)
                .threads(threads)
                .run();
            proptest::prop_assert!(
                stats_bits_identical(&dense, &sparse),
                "sparse path diverged from dense at {} threads (gen seed {})",
                threads,
                gen_seed
            );
        }
    }
}

/// The paper's headline ordering — n+ at least matches 802.11n — must
/// survive non-saturated traffic: under a light and a heavy offered
/// load, total goodput under n+ stays >= 802.11n on the same world
/// (deterministic: fixed seeds, bit-reproducible engine, so this is a
/// regression pin rather than a statistical claim).
#[test]
fn nplus_matches_or_beats_dot11n_under_load() {
    for traffic in [
        TrafficModel::Poisson {
            mean_per_round: 0.5,
        },
        TrafficModel::Poisson {
            mean_per_round: 4.0,
        },
        TrafficModel::Bursty {
            mean_on_rounds: 3.0,
            mean_off_rounds: 5.0,
        },
    ] {
        let stats = SweepSpec::new(Scenario::three_pairs())
            .rounds(12)
            .seed_count(4)
            .traffic(traffic)
            .policy(Dot11n)
            .policy(NPlus)
            .run();
        assert_eq!(stats[0].policy, "dot11n");
        assert_eq!(stats[1].policy, "nplus");
        assert!(
            stats[1].mean_total_mbps >= stats[0].mean_total_mbps - 1e-9,
            "{traffic}: n+ {} Mb/s fell below 802.11n {} Mb/s",
            stats[1].mean_total_mbps,
            stats[0].mean_total_mbps
        );
    }
}

/// A 1024-node procedural city in the sparse multi-cell world completes
/// and keeps the determinism contract: `--threads 2` statistics are
/// bit-for-bit identical to the serial run.
#[test]
fn thousand_node_city_is_deterministic_across_threads() {
    let multi_cell = environment_from_name("multi_cell").expect("builtin environment");
    let scenario = parse_spec("city:1024", multi_cell.capacity())
        .expect("city:1024 fits the multi_cell world")
        .scenario;
    assert_eq!(scenario.antennas.len(), 1024);
    let fresh = || {
        SweepSpec::new(scenario.clone())
            .rounds(3)
            .seed_count(2)
            .policy(Dot11n)
            .policy(NPlus)
            .environment_named("multi_cell")
            .unwrap()
    };
    let serial = fresh().threads(1).run();
    let parallel = fresh().threads(2).run();
    assert!(
        stats_bits_identical(&serial, &parallel),
        "city sweep diverged between serial and 2-thread runs"
    );
    // The sparse world actually carries traffic: some flow in some cell
    // delivered bits under both policies.
    assert!(serial.iter().all(|s| s.mean_total_mbps > 0.0));
}
