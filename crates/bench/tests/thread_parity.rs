//! Thread-count parity, property-tested across the whole policy
//! registry: a sweep's statistics must not depend on the worker-thread
//! count, bit for bit. Scenarios are drawn from the generator family,
//! including the sparse procedural `city:` world. (That the cached SoA
//! tables equal the medium's direct evaluation is pinned one layer
//! down, by the `nplus-medium` chancache tests.)

use nplus::policy::BUILTIN_POLICY_NAMES;
use nplus::prelude::environment_from_name;
use nplus::scenario::{parse_spec, ScenarioGenerator};
use nplus::sim::{Scenario, SweepSpec, SweepStats};
use proptest::prelude::*;

/// Bitwise equality of two sweep-stat lists: every float must match
/// exactly.
fn stats_bitwise_eq(a: &[SweepStats], b: &[SweepStats]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.policy == y.policy
                && x.n_runs == y.n_runs
                && x.mean_total_mbps.to_bits() == y.mean_total_mbps.to_bits()
                && x.ci95_total_mbps.to_bits() == y.ci95_total_mbps.to_bits()
                && x.mean_per_flow_mbps.len() == y.mean_per_flow_mbps.len()
                && x.mean_per_flow_mbps
                    .iter()
                    .zip(&y.mean_per_flow_mbps)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
                && x.mean_dof.to_bits() == y.mean_dof.to_bits()
                && x.mean_fairness.to_bits() == y.mean_fairness.to_bits()
        })
}

/// `city:16`, parsed for the sparse `multi_cell` world.
fn city16() -> Scenario {
    let multi_cell = environment_from_name("multi_cell").expect("builtin environment");
    parse_spec("city:16", multi_cell.capacity())
        .expect("city:16 fits the multi_cell world")
        .scenario
}

/// Builds the all-policy spec for one generated scenario.
fn spec_for(kind: u8, gen_seed: u64, rounds: usize) -> SweepSpec {
    let mut generator = ScenarioGenerator::new(gen_seed);
    let (scenario, environment) = match kind {
        0 => (generator.n_pairs(2), None),
        1 => (generator.n_pairs(3), None),
        2 => (generator.hidden_terminal(3), None),
        3 => (generator.dense(8), None),
        // The sparse city world: links below the power floor are absent,
        // exercising the typed no-such-link path of the channel cache.
        _ => (city16(), Some("multi_cell")),
    };
    let mut spec = SweepSpec::new(scenario)
        .rounds(rounds)
        .seeds([gen_seed, gen_seed ^ 0xBEEF]);
    if let Some(env) = environment {
        spec = spec.environment_named(env).expect("builtin environment");
    }
    for name in BUILTIN_POLICY_NAMES {
        spec = spec.policy_named(name).expect("builtin policy");
    }
    spec
}

proptest! {
    // Each case runs 5 policies x 2 seeds x 2 sweep variants; a small
    // case count already covers every scenario family thanks to the
    // explicit `kind` strategy.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_policy_sweep_is_thread_count_invariant(
        kind in 0u8..5,
        gen_seed in 0u64..1_000,
        rounds in 3usize..7,
    ) {
        let serial = spec_for(kind, gen_seed, rounds).threads(1).run();
        let threaded = spec_for(kind, gen_seed, rounds).threads(2).run();

        prop_assert!(serial.iter().all(|s| s.mean_total_mbps.is_finite()));
        prop_assert!(
            stats_bitwise_eq(&serial, &threaded),
            "sweep depends on thread count (kind {kind}, seed {gen_seed})"
        );
    }
}
