//! Where a run leaves its RNG, pinned bit for bit.
//!
//! The statistics goldens elsewhere pin what a run *computes*; this
//! suite pins how much randomness it *consumes*. Each case runs the
//! engine under the two imperfect-knowledge joining policies (`nplus`
//! and `greedy_join`) and digests every bit of the `RunResult` together
//! with the run RNG's next `u64` after the run. A believed-channel draw
//! that consumes one normal too few or too many moves that next `u64`
//! even where no result bit changes. The run RNG is private to the
//! sweep layer, so the suite lives inside the crate.
//!
//! The cases cover both shapes of join plan: `three_pairs` (every join
//! serves a single receiver), `ap_downlink` (multi-receiver joins and
//! openings), `multi_ap:2x3` (both), `three_pairs` on the
//! `degraded_hardware` profile (a larger calibration residual, drawn
//! all the same), and a 32-node `multi_cell` city (sparse links, so
//! some believed channels are absent and draw nothing).
//!
//! The goldens were recorded before the engine stopped computing
//! believed channels that no precoder reads.

use crate::observer::NullObserver;
use crate::policy::{GreedyJoin, NPlus, Policy};
use crate::scenario::{parse_spec, place};
use crate::sim::{Scenario, SimEngine, SweepSpec};
use nplus_channel::environment::{environment_from_name, Environment};
use nplus_testkit::Fnv;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const SEEDS: std::ops::Range<u64> = 0..3;
const ROUNDS: usize = 12;

/// Case label → (scenario, propagation world).
fn case(label: &str) -> (Scenario, &'static Environment) {
    let env = |name| environment_from_name(name).expect("builtin environment");
    let parsed = |spec: &str, world: &'static Environment| {
        let scenario = parse_spec(spec, world.capacity())
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .scenario;
        (scenario, world)
    };
    match label {
        "three_pairs" => (Scenario::three_pairs(), env("sigcomm11")),
        "ap_downlink" => (Scenario::ap_downlink(), env("sigcomm11")),
        "multi_ap:2x3" => parsed("multi_ap:2x3", env("sigcomm11")),
        "three_pairs/degraded_hardware" => (Scenario::three_pairs(), env("degraded_hardware")),
        "city:32/multi_cell" => parsed("city:32", env("multi_cell")),
        other => panic!("unknown case {other}"),
    }
}

/// Runs `policy` on `label` for every seed, placed and seeded as a
/// sweep places and seeds it: the digest of every `RunResult` bit, and
/// the digest of the run RNG's next `u64` after each run.
fn run_case(label: &str, policy: Policy) -> (u64, u64) {
    let (scenario, env) = case(label);
    let testbed = env.testbed(scenario.antennas.len()).expect("scenario fits");
    let spec = SweepSpec::new(scenario).environment(*env).rounds(ROUNDS);
    let (mut results, mut positions) = (Fnv::new(), Fnv::new());
    for seed in SEEDS {
        let topo = place(env, &testbed, &spec.scenario.antennas, seed).expect("scenario fits");
        let engine = SimEngine::new(&topo, &spec);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_CAFE);
        let r = engine.run(policy, &mut rng, &mut NullObserver, None);
        results.u64(r.per_flow_mbps.len() as u64);
        for &x in &r.per_flow_mbps {
            results.f64(x);
        }
        results.f64(r.total_mbps);
        results.f64(r.mean_dof);
        positions.u64(rng.next_u64());
    }
    (results.0, positions.0)
}

/// `(case, policy, RunResult digest, RNG-position digest)`.
const GOLDENS: [(&str, &str, u64, u64); 10] = [
    (
        "three_pairs",
        "nplus",
        0x9cbd_6c8b_2e16_02cf,
        0xb43c_39a4_b082_f377,
    ),
    (
        "three_pairs",
        "greedy_join",
        0x9cbd_6c8b_2e16_02cf,
        0xb43c_39a4_b082_f377,
    ),
    (
        "ap_downlink",
        "nplus",
        0x4010_e25c_3ea4_6343,
        0x980d_cb8b_b1f0_e2b8,
    ),
    (
        "ap_downlink",
        "greedy_join",
        0x4010_e25c_3ea4_6343,
        0x980d_cb8b_b1f0_e2b8,
    ),
    (
        "multi_ap:2x3",
        "nplus",
        0x8122_c90d_5817_8cbd,
        0x1b5d_4368_6aae_71f4,
    ),
    (
        "multi_ap:2x3",
        "greedy_join",
        0x23e9_fb6f_873a_7446,
        0x1b5d_4368_6aae_71f4,
    ),
    (
        "three_pairs/degraded_hardware",
        "nplus",
        0xe9e5_1dda_5ced_5038,
        0xb43c_39a4_b082_f377,
    ),
    (
        "three_pairs/degraded_hardware",
        "greedy_join",
        0xf6c9_ffd4_cb38_79eb,
        0xb43c_39a4_b082_f377,
    ),
    (
        "city:32/multi_cell",
        "nplus",
        0x4616_9de7_21cc_2dde,
        0x2e3c_6a8e_7b62_0789,
    ),
    (
        "city:32/multi_cell",
        "greedy_join",
        0x4616_9de7_21cc_2dde,
        0x2e3c_6a8e_7b62_0789,
    ),
];

/// Every case leaves both the run's results and the caller's RNG
/// exactly where they were when the goldens were recorded.
#[test]
fn run_results_and_rng_positions_are_pinned() {
    let got: Vec<(&str, &str, u64, u64)> = GOLDENS
        .iter()
        .map(|&(label, policy, _, _)| {
            let p = match policy {
                "nplus" => NPlus,
                "greedy_join" => GreedyJoin,
                other => panic!("unexpected policy {other}"),
            };
            let (results, position) = run_case(label, p);
            (label, policy, results, position)
        })
        .collect();
    assert_eq!(got, GOLDENS, "run results or RNG positions drifted");
}
