//! The decimated SINR tier's error budget, property-tested: at the
//! benchmarked stride (`decimated:4`), the Monte-Carlo mean goodput of a
//! generated scenario stays within a bounded relative delta of the
//! full-grid run.
//!
//! The bound is **measured, not aspirational**: with 64-seed batches the
//! tier shows a consistent +2–5% optimism on the generator families
//! (planning *and* settlement only observe every 4th bin, so
//! frequency-selective notches in the unobserved bins never reduce
//! delivered bits — log-domain interpolation halves the effect but
//! cannot see a notch it never sampled). The proptest batches are
//! smaller (24 seeds, to keep the suite fast), which adds Monte-Carlo
//! noise on top of the bias; 10% bounds the sum with margin while still
//! catching any regression that decouples the tier from the full grid
//! (a broken interpolation or a mis-keyed cache shows up as 30%+).
//! DESIGN.md §10 records the measured bias alongside this bound.

use nplus::prelude::environment_from_name;
use nplus::scenario::{parse_spec, ScenarioGenerator};
use nplus::sim::{Scenario, SinrGrid, SweepSpec};
use proptest::prelude::*;

const DECIMATION: usize = 4;
const SEEDS_PER_BATCH: u64 = 24;
const MAX_REL_DELTA: f64 = 0.10;

/// `city:16`, parsed for the sparse `multi_cell` world.
fn city16() -> Scenario {
    let multi_cell = environment_from_name("multi_cell").expect("builtin environment");
    parse_spec("city:16", multi_cell.capacity())
        .expect("city:16 fits the multi_cell world")
        .scenario
}

fn mean_goodput(kind: u8, gen_seed: u64, grid: SinrGrid) -> f64 {
    let mut generator = ScenarioGenerator::new(gen_seed);
    let (scenario, environment) = match kind {
        0 => (generator.n_pairs(2), None),
        1 => (generator.n_pairs(3), None),
        2 => (generator.hidden_terminal(3), None),
        3 => (generator.dense(8), None),
        _ => (city16(), Some("multi_cell")),
    };
    let mut spec = SweepSpec::new(scenario)
        .rounds(12)
        .seeds((0..SEEDS_PER_BATCH).map(|i| gen_seed.wrapping_mul(31).wrapping_add(i)))
        .policy_named("nplus")
        .expect("builtin policy")
        .sinr_grid(grid);
    if let Some(env) = environment {
        spec = spec.environment_named(env).expect("builtin environment");
    }
    spec.run()[0].mean_total_mbps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn decimated_mean_goodput_within_budget(
        kind in 0u8..5,
        gen_seed in 0u64..1_000,
    ) {
        let full = mean_goodput(kind, gen_seed, SinrGrid::Full);
        let dec = mean_goodput(kind, gen_seed, SinrGrid::Decimated(DECIMATION));
        prop_assert!(full.is_finite() && dec.is_finite());
        prop_assert!(full > 0.0, "degenerate batch: zero full-grid goodput");
        let rel = (dec - full).abs() / full;
        prop_assert!(
            rel < MAX_REL_DELTA,
            "decimated:{DECIMATION} diverged {:.2}% from the full grid \
             (kind {kind}, seed {gen_seed}: full {full:.4} Mb/s, decimated {dec:.4} Mb/s)",
            rel * 100.0
        );
    }
}
