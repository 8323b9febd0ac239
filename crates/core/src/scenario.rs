//! Scenarios, from text to a placed world.
//!
//! Every simulated result starts here. The compact spec grammar
//! ([`parse_spec`]: `three_pairs`, `pairs:4`, `city:1024`,
//! `load:poisson:0.5/…`) is what the `sweep` CLI, the `sweep-server`
//! and the load generator accept; [`ScenarioGenerator`] draws the
//! seeded families the grammar names; `place` is the one recipe that
//! puts a scenario's nodes into a propagation world, shared by
//! [`SweepSpec`](crate::sim::SweepSpec) and the figure binaries'
//! [`build_scenario`].
//!
//! The grammar lives in `spec.rs` and the generator in `generator.rs`;
//! this module is their public face.

use crate::observer::NullObserver;
use crate::policy::Policy;
use crate::sim::{RunResult, Scenario, SimConfig, SimEngine};
use nplus_channel::environment::{Environment, EnvironmentError, SIGCOMM11_INDOOR};
use nplus_channel::placement::Testbed;
use nplus_medium::topology::{build_environment_topology, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use crate::generator::ScenarioGenerator;
pub use crate::spec::{parse_spec, ParsedSpec};

/// The paper's 10 MHz USRP2 medium clock, shared by every scenario.
pub(crate) const BANDWIDTH_HZ: f64 = 10e6;

/// Places `antennas` on `testbed` in `env` for `seed`: the placement
/// RNG and the environment's per-link draws are both seeded by `seed`,
/// on the [`BANDWIDTH_HZ`] clock.
///
/// This is the one placement recipe: a sweep seed and a
/// [`build_scenario`] placement seed with equal values give equal
/// topologies. Callers pick the testbed — the environment's smallest
/// fitting map, [`Environment::testbed`] — so a sweep resolves it once
/// for all its seeds.
///
/// # Errors
/// [`EnvironmentError::TooManyNodes`] when `antennas` outsizes
/// `testbed`.
pub(crate) fn place(
    env: &Environment,
    testbed: &Testbed,
    antennas: &[usize],
    seed: u64,
) -> Result<Topology, EnvironmentError> {
    let mut rng = StdRng::seed_from_u64(seed);
    build_environment_topology(env, testbed, antennas, BANDWIDTH_HZ, seed, &mut rng)
}

/// A scenario placed on a testbed, ready to simulate.
#[derive(Debug)]
// nplus:allow(VIS001): the return type of the public `three_pairs`, `ap_downlink` and `build_scenario`
pub struct BuiltScenario {
    /// The traffic/antenna description being simulated.
    pub scenario: Scenario,
    /// Its placement on the testbed map, with per-link channels.
    pub topology: Topology,
}

impl BuiltScenario {
    /// Simulates `policy` (such as `NPlus`) under `cfg`, with the run
    /// RNG seeded by `sim_seed`.
    pub fn run(&self, policy: Policy, cfg: &SimConfig, sim_seed: u64) -> RunResult {
        let mut rng = StdRng::seed_from_u64(sim_seed);
        SimEngine::new(&self.topology, &self.scenario, cfg).run(
            policy,
            &mut rng,
            &mut NullObserver,
            None,
        )
    }
}

/// Place an arbitrary scenario on a random SIGCOMM'11 testbed draw.
///
/// Scenarios that fit the paper's 20-location map use it unchanged (so
/// existing seeds reproduce bit-identical placements); larger ones —
/// the generator's dense family goes to 32 nodes — place on the
/// two-wing extended map.
// nplus:allow(VIS001): the goldens tests/policy_regression.rs and tests/observer_contract.rs build placed scenarios with it
pub fn build_scenario(scenario: Scenario, placement_seed: u64) -> BuiltScenario {
    let env = &SIGCOMM11_INDOOR;
    let topology = env
        .testbed(scenario.antennas.len())
        .and_then(|testbed| place(env, &testbed, &scenario.antennas, placement_seed))
        .expect("scenario fits the paper's maps");
    BuiltScenario { scenario, topology }
}

/// Fig. 3: contending pairs with 1, 2 and 3 antennas.
pub fn three_pairs(placement_seed: u64) -> BuiltScenario {
    build_scenario(Scenario::three_pairs(), placement_seed)
}

/// Fig. 4: c1 (1 ant) → AP1 (2 ant) uplink while AP2 (3 ant) serves
/// c2/c3 (2 ant each) downlink.
pub fn ap_downlink(placement_seed: u64) -> BuiltScenario {
    build_scenario(Scenario::ap_downlink(), placement_seed)
}
