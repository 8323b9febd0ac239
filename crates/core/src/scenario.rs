//! Scenarios, from text to a placed world.
//!
//! Every simulated result starts here. The compact spec grammar
//! ([`parse_spec`]: `three_pairs`, `pairs:4`, `city:1024`,
//! `load:poisson:0.5/…`) is what the `sweep` CLI, the `sweep-server`
//! and the load generator accept; [`ScenarioGenerator`] draws the
//! seeded families the grammar names; `place` is the one recipe that
//! puts a scenario's nodes into a propagation world, for
//! [`SweepSpec`](crate::sim::SweepSpec).
//!
//! The grammar lives in `spec.rs` and the generator in `generator.rs`;
//! this module is their public face.

use nplus_channel::environment::{Environment, EnvironmentError};
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
/// This is the one placement recipe: a sweep seed is the placement
/// seed. Callers pick the testbed — the environment's smallest
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
