//! Seeded builders for the paper's canonical scenarios.

use nplus::carrier_sense::MultiDimCarrierSense;
use nplus::observer::NullObserver;
use nplus::policy::Policy;
use nplus::sim::{RunResult, Scenario, SimConfig, SimEngine};
use nplus_channel::environment::{Environment, EnvironmentError, SIGCOMM11_INDOOR};
use nplus_channel::fading::DelayProfile;
use nplus_channel::mimo::MimoLink;
use nplus_linalg::{CMatrix, Complex64};
use nplus_medium::medium::{Medium, Transmission};
use nplus_medium::topology::{build_environment_topology, Topology};
use nplus_medium::NodeId;
use nplus_phy::params::OfdmConfig;
use nplus_phy::preamble::stf_time;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::fixtures::random_waveform;

/// The paper's 10 MHz USRP2 medium clock, shared by every scenario.
pub const BANDWIDTH_HZ: f64 = 10e6;

/// A scenario placed on the SIGCOMM'11 testbed, ready to simulate.
#[derive(Debug)]
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
pub fn build_scenario(scenario: Scenario, placement_seed: u64) -> BuiltScenario {
    build_scenario_in(&SIGCOMM11_INDOOR, scenario, placement_seed)
        .expect("scenario fits the paper's maps")
}

/// [`build_scenario`] in an arbitrary propagation environment: the map
/// comes from the environment's own [`testbed`](Environment::testbed),
/// the links from its loss/fading draws. Note the returned topology
/// does *not* carry the environment's
/// [`hardware`](Environment::hardware) — set it on the `SimConfig` (as
/// `SweepSpec::environment` does) when simulating.
///
/// # Errors
/// [`EnvironmentError::TooManyNodes`] when the scenario outsizes the
/// environment's largest map.
pub fn build_scenario_in(
    env: &Environment,
    scenario: Scenario,
    placement_seed: u64,
) -> Result<BuiltScenario, EnvironmentError> {
    let testbed = env.testbed(scenario.antennas.len())?;
    let mut rng = StdRng::seed_from_u64(placement_seed);
    let topology = build_environment_topology(
        env,
        &testbed,
        &scenario.antennas,
        BANDWIDTH_HZ,
        placement_seed,
        &mut rng,
    )?;
    Ok(BuiltScenario { scenario, topology })
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

/// Fig. 2: a single-antenna pair and a two-antenna pair on a
/// sample-level medium with strong links everywhere.
#[derive(Debug)]
pub struct TwoPairMedium {
    /// The sample-level medium holding all four nodes.
    pub medium: Medium,
    /// Single-antenna transmitter of pair 1.
    pub tx1: NodeId,
    /// Single-antenna receiver of pair 1.
    pub rx1: NodeId,
    /// Two-antenna transmitter of pair 2.
    pub tx2: NodeId,
    /// Two-antenna receiver of pair 2.
    pub rx2: NodeId,
}

impl TwoPairMedium {
    /// All four nodes in `[tx1, rx1, tx2, rx2]` order.
    pub fn nodes(&self) -> [NodeId; 4] {
        [self.tx1, self.rx1, self.tx2, self.rx2]
    }
}

/// Builds the Fig. 2 node set: tx1/rx1 single antenna, tx2/rx2 two
/// antennas, SNRs in the 12–28 dB range so decoding is clean.
pub fn two_pair_medium(seed: u64) -> TwoPairMedium {
    let cfg = OfdmConfig::usrp2();
    let mut medium = Medium::new(cfg.bandwidth_hz, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let tx1 = medium.add_node(1, 0.0);
    let rx1 = medium.add_node(1, 0.0);
    let tx2 = medium.add_node(2, 0.0);
    let rx2 = medium.add_node(2, 0.0);
    medium.set_link(
        tx1,
        rx1,
        MimoLink::sample(1, 1, 25.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx1,
        rx2,
        MimoLink::sample(1, 2, 18.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx2,
        rx1,
        MimoLink::sample(2, 1, 20.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx2,
        rx2,
        MimoLink::sample(2, 2, 28.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx1,
        tx2,
        MimoLink::sample(1, 2, 15.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        rx1,
        tx2,
        MimoLink::sample(1, 2, 15.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        rx1,
        rx2,
        MimoLink::sample(1, 2, 12.0, &DelayProfile::los(), &mut rng),
    );
    // This final draw overwrites the first tx1→rx1 link on purpose: the
    // suites' seeds are tuned against this exact RNG consumption order.
    medium.set_link(
        tx1,
        rx1,
        MimoLink::sample(1, 1, 25.0, &DelayProfile::los(), &mut rng),
    );
    TwoPairMedium {
        medium,
        tx1,
        rx1,
        tx2,
        rx2,
    }
}

/// Fig. 6/9: a strong single-antenna tx1 occupying the medium, a weak
/// 2-antenna tx2 that may join, and a 3-antenna tx3 sensing through a
/// projection orthogonal to tx1's signal.
#[derive(Debug)]
pub struct SensingTrio {
    /// The sample-level medium holding all three transmitters.
    pub medium: Medium,
    /// tx3's carrier-sense front end, pre-loaded with tx1's direction.
    pub sensor: MultiDimCarrierSense,
    /// Strong single-antenna occupant.
    pub tx1: NodeId,
    /// Weak two-antenna joiner.
    pub tx2: NodeId,
    /// Three-antenna node doing the sensing.
    pub tx3: NodeId,
}

/// Sample at which [`sensing_trio`]'s joiner starts transmitting.
pub const JOINER_START: u64 = 3000;

/// Builds one sensing experiment: tx1 transmits a 6000-sample white
/// waveform from t=0; if `tx2_transmits`, tx2 sends an STF followed by
/// payload from [`JOINER_START`]. The sensor projects tx1's true
/// channel away (estimation accuracy is tested elsewhere).
pub fn sensing_trio(seed: u64, tx1_amp: f64, tx2_amp: f64, tx2_transmits: bool) -> SensingTrio {
    let cfg = OfdmConfig::usrp2();
    let mut medium = Medium::new(cfg.bandwidth_hz, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF00D);
    let tx1 = medium.add_node(1, 0.0);
    let tx2 = medium.add_node(2, 0.0);
    let tx3 = medium.add_node(3, 0.0);
    medium.set_link(
        tx1,
        tx3,
        MimoLink::sample(1, 3, tx1_amp, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx2,
        tx3,
        MimoLink::sample(2, 3, tx2_amp, &DelayProfile::nlos(), &mut rng),
    );

    // tx1: continuous random payload (per-sample power 2.0) from t=0.
    let wave = random_waveform(6000, 2.0, &mut rng);
    medium.transmit(Transmission {
        from: tx1,
        start: 0,
        streams: vec![wave],
        cfo_precompensation_hz: 0.0,
    });

    if tx2_transmits {
        let stf = stf_time(&cfg);
        let mut streams = vec![stf.clone(), vec![Complex64::ZERO; stf.len()]];
        // Fill after the preamble with payload on both antennas.
        for s in streams.iter_mut() {
            s.extend(random_waveform(2000, 1.0, &mut rng));
        }
        medium.transmit(Transmission {
            from: tx2,
            start: JOINER_START,
            streams,
            cfo_precompensation_hz: 0.0,
        });
    }

    let h: Vec<CMatrix> = medium.link(tx1, tx3).unwrap().channel_matrices(cfg.fft_len);
    let sensor = MultiDimCarrierSense::from_ongoing(3, cfg, &[h]);
    SensingTrio {
        medium,
        sensor,
        tx1,
        tx2,
        tx3,
    }
}
