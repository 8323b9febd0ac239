//! Pluggable propagation environments.
//!
//! The paper's evaluation (§6) happens in exactly one world: the
//! 20-location indoor office map of Fig. 10, LOS/NLOS delay profiles,
//! one log-distance path-loss law, USRP2-class radio hardware. A
//! [`ChannelEnvironment`] packages every one of those previously
//! hard-wired choices — the placement map, the per-link large-scale
//! loss and delay-profile selection, the per-node oscillator-offset
//! draw, the [`HardwareProfile`] and the §4 cancellation-depth
//! assumption — behind one trait, so propagation worlds become as
//! pluggable as MAC policies are behind `MacPolicy`.
//!
//! The paper's world is the [`Sigcomm11Indoor`] default implementation,
//! pinned **bit-for-bit** against the pre-environment `build_topology`
//! path by the `environment_regression` suite (identical RNG draws in
//! identical order). Three environments the old closed structs could
//! not express ship alongside it:
//!
//! * [`OutdoorFreeSpace`] — an open 100 m × 65 m field: every link LOS,
//!   free-space exponent-2 loss over much longer ranges, near-flat
//!   two-tap channels;
//! * [`RichScatter`] — a heavily cluttered all-NLOS world: pure
//!   Rayleigh fading with a deep 12-tap delay spread, heavier
//!   shadowing, Gaussian oscillator offsets;
//! * [`DegradedHardware`] — the indoor world on worn radios: EVM and
//!   calibration stress that drops the achievable cancellation depth to
//!   ~17 dB, honestly reflected in the §4 power-control threshold `L`
//!   ([`ChannelEnvironment::join_power_l_db`]).
//!
//! Environments resolve by name through [`environment_from_name`] — the
//! same registry pattern as `policy_from_name` — and plug into
//! `SweepSpec::environment(..)` / `sweep --env` at the simulation layer.

use crate::fading::DelayProfile;
use crate::impairments::HardwareProfile;
use crate::pathloss::{sample_normal, LinkBudget, PathLossModel};
use crate::placement::{Location, Testbed};
use rand::RngCore;
use std::fmt;

/// Errors constructing a scenario's world: today, only a scenario too
/// large for any of the environment's placement maps. (These used to be
/// `assert!` panics inside the testbed placement helpers; they
/// surface as `Result`s through `SweepSpec::try_run` so a bad
/// `--env`/scenario combination reports cleanly.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvironmentError {
    /// The scenario needs more placement slots than the environment's
    /// largest map offers.
    TooManyNodes {
        /// Nodes the scenario wants to place.
        requested: usize,
        /// Slots the largest available map offers.
        capacity: usize,
    },
}

impl fmt::Display for EnvironmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvironmentError::TooManyNodes {
                requested,
                capacity,
            } => write!(f, "cannot place {requested} nodes on {capacity} locations"),
        }
    }
}

impl std::error::Error for EnvironmentError {}

/// How a node's oscillator offset is drawn.
///
/// The seed implementation drew offsets *uniformly* from `±2σ` while
/// naming the knob a sigma; this enum names both draws honestly. The
/// [`Uniform`](OscillatorDraw::Uniform) variant consumes the RNG
/// exactly as the old code did (one `gen::<f64>()`), so the default
/// environment stays bit-identical; [`Gaussian`](OscillatorDraw::Gaussian)
/// is the real normal draw new environments can opt into.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OscillatorDraw {
    /// Uniform in `±half_width_hz` — one `gen::<f64>()` per node, the
    /// seed code's draw under its honest name (the old
    /// `oscillator_sigma_hz: σ` is `half_width_hz: 2σ`, bit-identical).
    Uniform {
        /// Half-width of the offset range (Hz).
        half_width_hz: f64,
    },
    /// Normal with standard deviation `sigma_hz` (Box–Muller via
    /// [`sample_normal`]).
    Gaussian {
        /// Standard deviation of the offset (Hz).
        sigma_hz: f64,
    },
}

impl OscillatorDraw {
    /// The seed code's draw — uniform in ±4 kHz (the old
    /// `oscillator_sigma_hz: σ = 2 kHz` consumed as ±2σ) — shared by
    /// every world that keeps the paper's oscillators.
    pub const DEFAULT_UNIFORM: OscillatorDraw = OscillatorDraw::Uniform {
        half_width_hz: 4_000.0,
    };

    /// Draws one oscillator offset (Hz).
    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut rng = rng;
        match *self {
            // `(g - 0.5) * 2.0 * hw` rounds identically to the seed
            // code's `(g - 0.5) * 4.0 * σ` (power-of-two factors are
            // exact), keeping the default environment bit-for-bit.
            OscillatorDraw::Uniform { half_width_hz } => {
                (rand::Rng::gen::<f64>(&mut rng) - 0.5) * 2.0 * half_width_hz
            }
            OscillatorDraw::Gaussian { sigma_hz } => sample_normal(&mut rng) * sigma_hz,
        }
    }
}

/// A propagation world: every scenario-construction choice the paper's
/// evaluation hard-wired, as one pluggable trait.
///
/// `nplus_medium::topology::build_environment_topology` consumes the
/// hooks in a fixed order (placement shuffle, per-node oscillator
/// draws, then per-link loss + fading draws), so an environment's
/// topologies are a pure function of the seed. Implementations must be
/// stateless (`Send + Sync`): one environment value is shared across
/// sweep worker threads.
pub trait ChannelEnvironment: Send + Sync {
    /// Stable lower-case registry name (`"sigcomm11"`, `"outdoor"`, …)
    /// — what [`environment_from_name`] resolves and the CLI
    /// front-ends print.
    fn name(&self) -> &str;

    /// The largest node count this environment can place.
    fn capacity(&self) -> usize;

    /// The smallest stock placement map with at least `n_nodes` slots.
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] when even the largest map is
    /// too small.
    fn testbed(&self, n_nodes: usize) -> Result<Testbed, EnvironmentError>;

    /// LOS/NLOS classification of one link on this environment's map.
    /// Defaults to the map's own wall geometry.
    fn link_is_nlos(&self, testbed: &Testbed, a: &Location, b: &Location) -> bool {
        testbed.link_is_nlos(a, b)
    }

    /// One large-scale loss draw for a link (dB), including shadowing —
    /// consumes whatever RNG the model needs (the indoor default: one
    /// normal draw).
    fn sample_loss_db(&self, distance_m: f64, nlos: bool, rng: &mut dyn RngCore) -> f64;

    /// Amplitude scale (noise-floor-normalized) corresponding to a
    /// loss, i.e. the link budget.
    fn amplitude_scale(&self, loss_db: f64) -> f64;

    /// Small-scale delay profile for a link class. Defaults to the
    /// paper's LOS/NLOS profiles.
    fn delay_profile(&self, nlos: bool) -> DelayProfile {
        if nlos {
            DelayProfile::nlos()
        } else {
            DelayProfile::los()
        }
    }

    /// One per-node oscillator-offset draw (Hz).
    fn oscillator_offset_hz(&self, rng: &mut dyn RngCore) -> f64;

    /// Radio hardware quality in this environment (bounds cancellation
    /// depth). Defaults to the paper's USRP2/WLAN-class profile.
    fn hardware(&self) -> HardwareProfile {
        HardwareProfile::default()
    }

    /// The §4 join-power threshold `L` (dB) appropriate to this
    /// environment's hardware — the cancellation depth joiners may
    /// assume. Defaults to the paper's measured [`DEFAULT_L_DB`];
    /// environments with degraded radios must lower it to match
    /// [`HardwareProfile::expected_cancellation_depth_db`].
    fn join_power_l_db(&self) -> f64 {
        DEFAULT_L_DB
    }

    /// Received-power floor (dBm) below which a link is not
    /// materialized at all: topology construction skips the fading draw
    /// and installs nothing, and every consumer treats the absent link
    /// as "below the floor" (no carrier sensed, no interference, no
    /// service). `None` — the default, and the paper's worlds — keeps
    /// today's dense all-pairs wiring bit-for-bit. Drawn losses are
    /// converted for the comparison via
    /// [`received_power_dbm`](ChannelEnvironment::received_power_dbm).
    fn link_floor_dbm(&self) -> Option<f64> {
        None
    }

    /// Hard geometric cutoff (m) for candidate links: pairs farther
    /// apart never even get a loss draw, and sparse construction uses a
    /// spatial grid index at this range instead of the all-pairs scan.
    /// Only consulted when [`link_floor_dbm`](Self::link_floor_dbm) is
    /// set; `None` considers every pair.
    fn max_link_range(&self) -> Option<f64> {
        None
    }

    /// Received power (dBm) corresponding to one drawn large-scale
    /// loss, used for the [`link_floor_dbm`](Self::link_floor_dbm)
    /// test. Defaults to the paper's USRP2 transmit power minus the
    /// loss; environments that set a floor and transmit at a different
    /// power must override to their own budget.
    fn received_power_dbm(&self, loss_db: f64) -> f64 {
        LinkBudget::usrp2().tx_power_dbm - loss_db
    }

    /// Assigns `n_nodes` scenario nodes to concrete locations on
    /// `testbed`. Defaults to the paper's uniform random assignment
    /// (one shuffle — RNG consumption identical to the seed code);
    /// structured worlds whose scenario families index the map
    /// positionally (the `multi_cell` city grid) override with the
    /// identity layout, which consumes no RNG.
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] when the map is too small.
    fn assign_placements(
        &self,
        testbed: &Testbed,
        n_nodes: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Location>, EnvironmentError> {
        let mut rng = rng;
        testbed.try_random_assignment(n_nodes, &mut rng)
    }
}

/// The protocol's cancellation-depth parameter `L`, dB. The paper uses
/// 27 dB (Fig. 11's vertical threshold); this is the one source of
/// truth both the simulator's `SimConfig` default and
/// [`ChannelEnvironment::join_power_l_db`] draw from.
pub const DEFAULT_L_DB: f64 = 27.0;

/// The paper's world (§6, Fig. 10): the 20-location indoor office map
/// (two-wing 40-location extension for larger scenarios), log-distance
/// loss with LOS/NLOS exponents and wall penetration, Rician/Rayleigh
/// LOS/NLOS delay profiles, uniform `±4 kHz` oscillator offsets and
/// USRP2-class hardware.
///
/// This is the **default environment** and is pinned bit-for-bit
/// against the pre-environment `build_topology` path (the
/// `environment_regression` suite): identical RNG draws in identical
/// order, exact `f64` equality. The public fields let `build_topology`
/// keep its old `TopologyConfig` surface as a thin wrapper.
#[derive(Debug, Clone)]
pub struct Sigcomm11Indoor {
    /// Large-scale propagation model.
    pub path_loss: PathLossModel,
    /// Power/noise budget.
    pub budget: LinkBudget,
    /// Oscillator offset draw.
    pub oscillator: OscillatorDraw,
    /// Radio hardware quality.
    pub hardware: HardwareProfile,
    /// Explicit placement map override; `None` picks the smallest
    /// stock map that fits ([`Testbed::try_fitting`]).
    pub testbed: Option<Testbed>,
}

impl Sigcomm11Indoor {
    /// The paper's parameters, exactly as the seed code hard-coded
    /// them (`const` so the registry can hold a static instance).
    pub const fn new() -> Self {
        Sigcomm11Indoor {
            path_loss: PathLossModel::indoor(),
            budget: LinkBudget::usrp2(),
            oscillator: OscillatorDraw::DEFAULT_UNIFORM,
            hardware: HardwareProfile::wlan_class(),
            testbed: None,
        }
    }
}

impl Default for Sigcomm11Indoor {
    fn default() -> Self {
        Self::new()
    }
}

impl ChannelEnvironment for Sigcomm11Indoor {
    fn name(&self) -> &str {
        "sigcomm11"
    }

    fn capacity(&self) -> usize {
        match &self.testbed {
            Some(tb) => tb.len(),
            None => Testbed::sigcomm11_extended().len(),
        }
    }

    fn testbed(&self, n_nodes: usize) -> Result<Testbed, EnvironmentError> {
        match &self.testbed {
            Some(tb) => {
                tb.ensure_capacity(n_nodes)?;
                Ok(tb.clone())
            }
            None => Testbed::try_fitting(n_nodes),
        }
    }

    fn sample_loss_db(&self, distance_m: f64, nlos: bool, rng: &mut dyn RngCore) -> f64 {
        let mut rng = rng;
        self.path_loss.sample_loss_db(distance_m, nlos, &mut rng)
    }

    fn amplitude_scale(&self, loss_db: f64) -> f64 {
        self.budget.amplitude_scale(loss_db)
    }

    fn oscillator_offset_hz(&self, rng: &mut dyn RngCore) -> f64 {
        self.oscillator.sample(rng)
    }

    fn hardware(&self) -> HardwareProfile {
        self.hardware
    }
}

/// An open outdoor field: all-LOS free-space propagation (exponent 2,
/// light shadowing) over a 100 m × 65 m grid of 40 candidate locations
/// — link ranges several times the indoor map's — with a stronger
/// outdoor transmit budget, near-flat strongly Rician two-tap channels
/// and stock hardware. Registry name `"outdoor"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct OutdoorFreeSpace;

impl OutdoorFreeSpace {
    /// Free-space log-distance model: exponent 2 everywhere, no walls.
    pub const PATH_LOSS: PathLossModel = PathLossModel {
        pl0_db: 68.0,
        exponent_los: 2.0,
        exponent_nlos: 2.0,
        wall_loss_db: 0.0,
        shadowing_sigma_db: 2.0,
    };
    /// Outdoor radios transmit hotter (20 dBm) to span the field.
    pub const BUDGET: LinkBudget = LinkBudget {
        tx_power_dbm: 20.0,
        noise_floor_dbm: -98.0,
    };
    /// Near-flat strongly Rician channel: two taps, dominant direct
    /// path.
    pub const DELAY_PROFILE: DelayProfile = DelayProfile {
        n_taps: 2,
        decay_db_per_tap: 8.0,
        rician_k: 10.0,
    };
}

impl ChannelEnvironment for OutdoorFreeSpace {
    fn name(&self) -> &str {
        "outdoor"
    }

    fn capacity(&self) -> usize {
        Testbed::outdoor_field().len()
    }

    fn testbed(&self, n_nodes: usize) -> Result<Testbed, EnvironmentError> {
        let tb = Testbed::outdoor_field();
        tb.ensure_capacity(n_nodes)?;
        Ok(tb)
    }

    fn link_is_nlos(&self, _testbed: &Testbed, _a: &Location, _b: &Location) -> bool {
        false // free space: nothing to stand behind
    }

    fn sample_loss_db(&self, distance_m: f64, nlos: bool, rng: &mut dyn RngCore) -> f64 {
        let mut rng = rng;
        Self::PATH_LOSS.sample_loss_db(distance_m, nlos, &mut rng)
    }

    fn amplitude_scale(&self, loss_db: f64) -> f64 {
        Self::BUDGET.amplitude_scale(loss_db)
    }

    fn delay_profile(&self, _nlos: bool) -> DelayProfile {
        Self::DELAY_PROFILE
    }

    fn oscillator_offset_hz(&self, rng: &mut dyn RngCore) -> f64 {
        OscillatorDraw::DEFAULT_UNIFORM.sample(rng)
    }
}

/// A heavily cluttered all-NLOS world (factory floor / dense office):
/// every link is pure Rayleigh with a deep 12-tap delay spread, the
/// loss law has a single obstructed exponent with heavier shadowing,
/// and oscillator offsets are genuinely Gaussian (the draw the old
/// `oscillator_sigma_hz` field only pretended to make). Registry name
/// `"rich_scatter"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RichScatter;

impl RichScatter {
    /// Obstructed log-distance model: one exponent for every link,
    /// heavier shadowing than the office map.
    pub const PATH_LOSS: PathLossModel = PathLossModel {
        pl0_db: 68.0,
        exponent_los: 2.6,
        exponent_nlos: 2.6,
        wall_loss_db: 3.0,
        shadowing_sigma_db: 4.0,
    };
    /// Deep delay spread, no direct path anywhere.
    pub const DELAY_PROFILE: DelayProfile = DelayProfile {
        n_taps: 12,
        decay_db_per_tap: 1.2,
        rician_k: 0.0,
    };
    /// Gaussian oscillator draw (σ = 2 kHz).
    pub const OSCILLATOR: OscillatorDraw = OscillatorDraw::Gaussian { sigma_hz: 2_000.0 };
}

impl ChannelEnvironment for RichScatter {
    fn name(&self) -> &str {
        "rich_scatter"
    }

    fn capacity(&self) -> usize {
        Testbed::sigcomm11_extended().len()
    }

    fn testbed(&self, n_nodes: usize) -> Result<Testbed, EnvironmentError> {
        // The office geometry with every location behind clutter.
        let base = Testbed::try_fitting(n_nodes)?;
        Ok(Testbed::from_locations(
            base.locations()
                .iter()
                .map(|l| Location {
                    pos: l.pos,
                    nlos: true,
                })
                .collect(),
        ))
    }

    fn link_is_nlos(&self, _testbed: &Testbed, _a: &Location, _b: &Location) -> bool {
        true // everything scatters
    }

    fn sample_loss_db(&self, distance_m: f64, nlos: bool, rng: &mut dyn RngCore) -> f64 {
        let mut rng = rng;
        Self::PATH_LOSS.sample_loss_db(distance_m, nlos, &mut rng)
    }

    fn amplitude_scale(&self, loss_db: f64) -> f64 {
        LinkBudget::usrp2().amplitude_scale(loss_db)
    }

    fn delay_profile(&self, _nlos: bool) -> DelayProfile {
        Self::DELAY_PROFILE
    }

    fn oscillator_offset_hz(&self, rng: &mut dyn RngCore) -> f64 {
        Self::OSCILLATOR.sample(rng)
    }
}

/// The indoor world on worn radios: placement, propagation and fading
/// are bit-identical to [`Sigcomm11Indoor`] (same draws, same order),
/// but the hardware carries a 10 dB-worse EVM floor, 3× the calibration
/// residual and a 10 dB-worse channel estimator —
/// [`HardwareProfile::degraded`] — dropping the expected cancellation
/// depth from the paper's 25–27 dB to ~17 dB. The §4 threshold `L`
/// follows the hardware honestly
/// ([`join_power_l_db`](ChannelEnvironment::join_power_l_db) ≈ 17 dB),
/// stress-testing the paper's cancellation-depth assumption. Registry
/// name `"degraded_hardware"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DegradedHardware;

impl ChannelEnvironment for DegradedHardware {
    fn name(&self) -> &str {
        "degraded_hardware"
    }

    fn capacity(&self) -> usize {
        SIGCOMM11_INDOOR.capacity()
    }

    fn testbed(&self, n_nodes: usize) -> Result<Testbed, EnvironmentError> {
        SIGCOMM11_INDOOR.testbed(n_nodes)
    }

    fn sample_loss_db(&self, distance_m: f64, nlos: bool, rng: &mut dyn RngCore) -> f64 {
        SIGCOMM11_INDOOR.sample_loss_db(distance_m, nlos, rng)
    }

    fn amplitude_scale(&self, loss_db: f64) -> f64 {
        SIGCOMM11_INDOOR.amplitude_scale(loss_db)
    }

    fn oscillator_offset_hz(&self, rng: &mut dyn RngCore) -> f64 {
        SIGCOMM11_INDOOR.oscillator_offset_hz(rng)
    }

    fn hardware(&self) -> HardwareProfile {
        HardwareProfile::degraded()
    }

    fn join_power_l_db(&self) -> f64 {
        // The honest L: joiners may only assume the depth this
        // hardware can actually deliver (~17 dB, not the paper's 27).
        HardwareProfile::degraded().expected_cancellation_depth_db()
    }
}

/// A procedurally generated city district: a square grid of cells 45 m
/// apart, each one AP surrounded by seven stations 4–12 m out (the
/// [`Testbed::multi_cell`] map, up to [`MultiCell::CAPACITY`] slots).
/// Urban log-distance loss (exponent 3.2 LOS / 3.8 NLOS, 6 dB
/// shadowing) over a hot 20 dBm budget, and — the point of this world —
/// a **sparse link set**: pairs beyond [`MultiCell::MAX_LINK_RANGE_M`]
/// are never considered, and drawn links whose received power lands
/// below [`MultiCell::LINK_FLOOR_DBM`] are not materialized. In-cell
/// links (≤ 12 m) always clear the floor; adjacent-cell links survive
/// only on shadowing upswings (~1 in 6), so each node keeps a handful
/// of neighbors instead of thousands. Placement is the identity layout
/// (the `city:` scenario family indexes cells positionally). Registry
/// name `"multi_cell"`.
#[derive(Debug, Clone, Copy, Default)]
pub struct MultiCell;

impl MultiCell {
    /// Largest node count the procedural map serves (512 cells × 8).
    pub const CAPACITY: usize = 4096;
    /// Links farther than this never get a loss draw (two cell rings).
    pub const MAX_LINK_RANGE_M: f64 = 100.0;
    /// Received-power floor: links landing below are not materialized.
    pub const LINK_FLOOR_DBM: f64 = -95.0;
    /// Urban log-distance model: elevated exponents, heavy shadowing.
    pub const PATH_LOSS: PathLossModel = PathLossModel {
        pl0_db: 68.0,
        exponent_los: 3.2,
        exponent_nlos: 3.5,
        wall_loss_db: 3.0,
        shadowing_sigma_db: 6.0,
    };
    /// City radios transmit hot (20 dBm) over the urban noise floor.
    pub const BUDGET: LinkBudget = LinkBudget {
        tx_power_dbm: 20.0,
        noise_floor_dbm: -98.0,
    };
}

impl ChannelEnvironment for MultiCell {
    fn name(&self) -> &str {
        "multi_cell"
    }

    fn capacity(&self) -> usize {
        Self::CAPACITY
    }

    fn testbed(&self, n_nodes: usize) -> Result<Testbed, EnvironmentError> {
        if n_nodes > Self::CAPACITY {
            return Err(EnvironmentError::TooManyNodes {
                requested: n_nodes,
                capacity: Self::CAPACITY,
            });
        }
        // Generate exactly enough whole cells to cover the request.
        let cells = n_nodes.div_ceil(crate::placement::MULTI_CELL_GROUP).max(1);
        Ok(Testbed::multi_cell(cells))
    }

    fn sample_loss_db(&self, distance_m: f64, nlos: bool, rng: &mut dyn RngCore) -> f64 {
        let mut rng = rng;
        Self::PATH_LOSS.sample_loss_db(distance_m, nlos, &mut rng)
    }

    fn amplitude_scale(&self, loss_db: f64) -> f64 {
        Self::BUDGET.amplitude_scale(loss_db)
    }

    fn oscillator_offset_hz(&self, rng: &mut dyn RngCore) -> f64 {
        OscillatorDraw::DEFAULT_UNIFORM.sample(rng)
    }

    fn link_floor_dbm(&self) -> Option<f64> {
        Some(Self::LINK_FLOOR_DBM)
    }

    fn max_link_range(&self) -> Option<f64> {
        Some(Self::MAX_LINK_RANGE_M)
    }

    fn received_power_dbm(&self, loss_db: f64) -> f64 {
        Self::BUDGET.tx_power_dbm - loss_db
    }

    fn assign_placements(
        &self,
        testbed: &Testbed,
        n_nodes: usize,
        _rng: &mut dyn RngCore,
    ) -> Result<Vec<Location>, EnvironmentError> {
        // Identity layout: scenario node i occupies map slot i, so the
        // `city:` family's cell structure (slot 8k = cell k's AP) maps
        // straight onto the grid. Consumes no RNG — city topologies
        // still vary by seed through shadowing and fading draws.
        testbed.ensure_capacity(n_nodes)?;
        Ok(testbed.locations()[..n_nodes].to_vec())
    }
}

/// The paper's world as a static, for registries and defaults.
pub static SIGCOMM11_INDOOR: Sigcomm11Indoor = Sigcomm11Indoor::new();
/// [`OutdoorFreeSpace`] as a static.
pub static OUTDOOR_FREE_SPACE: OutdoorFreeSpace = OutdoorFreeSpace;
/// [`RichScatter`] as a static.
pub static RICH_SCATTER: RichScatter = RichScatter;
/// [`DegradedHardware`] as a static.
pub static DEGRADED_HARDWARE: DegradedHardware = DegradedHardware;
/// [`MultiCell`] as a static.
pub static MULTI_CELL: MultiCell = MultiCell;

/// The built-in environments by name, for CLI front-ends and
/// `SweepSpec::environment_named`: `"sigcomm11"` (the default),
/// `"outdoor"`, `"rich_scatter"`, `"degraded_hardware"`,
/// `"multi_cell"`.
pub fn environment_from_name(name: &str) -> Option<&'static dyn ChannelEnvironment> {
    Some(match name {
        "sigcomm11" => &SIGCOMM11_INDOOR,
        "outdoor" => &OUTDOOR_FREE_SPACE,
        "rich_scatter" => &RICH_SCATTER,
        "degraded_hardware" => &DEGRADED_HARDWARE,
        "multi_cell" => &MULTI_CELL,
        _ => return None,
    })
}

/// Names of every built-in environment, in presentation order.
pub const BUILTIN_ENVIRONMENT_NAMES: [&str; 5] = [
    "sigcomm11",
    "outdoor",
    "rich_scatter",
    "degraded_hardware",
    "multi_cell",
];

// One environment value is shared by every worker thread of a sweep.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Sigcomm11Indoor>();
    assert_send_sync::<OutdoorFreeSpace>();
    assert_send_sync::<RichScatter>();
    assert_send_sync::<DegradedHardware>();
    assert_send_sync::<MultiCell>();
    assert_send_sync::<&dyn ChannelEnvironment>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn builtin_names_round_trip_through_the_registry() {
        for name in BUILTIN_ENVIRONMENT_NAMES {
            let env = environment_from_name(name).expect("builtin must resolve");
            assert_eq!(env.name(), name);
        }
        assert!(environment_from_name("anechoic_chamber").is_none());
    }

    #[test]
    fn uniform_draw_is_bit_identical_to_the_seed_code() {
        // The seed code: `(gen::<f64>() - 0.5) * 4.0 * σ` with σ = 2 kHz.
        let draw = OscillatorDraw::Uniform {
            half_width_hz: 4_000.0,
        };
        for seed in 0..200u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let old = (a.gen::<f64>() - 0.5) * 4.0 * 2_000.0;
            let new = draw.sample(&mut b);
            assert_eq!(old.to_bits(), new.to_bits(), "seed {seed}");
        }
    }

    #[test]
    fn gaussian_draw_has_normal_moments() {
        let draw = OscillatorDraw::Gaussian { sigma_hz: 2_000.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| draw.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 60.0, "mean {mean}");
        assert!((var.sqrt() - 2_000.0).abs() < 100.0, "sigma {}", var.sqrt());
    }

    #[test]
    fn sigcomm11_matches_the_seed_defaults() {
        let env = Sigcomm11Indoor::default();
        assert_eq!(env.path_loss.pl0_db, PathLossModel::default().pl0_db);
        assert_eq!(env.budget.tx_power_dbm, LinkBudget::default().tx_power_dbm);
        assert_eq!(env.hardware.tx_evm_db, HardwareProfile::default().tx_evm_db);
        assert_eq!(env.join_power_l_db(), 27.0);
        assert_eq!(env.testbed(6).unwrap().len(), 20);
        assert_eq!(env.testbed(21).unwrap().len(), 40);
        assert_eq!(env.capacity(), 40);
        assert_eq!(
            env.testbed(41),
            Err(EnvironmentError::TooManyNodes {
                requested: 41,
                capacity: 40
            })
        );
    }

    #[test]
    fn sigcomm11_testbed_override_is_respected() {
        let small = Testbed::from_locations(Testbed::sigcomm11().locations()[..4].to_vec());
        let env = Sigcomm11Indoor {
            testbed: Some(small),
            ..Sigcomm11Indoor::default()
        };
        assert_eq!(env.capacity(), 4);
        assert_eq!(env.testbed(4).unwrap().len(), 4);
        assert!(matches!(
            env.testbed(5),
            Err(EnvironmentError::TooManyNodes {
                requested: 5,
                capacity: 4
            })
        ));
    }

    #[test]
    fn outdoor_is_all_los_with_longer_ranges() {
        let env = OutdoorFreeSpace;
        let tb = env.testbed(32).expect("40-slot field");
        assert_eq!(tb.len(), 40);
        assert!(tb.locations().iter().all(|l| !l.nlos));
        let locs = tb.locations();
        let mut max_d = 0.0f64;
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                max_d = max_d.max(locs[i].pos.distance(&locs[j].pos));
                assert!(!env.link_is_nlos(&tb, &locs[i], &locs[j]));
            }
        }
        // Several times the indoor map's ~17 m diagonal.
        assert!(max_d > 80.0, "outdoor span only {max_d:.1} m");
        // SNRs stay in an operable band across the whole field.
        assert!(mean_snr_db(&env, 12.0) < 35.0 && mean_snr_db(&env, 12.0) > 20.0);
        assert!(
            mean_snr_db(&env, max_d) > 5.0,
            "edge SNR {:.1}",
            mean_snr_db(&env, max_d)
        );
        // Strong direct path: LOS-profile variance below NLOS's.
        assert!(env.delay_profile(false).rician_k > DelayProfile::los().rician_k);
    }

    #[test]
    fn rich_scatter_is_all_nlos_rayleigh() {
        let env = RichScatter;
        let tb = env.testbed(6).unwrap();
        assert!(tb.locations().iter().all(|l| l.nlos));
        let a = tb.locations()[0];
        let b = tb.locations()[1];
        assert!(env.link_is_nlos(&tb, &a, &b));
        let p = env.delay_profile(false);
        assert_eq!(p.rician_k, 0.0, "pure Rayleigh");
        assert!(p.n_taps > DelayProfile::nlos().n_taps, "deeper spread");
        // Gaussian oscillator draw consumes two uniforms (Box–Muller),
        // not one — genuinely a different distribution.
        let mut rng = StdRng::seed_from_u64(9);
        let x = env.oscillator_offset_hz(&mut rng);
        assert!(x.is_finite());
    }

    #[test]
    fn degraded_hardware_shares_the_indoor_world() {
        let env = DegradedHardware;
        // Identical world draws, different hardware.
        for seed in 0..20u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(
                env.sample_loss_db(7.0, true, &mut a).to_bits(),
                SIGCOMM11_INDOOR.sample_loss_db(7.0, true, &mut b).to_bits()
            );
            assert_eq!(
                env.oscillator_offset_hz(&mut a).to_bits(),
                SIGCOMM11_INDOOR.oscillator_offset_hz(&mut b).to_bits()
            );
        }
        let depth = env.hardware().expected_cancellation_depth_db();
        assert!(
            (15.0..20.0).contains(&depth),
            "degraded cancellation depth {depth:.1} dB"
        );
        // L follows the hardware, not the paper's 27 dB assumption.
        assert_eq!(env.join_power_l_db(), depth);
        assert!(env.join_power_l_db() < SIGCOMM11_INDOOR.join_power_l_db() - 5.0);
    }

    #[test]
    fn dense_worlds_have_no_floor_by_default() {
        for name in ["sigcomm11", "outdoor", "rich_scatter", "degraded_hardware"] {
            let env = environment_from_name(name).unwrap();
            assert_eq!(env.link_floor_dbm(), None, "{name}");
            assert_eq!(env.max_link_range(), None, "{name}");
        }
        // Default received-power conversion uses the paper's 12 dBm
        // USRP2 transmit power.
        assert_eq!(SIGCOMM11_INDOOR.received_power_dbm(100.0), -88.0);
    }

    #[test]
    fn default_assignment_hook_is_the_seed_shuffle_bitwise() {
        let tb = Testbed::sigcomm11();
        for seed in 0..20u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let direct = tb.try_random_assignment(6, &mut a).unwrap();
            let hooked = SIGCOMM11_INDOOR.assign_placements(&tb, 6, &mut b).unwrap();
            for (x, y) in direct.iter().zip(&hooked) {
                assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits());
                assert_eq!(x.pos.y.to_bits(), y.pos.y.to_bits());
            }
            // And the RNGs are left in the same state.
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn multi_cell_is_a_sparse_city() {
        let env = MultiCell;
        assert_eq!(env.name(), "multi_cell");
        assert_eq!(env.capacity(), 4096);
        assert_eq!(env.link_floor_dbm(), Some(-95.0));
        assert_eq!(env.max_link_range(), Some(100.0));
        // Maps grow in whole cells sized to the request.
        assert_eq!(env.testbed(9).unwrap().len(), 16);
        assert_eq!(env.testbed(1024).unwrap().len(), 1024);
        assert!(matches!(
            env.testbed(4097),
            Err(EnvironmentError::TooManyNodes {
                requested: 4097,
                capacity: 4096
            })
        ));
        // Identity placement: no RNG consumed, slot i for node i.
        let tb = env.testbed(16).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let before = StdRng::seed_from_u64(5).gen::<u64>();
        let placed = env.assign_placements(&tb, 16, &mut rng).unwrap();
        assert_eq!(rng.gen::<u64>(), before, "identity layout draws nothing");
        for (i, l) in placed.iter().enumerate() {
            assert_eq!(l.pos.x.to_bits(), tb.locations()[i].pos.x.to_bits());
        }
        // In-cell links (<= 10 m) clear the floor by a wide margin even
        // on shadowing downswings; a full cell spacing rarely does.
        let mut rng = StdRng::seed_from_u64(1);
        let mut in_cell_ok = 0;
        let mut cross_ok = 0;
        let n = 2000;
        for _ in 0..n {
            let near = env.sample_loss_db(10.0, false, &mut rng);
            let far = env.sample_loss_db(45.0, false, &mut rng);
            if env.received_power_dbm(near) >= MultiCell::LINK_FLOOR_DBM {
                in_cell_ok += 1;
            }
            if env.received_power_dbm(far) >= MultiCell::LINK_FLOOR_DBM {
                cross_ok += 1;
            }
        }
        assert!(
            in_cell_ok > n * 95 / 100,
            "in-cell survival {in_cell_ok}/{n}"
        );
        assert!(cross_ok < n / 2, "cross-cell survival {cross_ok}/{n}");
        assert!(cross_ok > 0, "some cross-cell interference survives");
        // In-cell SNR lands in an operable band.
        let snr = mean_snr_db(&env, 8.0);
        assert!((10.0..40.0).contains(&snr), "in-cell SNR {snr:.1} dB");
    }

    /// Mean link SNR (dB) at a distance under an environment, shadowing
    /// averaged out over many draws.
    fn mean_snr_db(env: &dyn ChannelEnvironment, d: f64) -> f64 {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        (0..n)
            .map(|_| {
                let loss = env.sample_loss_db(d, false, &mut rng);
                20.0 * env.amplitude_scale(loss).log10()
            })
            .sum::<f64>()
            / n as f64
    }
}
