//! The propagation environments: one closed set of worlds.
//!
//! The paper's evaluation (§6) happens in exactly one world: the
//! 20-location indoor office map of Fig. 10, LOS/NLOS delay profiles,
//! one log-distance path-loss law, USRP2-class radio hardware. An
//! [`Environment`] names every one of those choices as a parameter —
//! the placement [`Map`], the large-scale loss law, the link budget, the
//! LOS and NLOS delay profiles, the per-node oscillator-offset draw, the
//! [`HardwareProfile`] and an optional sparse-wiring floor — and derives
//! the §4 cancellation-depth assumption `L` from the hardware.
//!
//! Five worlds ship, each a value:
//!
//! * [`SIGCOMM11_INDOOR`] — the paper's world and the default, pinned
//!   **bit-for-bit** by the `environment_regression` suite;
//! * `OUTDOOR_FREE_SPACE` — an open 100 m × 65 m field: every link
//!   LOS, free-space exponent-2 loss over much longer ranges, near-flat
//!   two-tap channels;
//! * `RICH_SCATTER` — a heavily cluttered all-NLOS world: pure
//!   Rayleigh fading with a deep 12-tap delay spread, heavier
//!   shadowing, Gaussian oscillator offsets;
//! * `DEGRADED_HARDWARE` — the indoor world on worn radios: EVM and
//!   calibration stress that drops the achievable cancellation depth to
//!   ~17 dB, honestly reflected in `L`
//!   ([`Environment::join_power_l_db`]);
//! * `MULTI_CELL` — a procedural city of up to 4096 nodes with a
//!   sparse link set.
//!
//! Environments resolve by name through [`environment_from_name`] — as
//! MAC policies do through `SweepSpec::policy_named` — and plug into
//! `SweepSpec::environment(..)` / `sweep --env` at the simulation layer.
//! A caller's own world is a struct update of a built-in. It runs like
//! any other, but it is not canonical: `SweepSpec::canonical` accepts
//! only a world equal, by value, to the registry entry of its name, so
//! a custom world can never reuse a built-in's cache key.

use crate::fading::DelayProfile;
use crate::impairments::HardwareProfile;
use crate::pathloss::{sample_normal, LinkBudget, PathLossModel};
use crate::placement::{Location, Testbed, MULTI_CELL_GROUP};
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
    /// `sample_normal`).
    Gaussian {
        /// Standard deviation of the offset (Hz).
        sigma_hz: f64,
    },
}

impl OscillatorDraw {
    /// The seed code's draw — uniform in ±4 kHz (the old
    /// `oscillator_sigma_hz: σ = 2 kHz` consumed as ±2σ) — shared by
    /// every world that keeps the paper's oscillators.
    pub(crate) const DEFAULT_UNIFORM: OscillatorDraw = OscillatorDraw::Uniform {
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

/// The protocol's cancellation-depth parameter `L`, dB. The paper uses
/// 27 dB (Fig. 11's vertical threshold); this is the one source of
/// truth both the simulator's default config and
/// [`Environment::join_power_l_db`] draw from.
pub const DEFAULT_L_DB: f64 = 27.0;

/// A world's placement map, and the one place for every rule that
/// depends on it: which map a scenario gets, which links are NLOS, and
/// how nodes are assigned to the map's slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// nplus:allow(VIS001): the type of the public field `Environment::map`
pub enum Map {
    /// The paper's 20-location office (Fig. 10), or its 40-location
    /// two-wing extension when a scenario outgrows it. LOS/NLOS follows
    /// the map's wall geometry.
    Office,
    /// The office geometry with every location behind clutter: every
    /// link is NLOS.
    ClutteredOffice,
    /// An open 100 m × 65 m field of 40 locations: every link is LOS.
    OutdoorField,
    /// A procedural city grid of [`MULTI_CELL_GROUP`]-slot cells, up to
    /// `Map::CITY_CAPACITY` slots, with the identity placement.
    City,
}

impl Map {
    /// Largest node count the city map serves (512 cells × 8).
    pub(crate) const CITY_CAPACITY: usize = 4096;

    /// The largest node count this map can place.
    pub(crate) fn capacity(self) -> usize {
        match self {
            Map::Office | Map::ClutteredOffice => Testbed::sigcomm11_extended().len(),
            Map::OutdoorField => Testbed::outdoor_field().len(),
            Map::City => Self::CITY_CAPACITY,
        }
    }

    /// The smallest stock map with at least `n_nodes` slots.
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] when even the largest map is
    /// too small.
    pub(crate) fn testbed(self, n_nodes: usize) -> Result<Testbed, EnvironmentError> {
        match self {
            Map::Office => Testbed::try_fitting(n_nodes),
            Map::ClutteredOffice => {
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
            Map::OutdoorField => {
                let tb = Testbed::outdoor_field();
                tb.ensure_capacity(n_nodes)?;
                Ok(tb)
            }
            Map::City => {
                if n_nodes > Self::CITY_CAPACITY {
                    return Err(EnvironmentError::TooManyNodes {
                        requested: n_nodes,
                        capacity: Self::CITY_CAPACITY,
                    });
                }
                // Generate exactly enough whole cells to cover the request.
                Ok(Testbed::multi_cell(
                    n_nodes.div_ceil(MULTI_CELL_GROUP).max(1),
                ))
            }
        }
    }

    /// LOS/NLOS classification of one link on `testbed`. The cluttered
    /// and outdoor maps decide it outright, whatever `testbed` says, so
    /// a caller-chosen testbed keeps their rule; the others follow the
    /// testbed's wall geometry.
    pub fn link_is_nlos(self, testbed: &Testbed, a: &Location, b: &Location) -> bool {
        match self {
            Map::ClutteredOffice => true,
            Map::OutdoorField => false,
            Map::Office | Map::City => testbed.link_is_nlos(a, b),
        }
    }

    /// Assigns `n_nodes` scenario nodes to slots of `testbed`. The city
    /// uses the identity layout, which draws nothing: its scenario
    /// family indexes cells positionally (slot 8k is cell k's AP), and
    /// city topologies still vary by seed through shadowing and fading.
    /// Every other map uses the paper's uniform random assignment (one
    /// shuffle).
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] when the map is too small
    /// (nothing is drawn from `rng` then).
    pub fn assign_placements(
        self,
        testbed: &Testbed,
        n_nodes: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<Location>, EnvironmentError> {
        match self {
            Map::City => {
                testbed.ensure_capacity(n_nodes)?;
                Ok(testbed.locations()[..n_nodes].to_vec())
            }
            Map::Office | Map::ClutteredOffice | Map::OutdoorField => {
                let mut rng = rng;
                testbed.try_random_assignment(n_nodes, &mut rng)
            }
        }
    }
}

/// A propagation world: every scenario-construction choice the paper's
/// evaluation hard-wired, as one value.
///
/// `nplus_medium::topology::build_environment_topology` reads the
/// fields in a fixed order (placement, per-node oscillator draws, then
/// per-link loss and fading draws), so a world's topologies are a pure
/// function of the seed. Only the [`Map`] and `L`
/// ([`join_power_l_db`](Environment::join_power_l_db)) carry rules;
/// everything else is a parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Environment {
    /// Stable lower-case registry name (`"sigcomm11"`, `"outdoor"`, …):
    /// what [`environment_from_name`] resolves, the CLI front-ends print
    /// and a sweep's cache key and recordings carry.
    pub name: &'static str,
    /// Placement map and the map-dependent rules.
    pub map: Map,
    /// Large-scale loss law, shadowing included.
    pub path_loss: PathLossModel,
    /// Power/noise budget: the link amplitude, and the received power
    /// (`tx_power_dbm` minus the loss) the floor is tested against.
    pub budget: LinkBudget,
    /// Small-scale delay profile of LOS links.
    pub los: DelayProfile,
    /// Small-scale delay profile of NLOS links.
    pub nlos: DelayProfile,
    /// Per-node oscillator-offset draw.
    pub oscillator: OscillatorDraw,
    /// Radio hardware quality (bounds the cancellation depth).
    pub hardware: HardwareProfile,
    /// Received-power floor (dBm) below which a link is not wired at
    /// all: no fading draw, no link in the medium, so no carrier sensed,
    /// no interference and no service. `None` keeps the dense all-pairs
    /// wiring.
    pub link_floor_dbm: Option<f64>,
    /// Hard geometric cutoff (m) for candidate links: farther pairs get
    /// no loss draw, and sparse construction queries a spatial grid at
    /// this range. Only consulted when `link_floor_dbm` is set; `None`
    /// considers every pair.
    pub max_link_range: Option<f64>,
}

impl Environment {
    /// The largest node count this world can place.
    pub fn capacity(&self) -> usize {
        self.map.capacity()
    }

    /// The smallest stock map of this world with at least `n_nodes`
    /// slots.
    ///
    /// # Errors
    /// [`EnvironmentError::TooManyNodes`] when even the largest map is
    /// too small.
    pub fn testbed(&self, n_nodes: usize) -> Result<Testbed, EnvironmentError> {
        self.map.testbed(n_nodes)
    }

    /// The §4 join-power threshold `L` (dB): the cancellation depth
    /// joiners may assume. On the paper's radios it is the measured
    /// [`DEFAULT_L_DB`]; on any other hardware it follows
    /// `HardwareProfile::expected_cancellation_depth_db`.
    pub fn join_power_l_db(&self) -> f64 {
        if self.hardware == HardwareProfile::wlan_class() {
            DEFAULT_L_DB
        } else {
            self.hardware.expected_cancellation_depth_db()
        }
    }
}

/// The paper's world (§6, Fig. 10): the 20-location indoor office map
/// (two-wing 40-location extension for larger scenarios), log-distance
/// loss with LOS/NLOS exponents and wall penetration, Rician/Rayleigh
/// LOS/NLOS delay profiles, uniform `±4 kHz` oscillator offsets and
/// USRP2-class hardware. The default environment, pinned bit-for-bit
/// by the `environment_regression` suite. Registry name `"sigcomm11"`.
pub const SIGCOMM11_INDOOR: Environment = Environment {
    name: "sigcomm11",
    map: Map::Office,
    path_loss: PathLossModel::indoor(),
    budget: LinkBudget::usrp2(),
    los: DelayProfile::los(),
    nlos: DelayProfile::nlos(),
    oscillator: OscillatorDraw::DEFAULT_UNIFORM,
    hardware: HardwareProfile::wlan_class(),
    link_floor_dbm: None,
    max_link_range: None,
};

/// The 20 dBm budget of the outdoor and city worlds, whose radios
/// transmit hot to span their maps.
const HOT_BUDGET: LinkBudget = LinkBudget {
    tx_power_dbm: 20.0,
    noise_floor_dbm: -98.0,
};

/// An open outdoor field: all-LOS free-space propagation (exponent 2,
/// light shadowing, no walls) over the 100 m × 65 m
/// [`Map::OutdoorField`] — link ranges several times the indoor map's —
/// with a 20 dBm budget, near-flat strongly Rician two-tap channels and
/// stock hardware. Registry name `"outdoor"`.
pub(crate) const OUTDOOR_FREE_SPACE: Environment = {
    let flat = DelayProfile {
        n_taps: 2,
        decay_db_per_tap: 8.0,
        rician_k: 10.0,
    };
    Environment {
        name: "outdoor",
        map: Map::OutdoorField,
        path_loss: PathLossModel {
            pl0_db: 68.0,
            exponent_los: 2.0,
            exponent_nlos: 2.0,
            wall_loss_db: 0.0,
            shadowing_sigma_db: 2.0,
        },
        budget: HOT_BUDGET,
        los: flat,
        nlos: flat,
        ..SIGCOMM11_INDOOR
    }
};

/// A heavily cluttered all-NLOS world (factory floor, dense office) on
/// the [`Map::ClutteredOffice`]: every link is pure Rayleigh with a deep
/// 12-tap delay spread, the loss law has one obstructed exponent with
/// heavier shadowing, and oscillator offsets are Gaussian (σ = 2 kHz).
/// Registry name `"rich_scatter"`.
pub(crate) const RICH_SCATTER: Environment = {
    let deep = DelayProfile {
        n_taps: 12,
        decay_db_per_tap: 1.2,
        rician_k: 0.0,
    };
    Environment {
        name: "rich_scatter",
        map: Map::ClutteredOffice,
        path_loss: PathLossModel {
            pl0_db: 68.0,
            exponent_los: 2.6,
            exponent_nlos: 2.6,
            wall_loss_db: 3.0,
            shadowing_sigma_db: 4.0,
        },
        los: deep,
        nlos: deep,
        oscillator: OscillatorDraw::Gaussian { sigma_hz: 2_000.0 },
        ..SIGCOMM11_INDOOR
    }
};

/// The indoor world on worn radios: placement, propagation and fading
/// draw exactly as in [`SIGCOMM11_INDOOR`], but the hardware is
/// [`HardwareProfile::degraded`] (10 dB worse EVM floor, 3× the
/// calibration residual, 10 dB worse estimator). That drops the
/// expected cancellation depth from the paper's 25–27 dB to ~17 dB,
/// and `L` follows it ([`Environment::join_power_l_db`]), stressing
/// the paper's cancellation-depth assumption. Registry name
/// `"degraded_hardware"`.
pub(crate) const DEGRADED_HARDWARE: Environment = Environment {
    name: "degraded_hardware",
    hardware: HardwareProfile::degraded(),
    ..SIGCOMM11_INDOOR
};

/// A procedurally generated city district on the [`Map::City`] grid:
/// cells 45 m apart, each one AP ringed by seven stations 4–12 m out.
/// Urban log-distance loss (exponent 3.2 LOS / 3.5 NLOS, 6 dB
/// shadowing) over a 20 dBm budget, and — the point of this world — a
/// **sparse link set**: pairs beyond 100 m are never considered, and
/// drawn links whose received power lands below −95 dBm are not wired.
/// In-cell links always clear the floor; adjacent-cell links survive
/// only on shadowing upswings, so each node keeps a handful of
/// neighbors instead of thousands. Registry name `"multi_cell"`.
pub(crate) const MULTI_CELL: Environment = Environment {
    name: "multi_cell",
    map: Map::City,
    path_loss: PathLossModel {
        pl0_db: 68.0,
        exponent_los: 3.2,
        exponent_nlos: 3.5,
        wall_loss_db: 3.0,
        shadowing_sigma_db: 6.0,
    },
    budget: HOT_BUDGET,
    link_floor_dbm: Some(-95.0),
    max_link_range: Some(100.0),
    ..SIGCOMM11_INDOOR
};

/// The built-in environments by name, for CLI front-ends and
/// `SweepSpec::environment_named`: `"sigcomm11"` (the default),
/// `"outdoor"`, `"rich_scatter"`, `"degraded_hardware"`,
/// `"multi_cell"`.
pub fn environment_from_name(name: &str) -> Option<&'static Environment> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn builtin_names_round_trip_through_the_registry() {
        for name in BUILTIN_ENVIRONMENT_NAMES {
            let env = environment_from_name(name).expect("builtin must resolve");
            assert_eq!(env.name, name);
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
        let env = SIGCOMM11_INDOOR;
        assert_eq!(env.path_loss, PathLossModel::default());
        assert_eq!(env.budget, LinkBudget::default());
        assert_eq!(env.hardware, HardwareProfile::default());
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
    fn outdoor_is_all_los_with_longer_ranges() {
        let env = OUTDOOR_FREE_SPACE;
        let tb = env.testbed(32).expect("40-slot field");
        assert_eq!(tb.len(), 40);
        assert!(tb.locations().iter().all(|l| !l.nlos));
        let locs = tb.locations();
        let mut max_d = 0.0f64;
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                max_d = max_d.max(locs[i].pos.distance(&locs[j].pos));
                assert!(!env.map.link_is_nlos(&tb, &locs[i], &locs[j]));
            }
        }
        // Even on a map with walls, nothing stands in the way.
        let office = Testbed::sigcomm11();
        let pairs = || {
            office
                .locations()
                .iter()
                .flat_map(|a| office.locations().iter().map(move |b| (a, b)))
        };
        assert!(pairs().any(|(a, b)| office.link_is_nlos(a, b)));
        assert!(pairs().all(|(a, b)| !env.map.link_is_nlos(&office, a, b)));
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
        assert!(env.los.rician_k > DelayProfile::los().rician_k);
    }

    #[test]
    fn rich_scatter_is_all_nlos_rayleigh() {
        let env = RICH_SCATTER;
        let tb = env.testbed(6).unwrap();
        assert!(tb.locations().iter().all(|l| l.nlos));
        // Every link scatters, even where the office's wall geometry
        // sees a line of sight.
        let office = Testbed::sigcomm11();
        let pairs = || {
            office
                .locations()
                .iter()
                .flat_map(|a| office.locations().iter().map(move |b| (a, b)))
        };
        assert!(pairs().any(|(a, b)| !office.link_is_nlos(a, b)));
        assert!(pairs().all(|(a, b)| env.map.link_is_nlos(&office, a, b)));
        for p in [env.los, env.nlos] {
            assert_eq!(p.rician_k, 0.0, "pure Rayleigh");
            assert!(p.n_taps > DelayProfile::nlos().n_taps, "deeper spread");
        }
        // Gaussian oscillator draw consumes two uniforms (Box–Muller),
        // not one — genuinely a different distribution.
        let mut rng = StdRng::seed_from_u64(9);
        let x = env.oscillator.sample(&mut rng);
        assert!(x.is_finite());
    }

    #[test]
    fn degraded_hardware_shares_the_indoor_world() {
        let env = DEGRADED_HARDWARE;
        // Identical world draws, different hardware.
        assert_eq!(
            Environment {
                name: SIGCOMM11_INDOOR.name,
                hardware: SIGCOMM11_INDOOR.hardware,
                ..env
            },
            SIGCOMM11_INDOOR
        );
        let depth = env.hardware.expected_cancellation_depth_db();
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
            assert_eq!(env.link_floor_dbm, None, "{name}");
            assert_eq!(env.max_link_range, None, "{name}");
        }
    }

    #[test]
    fn default_assignment_hook_is_the_seed_shuffle_bitwise() {
        let tb = Testbed::sigcomm11();
        for seed in 0..20u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            let direct = tb.try_random_assignment(6, &mut a).unwrap();
            let hooked = Map::Office.assign_placements(&tb, 6, &mut b).unwrap();
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
        let env = MULTI_CELL;
        assert_eq!(env.name, "multi_cell");
        assert_eq!(env.capacity(), 4096);
        let floor = env.link_floor_dbm.expect("the city is sparse");
        assert_eq!(floor, -95.0);
        assert_eq!(env.max_link_range, Some(100.0));
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
        let placed = env.map.assign_placements(&tb, 16, &mut rng).unwrap();
        assert_eq!(rng.gen::<u64>(), before, "identity layout draws nothing");
        for (i, l) in placed.iter().enumerate() {
            assert_eq!(l.pos.x.to_bits(), tb.locations()[i].pos.x.to_bits());
        }
        // In-cell links (<= 10 m) clear the floor by a wide margin even
        // on shadowing downswings; a full cell spacing rarely does.
        let mut rng = StdRng::seed_from_u64(1);
        let received = |d: f64, rng: &mut StdRng| {
            env.budget.tx_power_dbm - env.path_loss.sample_loss_db(d, false, rng)
        };
        let mut in_cell_ok = 0;
        let mut cross_ok = 0;
        let n = 2000;
        for _ in 0..n {
            if received(10.0, &mut rng) >= floor {
                in_cell_ok += 1;
            }
            if received(45.0, &mut rng) >= floor {
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
    fn mean_snr_db(env: &Environment, d: f64) -> f64 {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 2000;
        (0..n)
            .map(|_| {
                let loss = env.path_loss.sample_loss_db(d, false, &mut rng);
                20.0 * env.budget.amplitude_scale(loss).log10()
            })
            .sum::<f64>()
            / n as f64
    }
}
