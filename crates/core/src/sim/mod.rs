//! Protocol-level network simulation: n+ versus 802.11n versus
//! multi-user beamforming versus the omniscient-scheduler upper bound.
//!
//! This module reproduces the methodology of the paper's §6.3–§6.4: for
//! a drawn topology, it simulates rounds of medium access and accounts
//! throughput per flow. The physics is real — every stream's pre-coding
//! vectors are computed per subcarrier from (hardware-corrupted)
//! channel knowledge, residual interference is evaluated against the
//! *true* channels, and bitrates come from per-stream effective SNRs —
//! while the MAC is simulated at the transmission-event level
//! (contention outcomes, handshakes and durations) rather than per
//! sample. The sample-level path is validated separately by the
//! Fig. 9/11 experiments and the integration tests.
//!
//! ## Architecture
//!
//! The module is layered (see `DESIGN.md` §2):
//!
//! * The crate-private `SimEngine` owns the physics and the round
//!   machinery: channels (cached via `ChannelCache`), precoding, SINR
//!   settlement, handshake and airtime accounting.
//! * A [`Policy`](crate::policy::Policy) makes every protocol
//!   decision. The closed set — [`NPlus`](crate::policy::NPlus),
//!   [`Dot11n`](crate::policy::Dot11n),
//!   [`Beamforming`](crate::policy::Beamforming),
//!   [`Oracle`](crate::policy::Oracle),
//!   [`GreedyJoin`](crate::policy::GreedyJoin) — lives in
//!   [`crate::policy`], resolvable by name through
//!   [`SweepSpec::policy_named`](crate::sim::SweepSpec::policy_named).
//! * [`RoundObserver`](crate::observer::RoundObserver) taps the round
//!   event stream; the engine's own accounting is the
//!   [`GoodputAccumulator`](crate::observer::GoodputAccumulator)
//!   observer.
//! * An [`Environment`](nplus_channel::environment::Environment) value
//!   supplies the propagation world the topologies are drawn from —
//!   placement map, path loss, delay profiles, oscillator draw and
//!   hardware profile. The paper's indoor office is the
//!   [`SIGCOMM11_INDOOR`](nplus_channel::environment::SIGCOMM11_INDOOR)
//!   default; outdoor, rich-scatter, degraded-hardware and multi-cell
//!   worlds ship alongside it and are selectable by name.
//! * [`SweepSpec`] ([`sweep`](mod@crate::sim)) is the one engine entry
//!   point: it builds seeded topologies in the chosen environment,
//!   shares one channel-cached engine per seed across all policies, and
//!   aggregates mean/CI statistics — serially or on a scoped-thread
//!   pool with bit-for-bit identical results. A single run is a sweep
//!   of one seed; [`SweepSpec::try_run_seed_observed`] hands back its
//!   per-policy [`RunResult`]s.

mod engine;
#[cfg(test)]
mod rng_position_regression;
mod sweep;

pub(crate) use engine::SimEngine;
pub use sweep::{aggregate_results, CanonicalSpec, SeedResults, SweepError, SweepSpec, SweepStats};

use std::fmt;
use std::str::FromStr;

/// One traffic flow: a transmitter node sending to a receiver node
/// (indices into the scenario's node list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flow {
    /// Transmitting node index.
    pub tx: usize,
    /// Receiving node index.
    pub rx: usize,
}

/// A network scenario: antenna counts plus traffic flows.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Antenna count per node.
    pub antennas: Vec<usize>,
    /// Traffic flows (backlogged).
    pub flows: Vec<Flow>,
}

impl Scenario {
    /// The paper's Fig. 3 scenario: three transmitter–receiver pairs with
    /// 1, 2 and 3 antennas. Node order: tx1, rx1, tx2, rx2, tx3, rx3.
    pub fn three_pairs() -> Self {
        Scenario {
            antennas: vec![1, 1, 2, 2, 3, 3],
            flows: vec![
                Flow { tx: 0, rx: 1 },
                Flow { tx: 2, rx: 3 },
                Flow { tx: 4, rx: 5 },
            ],
        }
    }

    /// The paper's Fig. 4 scenario: a single-antenna client uploading to
    /// a 2-antenna AP while a 3-antenna AP serves two 2-antenna clients.
    /// Node order: c1, AP1, AP2, c2, c3.
    pub fn ap_downlink() -> Self {
        Scenario {
            antennas: vec![1, 2, 3, 2, 2],
            flows: vec![
                Flow { tx: 0, rx: 1 }, // c1 -> AP1
                Flow { tx: 2, rx: 3 }, // AP2 -> c2
                Flow { tx: 2, rx: 4 }, // AP2 -> c3
            ],
        }
    }

    /// Distinct transmitter node indices that have traffic.
    pub(crate) fn transmitters(&self) -> Vec<usize> {
        let mut txs: Vec<usize> = self.flows.iter().map(|f| f.tx).collect();
        txs.sort_unstable();
        txs.dedup();
        txs
    }

    /// Flow indices of a transmitter.
    pub(crate) fn flows_of(&self, tx: usize) -> Vec<usize> {
        self.flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.tx == tx)
            .map(|(i, _)| i)
            .collect()
    }

    /// Structural validation: the checks a scenario must pass before the
    /// engine may see it. A scenario violating any of these used to
    /// panic deep inside topology construction or the round loop; every
    /// served entry point ([`SweepSpec::try_run`],
    /// [`CanonicalSpec`], the `sweep-server`
    /// protocol) now rejects it up front with the returned message.
    ///
    /// Rules: at least one node and one flow, every node's antenna count
    /// in `1..=`[`MAX_NODE_ANTENNAS`], every flow's endpoints distinct
    /// in-range node indices.
    ///
    /// # Errors
    /// A one-line human-readable description of the first violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        let n = self.antennas.len();
        if n == 0 {
            return Err("scenario has no nodes".to_string());
        }
        for (i, &a) in self.antennas.iter().enumerate() {
            if a == 0 || a > MAX_NODE_ANTENNAS {
                return Err(format!(
                    "node {i}: antenna count {a} outside 1..={MAX_NODE_ANTENNAS}"
                ));
            }
        }
        if self.flows.is_empty() {
            return Err("scenario has no flows".to_string());
        }
        for (i, f) in self.flows.iter().enumerate() {
            if f.tx >= n || f.rx >= n {
                return Err(format!(
                    "flow {i}: endpoints {}->{} outside the {n}-node scenario",
                    f.tx, f.rx
                ));
            }
            if f.tx == f.rx {
                return Err(format!("flow {i}: node {} transmits to itself", f.tx));
            }
        }
        Ok(())
    }
}

/// Largest per-node antenna count [`Scenario::validate`] accepts. The
/// paper's testbed tops out at 3, the scenario generator at 4; 8 leaves
/// headroom for synthetic arrays while bounding the matrix sizes a
/// served request can demand.
pub(crate) const MAX_NODE_ANTENNAS: usize = 8;

/// Per-flow offered-load model.
///
/// [`Saturated`](TrafficModel::Saturated) is the paper's methodology —
/// every flow always has a packet queued — and is the pinned default:
/// it draws **zero** RNG and takes the exact legacy round path, so all
/// pre-traffic results are bit-for-bit unchanged. The other models keep
/// a per-flow packet queue in the engine: arrivals are drawn from the
/// run RNG at the start of every round in flow order, only transmitters
/// with backlogged flows contend, and each serviced flow drains one
/// packet per round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TrafficModel {
    /// Every flow is always backlogged (the paper's assumption).
    #[default]
    Saturated,
    /// Independent Poisson arrivals with the given mean packets per
    /// round per flow (Knuth sampling — deterministic in the RNG
    /// stream).
    Poisson {
        /// Mean packet arrivals per round per flow (> 0, at most 700).
        mean_per_round: f64,
    },
    /// ON/OFF bursts: while ON a flow receives
    /// `BURST_ARRIVALS_PER_ROUND` packets per round, while OFF none;
    /// dwell times are geometric with the given means (one uniform
    /// draw per flow per round — a fixed RNG budget). Flows start ON.
    Bursty {
        /// Mean ON dwell in rounds (>= 1, finite).
        mean_on_rounds: f64,
        /// Mean OFF dwell in rounds (>= 1, finite).
        mean_off_rounds: f64,
    },
}

/// Packets arriving per round to a flow in the ON phase of
/// [`TrafficModel::Bursty`].
pub(crate) const BURST_ARRIVALS_PER_ROUND: u64 = 3;

/// Largest [`TrafficModel::Poisson`] mean the engine accepts. Knuth's
/// product method stops once the running product of uniforms reaches
/// `e^-mean`; above about 708 that threshold is subnormal or zero, the
/// loop ends only when the product underflows, and every draw is about
/// 745 whatever the mean. 700 keeps `e^-mean` a normal `f64`.
const POISSON_MEAN_MAX: f64 = 700.0;

// Parameters are validated finite (see `TrafficModel::validate`), so
// the partial equivalence is total on every value that can reach a
// sweep — required for `CanonicalSpec`'s derived `Eq`.
impl Eq for TrafficModel {}

impl TrafficModel {
    /// Structural validation mirroring [`Scenario::validate`]: model
    /// parameters must be finite and positive (ON/OFF dwells at least
    /// one round) before a spec may reach the engine.
    ///
    /// # Errors
    /// A one-line human-readable description of the violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            TrafficModel::Saturated => Ok(()),
            TrafficModel::Poisson { mean_per_round } => {
                if !(mean_per_round.is_finite() && mean_per_round > 0.0) {
                    Err(format!(
                        "poisson mean {mean_per_round} not a positive finite"
                    ))
                } else if mean_per_round > POISSON_MEAN_MAX {
                    Err(format!(
                        "poisson mean {mean_per_round} above {POISSON_MEAN_MAX}"
                    ))
                } else {
                    Ok(())
                }
            }
            TrafficModel::Bursty {
                mean_on_rounds,
                mean_off_rounds,
            } => {
                for (name, v) in [("on", mean_on_rounds), ("off", mean_off_rounds)] {
                    if !v.is_finite() || v < 1.0 {
                        return Err(format!("bursty mean {name} dwell {v} below one round"));
                    }
                }
                Ok(())
            }
        }
    }

    /// The model's stable spec-string form — what [`FromStr`] parses
    /// back: `saturated`, `poisson:<mean>`, `bursty:<on>x<off>`.
    pub fn spec_string(&self) -> String {
        match *self {
            TrafficModel::Saturated => "saturated".to_string(),
            TrafficModel::Poisson { mean_per_round } => format!("poisson:{mean_per_round}"),
            TrafficModel::Bursty {
                mean_on_rounds,
                mean_off_rounds,
            } => format!("bursty:{mean_on_rounds}x{mean_off_rounds}"),
        }
    }
}

impl fmt::Display for TrafficModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for TrafficModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let model = if s == "saturated" {
            TrafficModel::Saturated
        } else if let Some(mean) = s.strip_prefix("poisson:") {
            let mean_per_round: f64 = mean
                .parse()
                .map_err(|_| format!("bad poisson mean {mean:?}"))?;
            TrafficModel::Poisson { mean_per_round }
        } else if let Some(dwells) = s.strip_prefix("bursty:") {
            let (on, off) = dwells
                .split_once('x')
                .ok_or_else(|| format!("bursty wants <on>x<off>, got {dwells:?}"))?;
            TrafficModel::Bursty {
                mean_on_rounds: on.parse().map_err(|_| format!("bad on dwell {on:?}"))?,
                mean_off_rounds: off.parse().map_err(|_| format!("bad off dwell {off:?}"))?,
            }
        } else {
            return Err(format!(
                "unknown traffic model {s:?} (expected saturated, poisson:<mean> or bursty:<on>x<off>)"
            ));
        };
        model.validate()?;
        Ok(model)
    }
}

/// Node mobility model.
///
/// [`Static`](MobilityModel::Static) is the pinned default: nodes stay
/// where the placement draw put them, zero RNG is consumed, and every
/// pre-mobility result is bit-for-bit unchanged.
/// [`Waypoint`](MobilityModel::Waypoint) models *slow* pedestrian drift:
/// every `epoch_rounds` rounds one node (round-robin) steps `step_m`
/// metres in a uniformly drawn direction, and only the cached channel
/// tables of links touching that node are re-derived (a distance-law
/// rescale of the pristine tables — the incremental invalidation the
/// city-scale cache is built for). The link set itself stays frozen at
/// its t = 0 draw: a flow whose link started below the floor does not
/// spring to life mid-run, and a link that started above it fades
/// rather than vanishes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum MobilityModel {
    /// Nodes never move (the paper's assumption).
    #[default]
    Static,
    /// Slow round-robin waypoint drift.
    Waypoint {
        /// Step length in metres per epoch (> 0, finite).
        step_m: f64,
        /// Rounds between movement epochs (>= 1).
        epoch_rounds: usize,
    },
}

// As with `TrafficModel`: parameters are validated finite, making the
// derived partial equivalence total in practice.
impl Eq for MobilityModel {}

impl MobilityModel {
    /// Structural validation: step length finite and positive, epoch at
    /// least one round.
    ///
    /// # Errors
    /// A one-line human-readable description of the violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            MobilityModel::Static => Ok(()),
            MobilityModel::Waypoint {
                step_m,
                epoch_rounds,
            } => {
                if !step_m.is_finite() || step_m <= 0.0 {
                    return Err(format!("waypoint step {step_m} not a positive finite"));
                }
                if epoch_rounds == 0 {
                    return Err("waypoint epoch of zero rounds".to_string());
                }
                Ok(())
            }
        }
    }

    /// The model's stable spec-string form — what [`FromStr`] parses
    /// back: `static`, `waypoint:<step_m>x<epoch_rounds>`.
    pub fn spec_string(&self) -> String {
        match *self {
            MobilityModel::Static => "static".to_string(),
            MobilityModel::Waypoint {
                step_m,
                epoch_rounds,
            } => format!("waypoint:{step_m}x{epoch_rounds}"),
        }
    }
}

impl fmt::Display for MobilityModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for MobilityModel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let model = if s == "static" {
            MobilityModel::Static
        } else if let Some(params) = s.strip_prefix("waypoint:") {
            let (step, epoch) = params
                .split_once('x')
                .ok_or_else(|| format!("waypoint wants <step_m>x<epoch_rounds>, got {params:?}"))?;
            MobilityModel::Waypoint {
                step_m: step.parse().map_err(|_| format!("bad step {step:?}"))?,
                epoch_rounds: epoch.parse().map_err(|_| format!("bad epoch {epoch:?}"))?,
            }
        } else {
            return Err(format!(
                "unknown mobility model {s:?} (expected static or waypoint:<step_m>x<epoch_rounds>)"
            ));
        };
        model.validate()?;
        Ok(model)
    }
}

/// SINR evaluation grid: which OFDM data bins the engine plans and
/// settles on.
///
/// [`Full`](SinrGrid::Full) is the pinned default — precoders, believed
/// channels and SINRs are evaluated on **every** occupied data bin, the
/// exact legacy path, bit-for-bit unchanged.
/// [`Decimated`](SinrGrid::Decimated)`(k)` is the opt-in cheap tier:
/// the engine evaluates every `k`-th bin only and linearly interpolates
/// the per-stream SINR track back to the full grid before §3.4 rate
/// selection. Coherence-bandwidth smoothness (the taps span a few
/// hundred ns against a 3.2 µs symbol) keeps the rate decisions close:
/// the `decimated_grid_error_budget` suite bounds the mean-goodput
/// delta at `k = 4` under 1%. The tier is part of a sweep's identity —
/// [`CanonicalSpec`] encodes it, so a served cache never conflates a
/// decimated sweep with a full-grid one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinrGrid {
    /// Evaluate every occupied data bin (the legacy path).
    #[default]
    Full,
    /// Evaluate every `k`-th occupied bin and interpolate (`k >= 2`).
    Decimated(usize),
}

impl SinrGrid {
    /// Structural validation mirroring [`TrafficModel::validate`]: a
    /// decimation stride must be at least 2 (1 is just [`SinrGrid::Full`]
    /// spelled expensively, 0 is meaningless).
    ///
    /// # Errors
    /// A one-line human-readable description of the violation.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match *self {
            SinrGrid::Full => Ok(()),
            SinrGrid::Decimated(k) => {
                if k >= 2 {
                    Ok(())
                } else {
                    Err(format!("decimated grid stride {k} below 2"))
                }
            }
        }
    }

    /// The grid's stable spec-string form — what [`FromStr`] parses
    /// back: `full`, `decimated:<k>`.
    pub(crate) fn spec_string(&self) -> String {
        match *self {
            SinrGrid::Full => "full".to_string(),
            SinrGrid::Decimated(k) => format!("decimated:{k}"),
        }
    }
}

impl fmt::Display for SinrGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for SinrGrid {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let grid = if s == "full" {
            SinrGrid::Full
        } else if let Some(k) = s.strip_prefix("decimated:") {
            SinrGrid::Decimated(k.parse().map_err(|_| format!("bad stride {k:?}"))?)
        } else {
            return Err(format!(
                "unknown SINR grid {s:?} (expected full or decimated:<k>)"
            ));
        };
        grid.validate()?;
        Ok(grid)
    }
}

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Delivered goodput per flow, Mb/s.
    pub per_flow_mbps: Vec<f64>,
    /// Total network goodput, Mb/s.
    pub total_mbps: f64,
    /// Average degrees of freedom in use during data transfer.
    pub mean_dof: f64,
}

impl RunResult {
    /// Jain's fairness index over per-flow goodputs (1 = perfectly
    /// equal, `1/n` = one flow takes everything). n+ trades some
    /// fairness for concurrency — multi-antenna flows gain more — and
    /// this metric quantifies by how much.
    ///
    /// Degenerate cases: fairness is **undefined** (`NaN`) for an empty
    /// flow list and when every flow delivered zero goodput — there is
    /// no allocation to be fair *about*. (Both used to report 1.0,
    /// "perfectly fair", which inflated sweep averages on scenarios
    /// with dead runs.) [`SweepStats::mean_fairness`] skips undefined
    /// runs when averaging.
    pub(crate) fn jain_fairness(&self) -> f64 {
        let n = self.per_flow_mbps.len() as f64;
        let sum: f64 = self.per_flow_mbps.iter().sum();
        let sq: f64 = self.per_flow_mbps.iter().map(|x| x * x).sum();
        if self.per_flow_mbps.is_empty() || sq <= 0.0 {
            return f64::NAN;
        }
        sum * sum / (n * sq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_helpers() {
        let s = Scenario::three_pairs();
        assert_eq!(s.transmitters(), vec![0, 2, 4]);
        assert_eq!(s.flows_of(4), vec![2]);
        let ap = Scenario::ap_downlink();
        assert_eq!(ap.transmitters(), vec![0, 2]);
        assert_eq!(ap.flows_of(2), vec![1, 2]);
    }

    #[test]
    fn jain_fairness_bounds() {
        let equal = RunResult {
            per_flow_mbps: vec![5.0, 5.0, 5.0],
            total_mbps: 15.0,
            mean_dof: 1.0,
        };
        assert!((equal.jain_fairness() - 1.0).abs() < 1e-12);
        let skewed = RunResult {
            per_flow_mbps: vec![9.0, 1.0, 0.0],
            total_mbps: 10.0,
            mean_dof: 1.0,
        };
        let j = skewed.jain_fairness();
        assert!(j > 1.0 / 3.0 - 1e-12 && j < 1.0, "jain {j}");
    }

    /// Regression: an empty flow list and all-zero goodput used to
    /// report 1.0 — "perfectly fair" — for runs where no allocation
    /// exists to judge. Both are now explicitly undefined.
    #[test]
    fn jain_fairness_degenerate_cases_are_undefined() {
        let dead = RunResult {
            per_flow_mbps: vec![0.0, 0.0],
            total_mbps: 0.0,
            mean_dof: 0.0,
        };
        assert!(dead.jain_fairness().is_nan(), "all-zero goodput");
        let empty = RunResult {
            per_flow_mbps: vec![],
            total_mbps: 0.0,
            mean_dof: 0.0,
        };
        assert!(empty.jain_fairness().is_nan(), "empty flow list");
        // One live flow among dead ones is defined (and minimal).
        let solo = RunResult {
            per_flow_mbps: vec![7.0, 0.0, 0.0],
            total_mbps: 7.0,
            mean_dof: 1.0,
        };
        assert!((solo.jain_fairness() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_model_spec_strings_round_trip() {
        for m in [
            TrafficModel::Saturated,
            TrafficModel::Poisson {
                mean_per_round: 0.25,
            },
            TrafficModel::Bursty {
                mean_on_rounds: 3.0,
                mean_off_rounds: 12.5,
            },
        ] {
            assert_eq!(m.spec_string().parse::<TrafficModel>(), Ok(m));
            assert_eq!(m.to_string(), m.spec_string());
        }
        assert_eq!(
            "saturated".parse::<TrafficModel>(),
            Ok(TrafficModel::Saturated)
        );
        // Invalid parameters fail at parse time, not inside the engine.
        assert!("poisson:0".parse::<TrafficModel>().is_err());
        assert!("poisson:nan".parse::<TrafficModel>().is_err());
        // Above the bound Knuth's threshold e^-mean is no longer a normal
        // f64 and every draw would come out near 745.
        assert!("poisson:700".parse::<TrafficModel>().is_ok());
        for big in ["poisson:800", "poisson:1e300"] {
            let err = big.parse::<TrafficModel>().unwrap_err();
            assert!(err.contains("above 700"), "{err}");
        }
        assert!("bursty:0.5x10".parse::<TrafficModel>().is_err());
        assert!("bursty:3".parse::<TrafficModel>().is_err());
        let err = "cbr:4".parse::<TrafficModel>().unwrap_err();
        assert!(err.contains("cbr:4"), "{err}");
    }

    #[test]
    fn mobility_model_spec_strings_round_trip() {
        for m in [
            MobilityModel::Static,
            MobilityModel::Waypoint {
                step_m: 1.5,
                epoch_rounds: 8,
            },
        ] {
            assert_eq!(m.spec_string().parse::<MobilityModel>(), Ok(m));
            assert_eq!(m.to_string(), m.spec_string());
        }
        assert!("waypoint:0x5".parse::<MobilityModel>().is_err());
        assert!("waypoint:2x0".parse::<MobilityModel>().is_err());
        assert!("waypoint:2".parse::<MobilityModel>().is_err());
        let err = "brownian".parse::<MobilityModel>().unwrap_err();
        assert!(err.contains("brownian"), "{err}");
    }

    #[test]
    fn model_defaults_are_the_pinned_legacy_path() {
        assert_eq!(TrafficModel::default(), TrafficModel::Saturated);
        assert_eq!(MobilityModel::default(), MobilityModel::Static);
        assert_eq!(SinrGrid::default(), SinrGrid::Full);
        let spec = SweepSpec::new(Scenario::three_pairs());
        assert_eq!(spec.traffic, TrafficModel::Saturated);
        assert_eq!(spec.mobility, MobilityModel::Static);
        assert_eq!(spec.sinr_grid, SinrGrid::Full);
    }

    #[test]
    fn sinr_grid_spec_strings_round_trip() {
        for g in [SinrGrid::Full, SinrGrid::Decimated(4)] {
            assert_eq!(g.spec_string().parse::<SinrGrid>(), Ok(g));
            assert_eq!(g.to_string(), g.spec_string());
        }
        // Degenerate strides fail at parse time, not inside the engine.
        assert!("decimated:0".parse::<SinrGrid>().is_err());
        assert!("decimated:1".parse::<SinrGrid>().is_err());
        assert!(SinrGrid::Decimated(1).validate().is_err());
        let err = "sparse:3".parse::<SinrGrid>().unwrap_err();
        assert!(err.contains("sparse:3"), "{err}");
    }
}
