//! Round-level event tap for the simulation engine.
//!
//! The round engine behind [`SweepSpec`](crate::sim::SweepSpec)
//! narrates every run through a [`RoundObserver`]: one
//! [`ContentionRecord`] per medium acquisition,
//! one [`JoinRecord`] per secondary-contention attempt, and one
//! [`RoundRecord`] per round carrying the settled per-flow bits, the
//! round's airtime and the final per-stream ledger. The engine's own
//! goodput/DoF accounting is itself an observer —
//! [`GoodputAccumulator`] — rather than ad-hoc accumulators inside the
//! round loop, which is the API's contract: **everything in a
//! [`RunResult`] is reconstructible from the event stream alone**, and
//! the `observer_contract` integration suite asserts the reconstruction
//! is bit-for-bit exact for every built-in policy.

use crate::sim::RunResult;
use nplus_phy::rates::RateIndex;

/// Which sweep job a run belongs to — the labels an observer needs to
/// file the stream it is watching (the recording codec above all).
///
/// Delivered through [`RunMeta::identity`] by the sweep layer
/// ([`SweepSpec::try_run_observed`](crate::sim::SweepSpec::try_run_observed)
/// and [`SweepSpec::try_run_seed_observed`](
/// crate::sim::SweepSpec::try_run_seed_observed)), which labels every
/// run; a run replayed outside a sweep may carry `None`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunIdentity {
    /// The job's topology/run seed.
    pub seed: u64,
    /// Registry name of the propagation environment the topology was
    /// drawn in.
    pub environment: String,
    /// The sweep's `CanonicalSpec` v3 content key, when the spec
    /// canonicalizes (`None` for ad-hoc specs — a custom world, a
    /// config beyond the canonical fields).
    pub canonical_key: Option<u128>,
}

/// Run-level metadata, delivered once before the first round.
#[derive(Debug, Clone)]
pub struct RunMeta<'a> {
    /// Name of the policy being simulated.
    pub policy: &'a str,
    /// Number of flows in the scenario (the length of per-round
    /// `flow_bits` slices).
    pub n_flows: usize,
    /// Rounds the run will simulate.
    pub rounds: usize,
    /// Sample clock in Hz — what converts accumulated airtime samples
    /// into seconds (and hence bits into Mb/s).
    pub bandwidth_hz: f64,
    /// Which sweep job this run belongs to, when the caller supplied
    /// one (usually `None` for hand-built engine runs).
    pub identity: Option<RunIdentity>,
}

/// How the round's primary transmitter acquired the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentionKind {
    /// Primary CSMA contention among all backlogged transmitters.
    Primary,
    /// Secondary contention among join-eligible transmitters (n+ only).
    Join,
    /// Chosen by an omniscient scheduler — no contention took place.
    Scheduled,
}

/// One medium acquisition: who contended, who won, how long it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionRecord {
    /// Round index.
    pub round: usize,
    /// Primary, join, or scheduled.
    pub kind: ContentionKind,
    /// How many transmitters contended.
    pub n_contenders: usize,
    /// Winning scenario node.
    pub winner: usize,
    /// Backoff slots elapsed (including collision penalties); 0 for
    /// scheduled access.
    pub slots: u64,
}

/// One join attempt.
///
/// Which attempts are recorded depends on how the round reached the
/// medium:
/// - a contended round records every attempt. A refusal carries the
///   streams the joiner asked for, or 0 when its allocation came up
///   empty (an empty allocation also ends the round's joins). A joiner
///   whose plan failed has spent its backoff and handshake, and may
///   contend again in the same round;
/// - a scheduled round ([`ContentionKind::Scheduled`]) records only
///   accepted joins: the scheduler never attempts a join it cannot plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinRecord {
    /// Round index.
    pub round: usize,
    /// The joining scenario node.
    pub tx: usize,
    /// Streams the joiner asked for (0 when its allocation came up
    /// empty).
    pub n_streams: usize,
    /// Whether the join went through: `false` when the allocation was
    /// empty, the body had no air time left, or the precoder/rate plan
    /// failed. (Power control only lowers a joiner's power; it never
    /// declines.)
    pub accepted: bool,
}

/// One planned stream in a round's final ledger, in planning order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRecord {
    /// Flow the stream serves.
    pub flow: usize,
    /// Transmitting scenario node.
    pub tx: usize,
    /// Selected rate (index into the MCS table).
    pub rate: RateIndex,
    /// Body symbols the stream was on the air.
    pub active_symbols: usize,
}

/// End-of-round settlement: everything the engine accounts from a round.
#[derive(Debug, Clone)]
pub struct RoundRecord<'a> {
    /// Round index.
    pub round: usize,
    /// Data-body length in OFDM symbols (0 when even the primary winner
    /// could not transmit).
    pub body_symbols: usize,
    /// Total airtime the round consumed, in samples (contention,
    /// handshakes, body, ACKs, interframe spacings).
    pub duration_samples: u64,
    /// Delivered bits per flow, post-settlement (success-probability
    /// weighted).
    pub flow_bits: &'a [f64],
    /// Final per-stream ledger, in planning order.
    pub streams: &'a [StreamRecord],
}

/// Event tap over a simulation run. All hooks default to no-ops;
/// implement the ones you need.
pub trait RoundObserver {
    /// Called once, before the first round.
    fn on_run_start(&mut self, _meta: &RunMeta) {}
    /// Called after each medium acquisition (primary, join, or
    /// scheduled).
    fn on_contention(&mut self, _ev: &ContentionRecord) {}
    /// Called after each secondary-contention join attempt resolves.
    fn on_join(&mut self, _ev: &JoinRecord) {}
    /// Called once per round after settlement, with the final ledger.
    fn on_round_end(&mut self, _ev: &RoundRecord) {}
}

/// The do-nothing observer (what plain `run` wires in).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RoundObserver for NullObserver {}

/// The engine's goodput/DoF accounting as an observer: folds
/// [`RoundRecord`]s into a [`RunResult`] exactly as the engine's
/// original inline accumulators did (same operations in the same order,
/// so results are bit-for-bit identical).
#[derive(Debug, Clone, Default)]
pub struct GoodputAccumulator {
    bits: Vec<f64>,
    total_samples: u64,
    dof_weighted: f64,
    dof_time: f64,
    bandwidth_hz: f64,
}

impl GoodputAccumulator {
    /// A fresh accumulator; sizes itself from [`RunMeta`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Converts the accumulated rounds into a [`RunResult`].
    pub fn finish(self) -> RunResult {
        let elapsed_s = self.total_samples as f64 / self.bandwidth_hz;
        let per_flow_mbps: Vec<f64> = self.bits.iter().map(|b| b / elapsed_s / 1e6).collect();
        RunResult {
            total_mbps: per_flow_mbps.iter().sum(),
            per_flow_mbps,
            mean_dof: if self.dof_time > 0.0 {
                self.dof_weighted / self.dof_time
            } else {
                0.0
            },
        }
    }
}

impl RoundObserver for GoodputAccumulator {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.bits = vec![0.0; meta.n_flows];
        self.bandwidth_hz = meta.bandwidth_hz;
    }

    fn on_round_end(&mut self, ev: &RoundRecord) {
        for (f, b) in ev.flow_bits.iter().enumerate() {
            self.bits[f] += b;
        }
        self.total_samples += ev.duration_samples;
        let mean_streams: f64 = ev
            .streams
            .iter()
            .map(|s| s.active_symbols as f64)
            .sum::<f64>()
            / ev.body_symbols.max(1) as f64;
        self.dof_weighted += mean_streams * ev.body_symbols as f64;
        self.dof_time += ev.body_symbols as f64;
    }
}

/// Fans one event stream out to two observers (the engine uses this to
/// feed a caller's observer and its own accumulator from a single
/// narration).
pub(crate) struct Tee<'a> {
    pub a: &'a mut dyn RoundObserver,
    pub b: &'a mut dyn RoundObserver,
}

impl RoundObserver for Tee<'_> {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.a.on_run_start(meta);
        self.b.on_run_start(meta);
    }

    fn on_contention(&mut self, ev: &ContentionRecord) {
        self.a.on_contention(ev);
        self.b.on_contention(ev);
    }

    fn on_join(&mut self, ev: &JoinRecord) {
        self.a.on_join(ev);
        self.b.on_join(ev);
    }

    fn on_round_end(&mut self, ev: &RoundRecord) {
        self.a.on_round_end(ev);
        self.b.on_round_end(ev);
    }
}
