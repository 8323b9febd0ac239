//! The reusable per-topology simulation engine.
//!
//! [`SimEngine`] owns the physics of a round — channel knowledge,
//! precoding, SINR settlement, handshake and airtime accounting — and
//! delegates every protocol decision to its
//! [`Policy`](crate::policy::Policy). Construction precomputes
//! the round-invariant context (occupied subcarriers, transmitter list,
//! per-transmitter flow lists) and a [`ChannelCache`] holding every
//! link's per-subcarrier frequency response, evaluated once instead of
//! inside the round × stream × subcarrier × interferer loop nest. Only
//! the **pure true channels** are cached; every believed channel
//! consumes its hardware-error draws from the RNG on every call, but
//! one that no kernel reads (a lone own receiver's) is skipped, not
//! computed. The cached tables equal
//! the medium's direct evaluation bit for bit (pinned by the
//! `nplus-medium` chancache tests).
//!
//! Every run is narrated through a
//! [`RoundObserver`](crate::observer::RoundObserver); the goodput/DoF
//! accounting that produces the [`RunResult`] is itself an observer
//! ([`GoodputAccumulator`](crate::observer::GoodputAccumulator)), so a
//! caller-supplied tap sees exactly the events the result is built
//! from.

use super::{
    MobilityModel, RunResult, SinrGrid, SweepSpec, TrafficModel, BURST_ARRIVALS_PER_ROUND,
};
use crate::link::{select_stream_rate, ZfFilters, ZfWorkspace};
use crate::observer::{
    ContentionKind, ContentionRecord, GoodputAccumulator, JoinRecord, RoundObserver, RoundRecord,
    RunIdentity, RunMeta, StreamRecord, Tee,
};
use crate::policy::Policy;
use crate::power_control::{
    expected_interference_power, join_power_decision_from_worst, JoinPowerDecision,
};
use crate::precoder::{
    compute_precoders_into_with, OwnReceiverSoARef, PrecoderError, PrecoderWorkspace,
    ProtectedReceiverSoARef,
};
use nplus_channel::placement::Point;
use nplus_linalg::{CMatrix, CVector, Subspace, SubspaceWorkspace, VecPool};
use nplus_mac::backoff::{resolve_contention_in, ContentionOutcome};
use nplus_mac::frames::{AckHeader, DataHeader};
use nplus_mac::timing::SampleTiming;
use nplus_medium::chancache::ChannelCache;
use nplus_medium::topology::Topology;
use nplus_phy::esnr::{esnr_band, EsnrBand};
use nplus_phy::params::{occupied_subcarrier_indices, OfdmConfig};
use nplus_phy::rates::{RateIndex, BASE_RATE, RATE_TABLE};
use nplus_phy::RATE_ESNR_THRESHOLDS_DB;
use rand::rngs::StdRng;
use rand::Rng;

/// One planned concurrent stream. Pooled: the slot (and each precoder's
/// heap buffer) is retained across rounds by the run's [`RoundBufs`].
#[derive(Default)]
struct PlannedStream {
    flow: usize,
    /// Per evaluated-bin pre-coding vector (one per [`SimEngine::eval_pos`]
    /// entry), scaled by the transmitter's per-stream power and join-power
    /// factor.
    precoders: VecPool<CVector>,
    /// Chosen rate.
    rate: RateIndex,
    /// Transmitting node (scenario index).
    tx_node: usize,
    /// Symbols of body time this stream participates in.
    active_symbols: usize,
}

/// Per-receiver protection state (per occupied subcarrier).
///
/// One state is registered per (transmission, receiver) pair, so a node
/// served by two concurrent transmitters — the hidden-terminal shape —
/// owns two states, each decoding only the streams registered with it
/// (`stream_ids`); the other transmission's arrivals land in this
/// state's unwanted space (it was constructed to contain them) or leak
/// as residual interference.
///
/// `unwanted` and `filters` are written only while the state is
/// registered (planned) and never afterwards, so the filters built
/// against the unwanted space stay valid through settlement.
/// Pooled like [`PlannedStream`]: `unwanted` grows once to the engine's
/// evaluated-bin count and `filters` to its high-water size, and both
/// are then reassigned in place every round, so the steady state
/// allocates nothing.
#[derive(Default)]
struct ReceiverState {
    node: usize,
    /// Ids (into the round's stream list) of the streams this state
    /// decodes: exactly the wanted rows of `filters`, in order.
    stream_ids: Vec<usize>,
    /// Advertised unwanted space per evaluated bin.
    unwanted: Vec<Subspace>,
    /// Joint-ZF filter per evaluated bin over the state's wanted arrival
    /// columns and its unwanted-space basis, built once at registration.
    filters: ZfFilters,
}

impl ReceiverState {
    /// Ensures the per-bin unwanted spaces cover `n_eval` slots
    /// (allocating only on first growth — never shrinking, so slot
    /// buffers survive) and empties the filters for the round being
    /// planned.
    fn reset_bins(&mut self, n_eval: usize) {
        while self.unwanted.len() < n_eval {
            self.unwanted.push(Subspace::default());
        }
        self.filters.clear();
    }
}

/// A memoized opening plan: the full per-subcarrier planning result of a
/// transmitter opening a round with a single receiver and no protected
/// receivers. In that case the precoders are an unconstrained orthonormal
/// basis and rate selection sees only the pure true channels — nothing
/// reads the believed-channel draws — so the plan (or its rate failure)
/// is a fixed function of the topology. [`SimEngine::plan_winner`] copies
/// it out of [`SimEngine::plan_streams`]' result the first time a run
/// meets the opening and serves every later round from it.
struct FirstPlan {
    /// Per-stream, per-subcarrier pre-coding vectors.
    precoders: Vec<Vec<CVector>>,
    /// Chosen rate per stream.
    rates: Vec<RateIndex>,
    /// The receiver's advertised unwanted space per subcarrier.
    unwanted: Vec<Subspace>,
    /// The receiver's joint-ZF filter per subcarrier.
    filters: ZfFilters,
}

/// Reusable buffers for [`extend_unwanted_into`]: the base span, its
/// complement, and the candidate basis being assembled.
#[derive(Default)]
struct UnwantedWorkspace {
    base: Subspace,
    free: Subspace,
    cand: VecPool<CVector>,
    sub_ws: SubspaceWorkspace,
    w: CVector,
}

/// The per-run arena: every buffer the round loop touches, reused across
/// rounds, bins and receivers so the steady state performs **zero**
/// allocations (proven by the counting-allocator test in `nplus-bench`).
/// Buffers grow to the run's high-water mark during the first rounds and
/// are only cleared — never shrunk or dropped — afterwards.
#[derive(Default)]
struct Scratch {
    /// Ongoing-stream arrival vectors at one receiver, one bin.
    arrivals: VecPool<CVector>,
    /// Residual (unknown) interference leaks.
    residual: VecPool<CVector>,
    /// Wanted arrival columns of the receiver being registered, one bin.
    wanted: VecPool<CVector>,
    /// Transmitters eligible to join the round being planned.
    eligible: Vec<usize>,
    /// Joiners a scheduled round has barred (see [`Access::Scheduled`]).
    barred: Vec<usize>,
    /// Stream ids destined to the receiver being settled.
    my_streams: Vec<usize>,
    /// Memoized opening plans keyed by `(tx, flow, n_streams)`; `None`
    /// records a rate-selection failure (also a pure topology fact).
    first_plans: Vec<((usize, usize, usize), Option<FirstPlan>)>,
    /// The omniscient schedule key of the round being planned (see
    /// [`SimEngine::schedule_key_into`]), built in place every round.
    schedule_key: Vec<usize>,
    /// Memoized omniscient rounds keyed by schedule state, at most
    /// [`MAX_SCHEDULES`] of them; an idle plan records a round no
    /// candidate could transmit in.
    schedules: Vec<(Vec<usize>, RoundPlan)>,
    /// Believed channels to protected receivers, flat `[p * n_eval + e]`.
    bp: Vec<CMatrix>,
    /// Audibility per protected receiver (`false`: below the floor, no
    /// nulling constraint and no further believed-channel draws).
    bp_ok: Vec<bool>,
    /// Indices of the audible protected receivers.
    audible: Vec<usize>,
    /// Believed channels to own receivers, flat `[i * n_eval + e]`.
    bo: Vec<CMatrix>,
    /// One arrival vector (`H · v`) being inspected.
    arr_tmp: CVector,
    /// Per-bin SINRs out of one joint-ZF solve.
    sinr_tmp: Vec<f64>,
    /// Per-stream SINR tracks across evaluated bins.
    sinr_acc: Vec<Vec<f64>>,
    /// Full-grid SINR buffer for decimated-grid interpolation.
    interp: Vec<f64>,
    unw_ws: UnwantedWorkspace,
    prec_ws: PrecoderWorkspace,
    zf_ws: ZfWorkspace,
}

/// The streams a round has planned so far and the receiver states
/// protecting them, pooled across rounds.
#[derive(Default)]
struct Planned {
    protected: VecPool<ReceiverState>,
    streams: VecPool<PlannedStream>,
}

/// Round-lifetime pools owned by [`SimEngine::run`]: the planned
/// streams, the plan being narrated, and the allocation and contention
/// buffers, reused across rounds instead of allocated fresh each round.
#[derive(Default)]
struct RoundBufs {
    planned: Planned,
    plan: RoundPlan,
    first_alloc: Vec<(usize, usize)>,
    join_alloc: Vec<(usize, usize)>,
    /// Contention windows / backoff draws for [`contend`].
    cws: Vec<u32>,
    draws: Vec<u32>,
}

/// Bound on the omniscient schedule memo: a run that meets more distinct
/// schedule states than this starts the memo over. Steady workloads
/// cycle through a handful (the allocation rotation period); the bound
/// only caps memory and lookup time on a run whose queues keep changing.
const MAX_SCHEDULES: usize = 64;

/// The borrowed inputs every step of one round reads. A round reads the
/// traffic queues but never drains them: [`SimEngine::run`] does, once
/// the round is narrated.
struct RoundCtx<'r> {
    policy: Policy,
    round: usize,
    /// The channels in force: the engine's, or a mobility run's copy.
    cache: &'r ChannelCache,
    /// The backlogged transmitters (every transmitter under saturated
    /// traffic).
    active: &'r [usize],
    traffic: &'r TrafficState,
}

/// How a round's transmitters reach the medium, the one thing n+'s
/// random-access round (§3) and the oracle's forced-primary round (§6.3)
/// do differently.
#[derive(Clone, Copy)]
enum Access {
    /// The primary and every joiner win CSMA contention. A join costs
    /// its backoff slots plus its handshake. A joiner whose plan fails
    /// has spent that delay and may contend again; an empty join
    /// allocation ends the joins. Every contention and join attempt is
    /// narrated.
    Contended,
    /// `primary` opens the round and the eligible joiner with the most
    /// antennas, ties to the lowest index, joins next. A join costs its
    /// handshake only. The scheduler never attempts a join it cannot
    /// plan, so a joiner whose plan fails or whose allocation is empty
    /// is barred for the round at no cost. Only accepted joins are
    /// narrated.
    Scheduled { primary: usize },
}

/// What became of one join attempt, decided by [`SimEngine::join_step`].
#[derive(Clone, Copy)]
enum JoinOutcome {
    /// Planned: the joiner sends this many streams.
    Accepted(usize),
    /// The joiner's allocation, pruned to backlogged flows, was empty.
    EmptyAllocation,
    /// The join's delay reaches the end of the body.
    NoAirtime { requested: usize },
    /// No rate survived rate selection, the precoder had no room, or the
    /// joiner's own link is below the floor. Power control never
    /// declines a join, it only lowers power. Rate selection is the
    /// usual cause: in a 20-seed x 40-round three_pairs n+ sweep all 295
    /// failures of 548 planned joins were rate failures, none a
    /// precoder's.
    PlanFailed { requested: usize },
}

/// One narrated step of a planned round; [`SimEngine::emit_round`]
/// turns it into an observer event under the round it narrates.
#[derive(Clone, Copy)]
enum Event {
    Contention {
        kind: ContentionKind,
        n_contenders: usize,
        winner: usize,
        slots: u64,
    },
    Join {
        tx: usize,
        outcome: JoinOutcome,
    },
}

/// A planned round as it is narrated: its events in planning order,
/// then what its [`RoundRecord`] carries. A contended round fills the
/// run's pooled plan and is narrated at once; the oracle keeps its best
/// candidate's plan in the schedule memo and narrates it again on every
/// round with the same schedule key.
#[derive(Default)]
struct RoundPlan {
    events: Vec<Event>,
    body_symbols: usize,
    duration_samples: u64,
    flow_bits: Vec<f64>,
    streams: Vec<StreamRecord>,
}

impl RoundPlan {
    /// Closes the plan as a round nobody transmitted in: it charges
    /// `duration_samples` of airtime and settles nothing. The events
    /// are left as they are.
    fn close_idle(&mut self, n_flows: usize, duration_samples: u64) {
        self.body_symbols = 0;
        self.duration_samples = duration_samples;
        self.flow_bits.clear();
        self.flow_bits.resize(n_flows, 0.0);
        self.streams.clear();
    }
}

/// Extends the span of `existing` with directions orthogonal to it, up
/// to `target_dim` dimensions, writing the result into `out` through the
/// pooled subspace kernels (`assign_span`, `complement_into`). The
/// arithmetic — one span, one complement, one re-span of the assembled
/// basis — replicates the old allocating `extend_unwanted` operation for
/// operation, so results are bit-identical.
fn extend_unwanted_into(
    ambient: usize,
    existing: &[CVector],
    target_dim: usize,
    out: &mut Subspace,
    ws: &mut UnwantedWorkspace,
) {
    ws.base.assign_span(ambient, existing, &mut ws.w);
    if ws.base.dim() >= target_dim {
        out.assign_from(&ws.base);
        return;
    }
    ws.base.complement_into(&mut ws.free, &mut ws.sub_ws);
    ws.cand.clear();
    for b in ws.base.basis() {
        ws.cand.push_slot().copy_from(b);
    }
    for b in ws.free.basis() {
        if ws.cand.len() >= target_dim {
            break;
        }
        ws.cand.push_slot().copy_from(b);
    }
    out.assign_span(ambient, ws.cand.as_slice(), &mut ws.w);
}

/// Piecewise-geometric interpolation of a decimated SINR track back onto
/// the full occupied-bin grid: exact at every evaluated bin, constant
/// past the last one, log-domain (dB-linear) between bins. SINR fades
/// are multiplicative, so interpolating in the log domain tracks the
/// dips between evaluated bins far better than linear-in-linear — which
/// systematically overestimates frequency-selective notches and with
/// them the ESNR the rate ladder sees. Only the [`SinrGrid::Decimated`]
/// tier runs this — under [`SinrGrid::Full`] the track is already
/// full-grid and is passed through untouched (zero float operations,
/// preserving bit identity).
fn interpolate_track(eval_pos: &[usize], vals: &[f64], n_sc: usize, out: &mut Vec<f64>) {
    debug_assert_eq!(eval_pos.len(), vals.len());
    out.clear();
    let mut seg = 0usize;
    for k in 0..n_sc {
        while seg + 1 < eval_pos.len() && eval_pos[seg + 1] <= k {
            seg += 1;
        }
        let v = if seg + 1 >= eval_pos.len() || k == eval_pos[seg] {
            vals[seg]
        } else {
            let (k0, k1) = (eval_pos[seg], eval_pos[seg + 1]);
            let t = (k - k0) as f64 / (k1 - k0) as f64;
            // v0^(1-t) * v1^t, guarded against non-positive inputs (the
            // SINR kernel floors at 1/1e300, but a caller-supplied track
            // must not produce NaN): fall back to linear there.
            if vals[seg] > 0.0 && vals[seg + 1] > 0.0 {
                (vals[seg].ln() * (1.0 - t) + vals[seg + 1].ln() * t).exp()
            } else {
                vals[seg] + (vals[seg + 1] - vals[seg]) * t
            }
        };
        out.push(v);
    }
}

/// Success probability of a stream: 1 dB linear ramp below the rate's
/// ESNR threshold (the thresholds are ~90% delivery points; the ramp
/// keeps Monte-Carlo noise down versus a hard cliff).
fn success_prob(esnr_db: f64, rate: RateIndex) -> f64 {
    let thr = RATE_ESNR_THRESHOLDS_DB[rate];
    ((esnr_db - (thr - 1.0)) / 1.0).clamp(0.0, 1.0)
}

/// Resolves contention among `contenders` (scenario node indices),
/// doubling windows on collisions. Returns `(winner, slots_elapsed)`.
/// Runs on the lean [`resolve_contention_in`] kernel with caller-pooled
/// window/draw buffers; colliders are recovered from the draws
/// (`draws[i] == slots`), so outcomes and RNG consumption are bit-exact
/// with the old collision-list form.
fn contend(
    contenders: &[usize],
    timing: &SampleTiming,
    cws: &mut Vec<u32>,
    draws: &mut Vec<u32>,
    rng: &mut StdRng,
) -> (usize, u64) {
    cws.clear();
    cws.resize(contenders.len(), timing.cw_min);
    let mut slots_total: u64 = 0;
    for _ in 0..32 {
        match resolve_contention_in(cws, rng, draws) {
            ContentionOutcome::Winner { index, slots } => {
                return (contenders[index], slots_total + slots as u64);
            }
            ContentionOutcome::Collision { slots } => {
                slots_total += slots as u64 + 20; // collided headers waste air
                for (cw, &d) in cws.iter_mut().zip(draws.iter()) {
                    if d == slots {
                        *cw = (*cw * 2 + 1).min(timing.cw_max);
                    }
                }
            }
            ContentionOutcome::Idle => unreachable!("contenders nonempty"),
        }
    }
    // Window exhausted without a unique winner: pick uniformly. A
    // deterministic fallback (e.g. the first contender) would bias the
    // long-run airtime share toward one transmitter.
    let i = rng.gen_range(0..contenders.len());
    (contenders[i], slots_total)
}

/// Typical alignment-blob size in bytes (CP¹ codec over 52 subcarriers:
/// header + first angles + escape mask + ~1 byte/subcarrier).
const TYPICAL_BLOB_BYTES: usize = 62;

/// OFDM geometry: the paper's 10 MHz USRP2 profile.
const OFDM: OfdmConfig = OfdmConfig::usrp2();

/// Packet size per flow per round, bytes.
const PACKET_BYTES: usize = 1500;

/// Header exchange cost in OFDM symbols: data header + SIFS + per-receiver
/// ACK headers (each with an alignment blob of `blob_bytes`) + SIFS, all
/// at base rate.
///
/// `alloc` is the actual `(flow, streams)` allocation, one entry per
/// receiver; an empty one is sized as one receiver of one stream. Both
/// frame sizes come from the real codecs in `nplus-mac`: the data header
/// lists the real per-receiver stream counts, each ACK carries one rate
/// index per stream (§3.4 selects rates per stream), and — since every
/// receiver transmits its own ACK frame — each ACK is padded to a whole
/// OFDM symbol individually rather than rounding once across the summed
/// total.
fn handshake_symbols(timing: &SampleTiming, alloc: &[(usize, usize)], blob_bytes: usize) -> usize {
    // Frame sizes via the codecs' closed forms (`encoded_len` is pinned
    // bit-for-bit against `to_bytes().len()` by the frames tests), so the
    // hot path never materializes header byte vectors.
    let base = BASE_RATE.data_bits_per_symbol();
    let ack = |n: usize| (AckHeader::encoded_len(n.max(1), blob_bytes) * 8).div_ceil(base);
    let (n_rx, ack_symbols) = if alloc.is_empty() {
        (1, ack(1))
    } else {
        (alloc.len(), alloc.iter().map(|&(_, n)| ack(n)).sum())
    };
    let hdr_bits = DataHeader::encoded_len(n_rx) * 8;
    let sifs_syms = (timing.sifs as usize).div_ceil(timing.symbol as usize);
    hdr_bits.div_ceil(base) + ack_symbols + 2 * sifs_syms
}

/// The reusable per-topology simulation engine.
///
/// Construction precomputes everything that is invariant across rounds
/// and policies: occupied subcarriers, the transmitter list, per-node
/// flow lists, and the [`ChannelCache`] of every link's per-subcarrier
/// frequency responses. One engine can then [`run`](SimEngine::run) any
/// number of policies/seeds against the same topology without
/// re-evaluating channel taps.
pub(crate) struct SimEngine<'a> {
    topo: &'a Topology,
    /// The run description: scenario, environment (whose hardware
    /// corrupts believed channels), rounds and models.
    spec: &'a SweepSpec,
    /// The §4 join-power threshold `L` in dB, resolved once from the
    /// spec.
    l_db: f64,
    /// MAC timing on the sample clock: always [`SampleTiming::usrp2`].
    timing: SampleTiming,
    /// Occupied subcarrier indices (FFT bins), in order.
    occ: Vec<usize>,
    /// Positions (into `occ`) of the bins the SINR grid evaluates: the
    /// identity under [`SinrGrid::Full`], every `k`-th bin under
    /// [`SinrGrid::Decimated`].
    eval_pos: Vec<usize>,
    /// Distinct transmitter node indices with traffic.
    transmitters: Vec<usize>,
    /// Flow indices per scenario node (empty for non-transmitters).
    flows_of: Vec<Vec<usize>>,
    /// Pure true-channel cache.
    cache: ChannelCache,
}

impl<'a> SimEngine<'a> {
    /// Builds the engine for one topology drawn for `spec`'s scenario.
    pub(crate) fn new(topo: &'a Topology, spec: &'a SweepSpec) -> Self {
        let scenario = &spec.scenario;
        let occ = occupied_subcarrier_indices();
        let eval_pos: Vec<usize> = match spec.sinr_grid {
            SinrGrid::Full => (0..occ.len()).collect(),
            SinrGrid::Decimated(k) => (0..occ.len()).step_by(k.max(1)).collect(),
        };
        let cache = ChannelCache::build(topo, &occ, OFDM.fft_len);
        SimEngine {
            topo,
            spec,
            l_db: spec.l_db(),
            timing: SampleTiming::usrp2(),
            transmitters: scenario.transmitters(),
            flows_of: (0..scenario.antennas.len())
                .map(|n| scenario.flows_of(n))
                .collect(),
            occ,
            eval_pos,
            cache,
        }
    }

    /// Number of evaluated bins (`occ.len()` under the full grid).
    fn n_eval(&self) -> usize {
        self.eval_pos.len()
    }

    /// The full-grid SINR track a rate decision sees: pass-through under
    /// [`SinrGrid::Full`] (zero float operations — the legacy bitwise
    /// path), linear interpolation across the evaluated bins under
    /// [`SinrGrid::Decimated`].
    fn rate_sinrs<'s>(&self, per_eval: &'s [f64], interp: &'s mut Vec<f64>) -> &'s [f64] {
        match self.spec.sinr_grid {
            SinrGrid::Full => per_eval,
            SinrGrid::Decimated(_) => {
                interpolate_track(&self.eval_pos, per_eval, self.occ.len(), interp);
                interp
            }
        }
    }

    /// What a transmitter believes the channel is: reciprocity plus
    /// hardware error, per bin — or the exact true channel for a
    /// perfect-knowledge policy ([`Oracle`](crate::policy::Oracle)).
    /// Imperfect knowledge is never cached: the hardware error draw must
    /// consume the RNG stream on every call; perfect knowledge consumes
    /// no RNG at all. A believed channel no kernel reads goes through
    /// [`SimEngine::skip_believed_channel`] instead, which consumes the
    /// same draws and computes none. An absent link returns `false` (and
    /// leaves `out` untouched) and consumes no RNG either — below the
    /// floor there is no reverse channel to estimate from.
    fn believed_channel_into(
        &self,
        ctx: &RoundCtx<'_>,
        from: usize,
        to: usize,
        k_occ: usize,
        rng: &mut StdRng,
        out: &mut CMatrix,
    ) -> bool {
        let Some(h) = ctx.cache.matrix(from, to, k_occ) else {
            return false;
        };
        out.assign_from(h);
        if !ctx.policy.perfect_knowledge() {
            self.spec
                .environment
                .hardware
                .reciprocal_channel_knowledge_in_place(out, rng);
        }
        true
    }

    /// [`SimEngine::believed_channel_into`] for a believed channel no
    /// kernel reads — a lone own receiver's (see
    /// [`OwnReceiverSoARef::channel`]): the same presence check, then
    /// exactly the RNG draws the believed channel would consume, none of
    /// them computed. `out` becomes a zeroed matrix of the link's shape,
    /// a shape-only view and never a believed draw. Debug builds redraw
    /// the channel on a clone of `rng` and assert that both streams end
    /// where the other does.
    fn skip_believed_channel(
        &self,
        ctx: &RoundCtx<'_>,
        from: usize,
        to: usize,
        k_occ: usize,
        rng: &mut StdRng,
        out: &mut CMatrix,
    ) -> bool {
        let Some(h) = ctx.cache.matrix(from, to, k_occ) else {
            return false;
        };
        if !ctx.policy.perfect_knowledge() {
            let hw = &self.spec.environment.hardware;
            #[cfg(debug_assertions)]
            let mut drawn = {
                let mut drawn = rng.clone();
                out.assign_from(h);
                hw.reciprocal_channel_knowledge_in_place(out, &mut drawn);
                drawn
            };
            hw.skip_channel_knowledge(h.rows() * h.cols(), rng);
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                rand::RngCore::next_u64(&mut drawn),
                rand::RngCore::next_u64(&mut rng.clone()),
                "skipping a believed channel must consume exactly its draws"
            );
        }
        out.reset(h.rows(), h.cols());
        true
    }

    fn n_ant(&self, node: usize) -> usize {
        self.spec.scenario.antennas[node]
    }

    /// Plans the transmission of one winner: computes precoders against
    /// the currently protected receivers, registers the new receiver
    /// state, and returns the planned streams as the contiguous id range
    /// `[start, end)` they occupy in `planned.streams` (ids are always
    /// appended sequentially). The caller sets their `active_symbols`
    /// once it knows the body. Returns `None` — with `planned` rolled
    /// back to its entry state — if the winner cannot join (no DoF, rate
    /// selection failure, or precoder degeneracy).
    ///
    /// Opening a round with one receiver and nothing to protect, the
    /// whole plan is a pure function of the topology (see [`FirstPlan`]):
    /// it is served from the per-run memo, which a miss fills from
    /// [`SimEngine::plan_streams`]' own result. Multi-receiver openings
    /// and joins always run `plan_streams`, where believed channels (and
    /// hence the RNG stream) genuinely matter.
    fn plan_winner(
        &self,
        ctx: &RoundCtx<'_>,
        tx: usize,
        allocation: &[(usize, usize)],
        planned: &mut Planned,
        scratch: &mut Scratch,
        rng: &mut StdRng,
    ) -> Option<(usize, usize)> {
        if allocation.iter().all(|&(_, n)| n == 0) {
            return None;
        }
        if !planned.protected.is_empty() || allocation.len() != 1 {
            return self.plan_streams(ctx, tx, allocation, planned, scratch, rng);
        }
        let n_eval = self.n_eval();
        let (f, n_streams) = allocation[0];
        let key = (tx, f, n_streams);
        let Some(idx) = scratch.first_plans.iter().position(|(k, _)| *k == key) else {
            // A miss plans on a throwaway copy of the RNG: the lone
            // receiver's believed channel is skipped, never read, so the
            // plan does not depend on its draws, and an opening leaves
            // the run's stream where it found it.
            let got = self.plan_streams(ctx, tx, allocation, planned, scratch, &mut rng.clone());
            let plan = got.map(|(start, end)| {
                let rs = &planned.protected[0];
                FirstPlan {
                    precoders: (start..end)
                        .map(|s| planned.streams[s].precoders.as_slice().to_vec())
                        .collect(),
                    rates: (start..end).map(|s| planned.streams[s].rate).collect(),
                    unwanted: rs.unwanted[..n_eval].to_vec(),
                    filters: rs.filters.clone(),
                }
            });
            scratch.first_plans.push((key, plan));
            return got;
        };
        let plan = scratch.first_plans[idx].1.as_ref()?;
        let Planned { protected, streams } = planned;
        let stream_base = streams.len();
        for s in 0..n_streams {
            let slot = streams.push_slot();
            slot.flow = f;
            slot.rate = plan.rates[s];
            slot.tx_node = tx;
            slot.active_symbols = 0;
            slot.precoders.clear();
            for pc in &plan.precoders[s] {
                slot.precoders.push_slot().copy_from(pc);
            }
        }
        let rs = protected.push_slot();
        rs.node = self.spec.scenario.flows[f].rx;
        rs.stream_ids.clear();
        rs.stream_ids.extend(stream_base..stream_base + n_streams);
        rs.reset_bins(n_eval);
        for e in 0..n_eval {
            rs.unwanted[e].assign_from(&plan.unwanted[e]);
        }
        rs.filters.assign_from(&plan.filters);
        Some((stream_base, stream_base + n_streams))
    }

    /// The one planning body behind [`SimEngine::plan_winner`]: believed
    /// channels, join power control, unwanted spaces, per-bin precoders,
    /// joint-ZF filters and rate selection, with the same contract.
    fn plan_streams(
        &self,
        ctx: &RoundCtx<'_>,
        tx: usize,
        allocation: &[(usize, usize)],
        planned: &mut Planned,
        scratch: &mut Scratch,
        rng: &mut StdRng,
    ) -> Option<(usize, usize)> {
        let Planned { protected, streams } = planned;
        let cache = ctx.cache;
        let n_eval = self.n_eval();
        let m_tx = self.n_ant(tx);
        let total_new: usize = allocation.iter().map(|(_, n)| n).sum();
        let stream_base = streams.len();
        let rs_base = protected.len();

        // Believed channels to the protected receivers this transmitter
        // can actually reach: a protected receiver below the winner's
        // power floor imposes no nulling constraint (nothing arrives to
        // leak there) and costs no hardware-error draws — the per-bin
        // loop stops at the first absent bin exactly like the old
        // short-circuiting `collect::<Option<Vec<_>>>()`, so the RNG
        // stream is untouched. A believed channel to an *own* receiver
        // that is absent kills the whole plan — the policy asked to
        // serve a flow whose link is below the floor.
        let n_prot = protected.len();
        while scratch.bp.len() < n_prot * n_eval {
            scratch.bp.push(CMatrix::default());
        }
        scratch.bp_ok.clear();
        for p in 0..n_prot {
            let node = protected[p].node;
            let mut ok = true;
            for e in 0..n_eval {
                let k = self.eval_pos[e];
                let out = &mut scratch.bp[p * n_eval + e];
                if !self.believed_channel_into(ctx, tx, node, k, rng, out) {
                    ok = false;
                    break;
                }
            }
            scratch.bp_ok.push(ok);
        }
        // The precoder reads an own receiver's believed channel only to
        // align it against the joiner's *other* own receivers, so a lone
        // own receiver's is never read: its draws are skipped, not
        // computed, and the RNG ends the plan exactly where it would.
        while scratch.bo.len() < allocation.len() * n_eval {
            scratch.bo.push(CMatrix::default());
        }
        let lone = allocation.len() == 1;
        for (i, &(f, _)) in allocation.iter().enumerate() {
            let rx = self.spec.scenario.flows[f].rx;
            for e in 0..n_eval {
                let k = self.eval_pos[e];
                let out = &mut scratch.bo[i * n_eval + e];
                let present = if lone {
                    self.skip_believed_channel(ctx, tx, rx, k, rng, out)
                } else {
                    self.believed_channel_into(ctx, tx, rx, k, rng, out)
                };
                if !present {
                    return None;
                }
            }
        }
        scratch.audible.clear();
        scratch
            .audible
            .extend((0..n_prot).filter(|&p| scratch.bp_ok[p]));

        // Join power control against protected receivers (worst subcarrier
        // median is approximated by the middle subcarrier's matrix). The
        // §4 rule is a policy decision now: n+ runs it, `GreedyJoin` and
        // the oracle (whose nulls are exact) bypass it. Only audible
        // protected receivers enter the decision.
        let decision = if ctx.policy.join_power_control() {
            let mid = n_eval / 2;
            if scratch.audible.is_empty() {
                JoinPowerDecision::FullPower
            } else {
                // Fold the worst-case interference power incrementally
                // (starting from 0.0, exactly like `join_power_decision`'s
                // fold) instead of materializing a matrix list.
                let mut worst = 0.0f64;
                for &p in &scratch.audible {
                    let pow = expected_interference_power(&scratch.bp[p * n_eval + mid]);
                    worst = f64::max(worst, pow);
                }
                join_power_decision_from_worst(worst, self.l_db)
            }
        } else {
            JoinPowerDecision::FullPower
        };
        let amp = decision.amplitude();

        // Unwanted space each own receiver will advertise: span of the
        // true arrivals it already sees, extended to its spare dimension
        // count. (The receiver estimates these from overheard headers;
        // estimation is near-exact and the codec round-trip is tested
        // separately.) The receiver states are pushed as pooled shells
        // now — their unwanted spaces assigned in place, filters and
        // stream ids filled during rate selection below — and rolled
        // back wholesale on any failure. Only pre-existing streams are
        // live in `streams` at this point, exactly the set the old code
        // iterated as `ongoing_streams`.
        for &(f, n_streams) in allocation {
            let rx = self.spec.scenario.flows[f].rx;
            let n_rx = self.n_ant(rx);
            let target = n_rx.saturating_sub(n_streams);
            let rs = protected.push_slot();
            rs.node = rx;
            rs.stream_ids.clear();
            rs.reset_bins(n_eval);
            for e in 0..n_eval {
                let k = self.eval_pos[e];
                scratch.arrivals.clear();
                for s in streams.as_slice() {
                    let Some(h) = cache.matrix(s.tx_node, rx, k) else {
                        continue; // below the floor: arrives as nothing
                    };
                    h.mul_vec_into(&s.precoders[e], scratch.arrivals.push_slot());
                }
                extend_unwanted_into(
                    n_rx,
                    scratch.arrivals.as_slice(),
                    target,
                    &mut rs.unwanted[e],
                    &mut scratch.unw_ws,
                );
            }
        }

        // Push the new stream slots so the per-bin precoding loop can
        // fill them in place.
        for &(f, n_streams) in allocation {
            for _ in 0..n_streams {
                let slot = streams.push_slot();
                slot.flow = f;
                slot.rate = 0;
                slot.tx_node = tx;
                slot.active_symbols = 0;
                slot.precoders.clear();
            }
        }

        // Per-bin precoding through the split-storage kernels, with
        // accessor closures reading straight out of the flat pooled
        // believed-channel arrays — no per-bin view lists, no clones.
        for e in 0..n_eval {
            let result = {
                let Scratch {
                    bp,
                    bo,
                    audible,
                    prec_ws,
                    ..
                } = &mut *scratch;
                let bp: &[CMatrix] = bp;
                let bo: &[CMatrix] = bo;
                let audible: &[usize] = audible;
                let (prot_states, own_states) = protected.as_slice().split_at(rs_base);
                compute_precoders_into_with(
                    m_tx,
                    audible.len(),
                    |i| {
                        let p = audible[i];
                        ProtectedReceiverSoARef {
                            channel: &bp[p * n_eval + e],
                            unwanted: &prot_states[p].unwanted[e],
                        }
                    },
                    allocation.len(),
                    |i| OwnReceiverSoARef {
                        channel: &bo[i * n_eval + e],
                        n_streams: allocation[i].1,
                        unwanted: &own_states[i].unwanted[e],
                    },
                    prec_ws,
                )
            };
            match result {
                Ok(()) => {
                    for i in 0..total_new {
                        streams[stream_base + i]
                            .precoders
                            .push_slot()
                            .assign_scale_re(&scratch.prec_ws.out[i], amp);
                    }
                }
                Err(PrecoderError::NoDegreesOfFreedom | PrecoderError::TooManyStreams { .. }) => {
                    streams.truncate(stream_base);
                    protected.truncate(rs_base);
                    return None;
                }
            }
        }

        // Rate selection per stream: SINR at the owning receiver with
        // current ongoing interference (known to the receiver) — §3.4: the
        // joiner need not worry about future winners.
        //
        // The receive space is exactly budgeted: n wanted streams plus the
        // (N − n)-dimensional unwanted space. All streams destined to one
        // receiver are zero-forced *jointly* — one pseudo-inverse per
        // subcarrier, mirroring `settle_round`'s receiver model — with the
        // receiver's unwanted-space basis as the known-interference
        // columns. Streams destined to *other* receivers were aligned
        // into the unwanted space (covered by its basis) or nulled, and
        // whatever leaks outside is residual interference the receiver
        // cannot cancel.
        // Each bin's filter is built here, once, from the wanted arrival
        // columns and the unwanted-space basis, straight into the pooled
        // receiver state; settlement applies it to the round's residuals
        // and never inverts again. The rates land in the already-pushed
        // stream slots — a failure truncates both pools back to the entry
        // state, leaving the caller's view untouched just like the old
        // early `return None`.
        let mut lo = 0usize;
        for (i, &(f, n_streams)) in allocation.iter().enumerate() {
            let rx = self.spec.scenario.flows[f].rx;
            let hi = lo + n_streams;
            while scratch.sinr_acc.len() < n_streams {
                scratch.sinr_acc.push(Vec::new());
            }
            for acc in &mut scratch.sinr_acc[..n_streams] {
                acc.clear();
            }
            for e in 0..n_eval {
                let k = self.eval_pos[e];
                let Some(h_true) = cache.matrix(tx, rx, k) else {
                    streams.truncate(stream_base);
                    protected.truncate(rs_base);
                    return None;
                };
                scratch.residual.clear();
                scratch.wanted.clear();
                for other in 0..total_new {
                    h_true.mul_vec_into(
                        &streams[stream_base + other].precoders[e],
                        &mut scratch.arr_tmp,
                    );
                    if other >= lo && other < hi {
                        // Sibling destined to this receiver: a wanted
                        // ZF column (jointly decoded).
                        scratch.wanted.push_slot().copy_from(&scratch.arr_tmp);
                    } else {
                        // Destined elsewhere: aligned part lives inside
                        // the unwanted space (already a column); only the
                        // hardware-error leak outside it degrades this
                        // receiver.
                        let slot = scratch.residual.push_slot();
                        protected[rs_base + i].unwanted[e].reject_into(&scratch.arr_tmp, slot);
                        if slot.norm_sqr() <= 1e-9 {
                            scratch.residual.pop_slot();
                        }
                    }
                }
                {
                    let rs = &mut protected[rs_base + i];
                    rs.filters.push(
                        scratch.wanted.as_slice(),
                        rs.unwanted[e].basis(),
                        &mut scratch.zf_ws,
                    );
                    rs.filters
                        .apply(e, scratch.residual.as_slice(), 1.0, &mut scratch.sinr_tmp);
                }
                for (s, &v) in scratch.sinr_tmp.iter().enumerate() {
                    scratch.sinr_acc[s].push(v);
                }
            }
            for s in 0..n_streams {
                let rate =
                    select_stream_rate(self.rate_sinrs(&scratch.sinr_acc[s], &mut scratch.interp));
                match rate {
                    Some(r) => streams[stream_base + lo + s].rate = r,
                    None => {
                        streams.truncate(stream_base);
                        protected.truncate(rs_base);
                        return None;
                    }
                }
            }
            let rs = &mut protected[rs_base + i];
            rs.stream_ids.clear();
            rs.stream_ids.extend(stream_base + lo..stream_base + hi);
            lo = hi;
        }
        Some((stream_base, stream_base + total_new))
    }

    /// Evaluates the realized per-stream ESNRs at every receiver,
    /// including the residual interference the precoding failed to
    /// cancel, and returns delivered bits per flow. Each receiver state's
    /// filters were built at registration and its unwanted spaces have
    /// not changed since, so settlement only applies them.
    fn settle_round_into(
        &self,
        cache: &ChannelCache,
        planned: &Planned,
        scratch: &mut Scratch,
        bits: &mut Vec<f64>,
    ) {
        let (protected, streams) = (planned.protected.as_slice(), planned.streams.as_slice());
        bits.clear();
        bits.resize(self.spec.scenario.flows.len(), 0.0);
        for rx_state in protected {
            // Streams this state decodes: exactly the ones registered
            // with it. Matching by receiver *node* here would break the
            // hidden-terminal shape — two transmitters serving the same
            // node register two states, and each state's filters
            // decode only its own streams (the other
            // transmission's arrivals live in this state's unwanted
            // space, or leak as residual below).
            scratch.my_streams.clear();
            scratch
                .my_streams
                .extend(rx_state.stream_ids.iter().copied());
            if scratch.my_streams.is_empty() {
                continue;
            }
            // Per-stream SINR across evaluated bins, in the pooled
            // accumulators.
            let n_mine = scratch.my_streams.len();
            while scratch.sinr_acc.len() < n_mine {
                scratch.sinr_acc.push(Vec::new());
            }
            for acc in &mut scratch.sinr_acc[..n_mine] {
                acc.clear();
            }
            let mut residual_free = true;
            for (e, &k) in self.eval_pos.iter().enumerate() {
                // Residual interference: arrivals of *other* transmitters'
                // streams outside the advertised unwanted space.
                scratch.residual.clear();
                for (i, s) in streams.iter().enumerate() {
                    if scratch.my_streams.contains(&i) {
                        continue;
                    }
                    if s.tx_node == rx_state.node {
                        continue; // half duplex: own transmissions not heard
                    }
                    let Some(h) = cache.matrix(s.tx_node, rx_state.node, k) else {
                        continue; // below the floor: no interference here
                    };
                    h.mul_vec_into(&s.precoders[e], &mut scratch.arr_tmp);
                    let slot = scratch.residual.push_slot();
                    rx_state.unwanted[e].reject_into(&scratch.arr_tmp, slot);
                    if slot.norm_sqr() <= 1e-12 {
                        scratch.residual.pop_slot();
                    }
                }
                residual_free &= scratch.residual.is_empty();
                rx_state
                    .filters
                    .apply(e, scratch.residual.as_slice(), 1.0, &mut scratch.sinr_tmp);
                for (si, &v) in scratch.sinr_tmp.iter().enumerate() {
                    scratch.sinr_acc[si].push(v);
                }
            }
            for (si, &stream_id) in scratch.my_streams.iter().enumerate() {
                let s = &streams[stream_id];
                let mcs = RATE_TABLE[s.rate];
                let p = if residual_free {
                    // No residual on any bin: the stored filters see what
                    // planning saw — every residual planning kept is kept
                    // here too (planning drops leaks ≤ 1e-9, settlement
                    // only ≤ 1e-12) — so this is planning's track, whose
                    // ESNR met the rate's threshold (DESIGN.md §6).
                    debug_assert_eq!(
                        success_prob(
                            nplus_phy::esnr::effective_snr_db(
                                mcs.modulation,
                                self.rate_sinrs(&scratch.sinr_acc[si], &mut scratch.interp)
                            ),
                            s.rate
                        ),
                        1.0,
                        "residual-free settlement below its planned rate"
                    );
                    1.0
                } else {
                    let track = self.rate_sinrs(&scratch.sinr_acc[si], &mut scratch.interp);
                    let thr = RATE_ESNR_THRESHOLDS_DB[s.rate];
                    match esnr_band(mcs.modulation, track, thr - 1.0, thr) {
                        EsnrBand::Above => 1.0,
                        EsnrBand::Below => 0.0,
                        EsnrBand::Within(esnr_db) => success_prob(esnr_db, s.rate),
                    }
                };
                bits[s.flow] += (s.active_symbols * mcs.data_bits_per_symbol()) as f64 * p;
            }
        }
    }

    /// Simulates the spec's rounds of `policy` and returns the per-flow
    /// goodput. Engines are reusable: each call starts a fresh
    /// accounting with the caller's RNG.
    ///
    /// Every contention outcome, join attempt and end-of-round
    /// settlement is narrated to `observer` — the exact stream the
    /// returned [`RunResult`] is accumulated from (the
    /// `observer_contract` suite asserts the reconstruction is bitwise
    /// exact); pass [`NullObserver`](crate::observer::NullObserver) when
    /// nobody listens. `identity` is delivered unread through
    /// [`RunMeta`] — how the sweep layer labels each run's stream (seed,
    /// environment name, canonical key) for observers that persist what
    /// they watch.
    pub(crate) fn run(
        &self,
        policy: Policy,
        rng: &mut StdRng,
        observer: &mut dyn RoundObserver,
        identity: Option<RunIdentity>,
    ) -> RunResult {
        let mut acc = GoodputAccumulator::new();
        let meta = RunMeta {
            policy: policy.name(),
            n_flows: self.spec.scenario.flows.len(),
            rounds: self.spec.rounds,
            bandwidth_hz: OFDM.bandwidth_hz,
            identity,
        };
        let mut tee = Tee {
            a: observer,
            b: &mut acc,
        };
        tee.on_run_start(&meta);
        let mut scratch = Scratch::default();
        let mut bufs = RoundBufs::default();
        let mut traffic = TrafficState::new(&self.spec.traffic, self.spec.scenario.flows.len());
        let mut mobility = MobilityState::new_for(self);
        let mut active: Vec<usize> = Vec::with_capacity(self.transmitters.len());
        for round in 0..self.spec.rounds {
            if let Some(m) = mobility.as_mut() {
                if m.advance(&self.cache, round, rng) {
                    // Channels moved: memoized opening plans and
                    // schedules are stale.
                    scratch.first_plans.clear();
                    scratch.schedules.clear();
                }
            }
            // The mobility-rescaled per-run cache shadows the engine's
            // as-built one.
            let cache = match &mobility {
                Some(m) => &m.cache,
                None => &self.cache,
            };
            // Arrivals land before access: who contends this round is
            // decided by the queues as of now. Saturated traffic keeps
            // no queues, draws nothing, and activates everyone — the
            // exact legacy path.
            traffic.arrive(&self.spec.traffic, rng);
            active.clear();
            active.extend(
                self.transmitters
                    .iter()
                    .copied()
                    .filter(|&t| self.flows_of[t].iter().any(|&f| traffic.has_backlog(f))),
            );
            let ctx = RoundCtx {
                policy,
                round,
                cache,
                active: &active,
                traffic: &traffic,
            };
            let plan = if active.is_empty() {
                // Nothing queued anywhere: the medium idles one DIFS.
                bufs.plan.events.clear();
                bufs.plan
                    .close_idle(self.spec.scenario.flows.len(), self.timing.difs);
                &bufs.plan
            } else if policy.omniscient() {
                self.omniscient_round(&ctx, &mut scratch, &mut bufs, rng)
            } else {
                self.plan_round(&ctx, Access::Contended, &mut scratch, &mut bufs, rng);
                &bufs.plan
            };
            Self::emit_round(round, plan, &mut tee);
            traffic.note_serviced(plan.streams.iter().map(|s| s.flow));
        }
        acc.finish()
    }

    /// Narrates a planned round under `round`: its contention and join
    /// events in planning order, then its settlement. This is the one
    /// place a round's events are built, for a live round and for a
    /// schedule memo replay alike.
    fn emit_round(round: usize, plan: &RoundPlan, obs: &mut dyn RoundObserver) {
        for &event in &plan.events {
            match event {
                Event::Contention {
                    kind,
                    n_contenders,
                    winner,
                    slots,
                } => obs.on_contention(&ContentionRecord {
                    round,
                    kind,
                    n_contenders,
                    winner,
                    slots,
                }),
                Event::Join { tx, outcome } => {
                    let (n_streams, accepted) = match outcome {
                        JoinOutcome::Accepted(n) => (n, true),
                        JoinOutcome::EmptyAllocation => (0, false),
                        JoinOutcome::NoAirtime { requested }
                        | JoinOutcome::PlanFailed { requested } => (requested, false),
                    };
                    obs.on_join(&JoinRecord {
                        round,
                        tx,
                        n_streams,
                        accepted,
                    });
                }
            }
        }
        obs.on_round_end(&RoundRecord {
            round,
            body_symbols: plan.body_symbols,
            duration_samples: plan.duration_samples,
            flow_bits: &plan.flow_bits,
            streams: &plan.streams,
        });
    }

    /// Plans one round under `access` into `bufs.plan`: the primary's
    /// allocation pruned to backlogged flows, its plan and the body it
    /// opens, joins until the body's airtime runs out (joining policies
    /// only), then settlement and airtime accounting. Returns `false`
    /// when even the primary could not transmit (degenerate channels);
    /// the plan is then an idle round charged its overhead plus a DIFS.
    fn plan_round(
        &self,
        ctx: &RoundCtx<'_>,
        access: Access,
        scratch: &mut Scratch,
        bufs: &mut RoundBufs,
        rng: &mut StdRng,
    ) -> bool {
        let timing = &self.timing;
        bufs.planned.protected.clear();
        bufs.planned.streams.clear();
        bufs.plan.events.clear();
        let (primary, slots, kind) = match access {
            Access::Contended => {
                let (winner, slots) =
                    contend(ctx.active, timing, &mut bufs.cws, &mut bufs.draws, rng);
                (winner, slots, ContentionKind::Primary)
            }
            Access::Scheduled { primary } => (primary, 0, ContentionKind::Scheduled),
        };
        bufs.plan.events.push(Event::Contention {
            kind,
            n_contenders: ctx.active.len(),
            winner: primary,
            slots,
        });
        let mut overhead = timing.difs + slots * timing.slot;

        ctx.policy.primary_allocation_into(
            &self.spec.scenario,
            &self.flows_of,
            primary,
            ctx.round,
            &mut bufs.first_alloc,
        );
        ctx.traffic.retain_backlogged(&mut bufs.first_alloc);
        let planned = self.plan_winner(
            ctx,
            primary,
            &bufs.first_alloc,
            &mut bufs.planned,
            scratch,
            rng,
        );
        let Some((p0, p1)) = planned else {
            bufs.plan
                .close_idle(self.spec.scenario.flows.len(), overhead + timing.difs);
            return false;
        };
        // The body: handshake airtime from the real allocation, length
        // from the primary's aggregate rate (one packet per serviced
        // flow), and the primary's streams span all of it.
        let handshake = handshake_symbols(timing, &bufs.first_alloc, TYPICAL_BLOB_BYTES);
        overhead += timing.symbol * handshake as u64;
        let streams = &mut bufs.planned.streams;
        let rate_sum: usize = (p0..p1)
            .map(|i| RATE_TABLE[streams[i].rate].data_bits_per_symbol())
            .sum();
        let packet_bits = PACKET_BYTES * 8 * bufs.first_alloc.len();
        let body_symbols = packet_bits.div_ceil(rate_sum.max(1));
        for i in p0..p1 {
            streams[i].active_symbols = body_symbols;
        }
        bufs.plan.body_symbols = body_symbols;

        if ctx.policy.allows_join() {
            let mut elapsed = 0;
            scratch.barred.clear();
            while let Some((joiner, outcome)) =
                self.join_step(ctx, access, &mut elapsed, scratch, bufs, rng)
            {
                if matches!(access, Access::Contended)
                    || matches!(outcome, JoinOutcome::Accepted(_))
                {
                    bufs.plan.events.push(Event::Join {
                        tx: joiner,
                        outcome,
                    });
                }
                match (outcome, access) {
                    (JoinOutcome::Accepted(_), _)
                    | (JoinOutcome::PlanFailed { .. }, Access::Contended) => {}
                    (JoinOutcome::NoAirtime { .. }, _)
                    | (JoinOutcome::EmptyAllocation, Access::Contended) => break,
                    (
                        JoinOutcome::EmptyAllocation | JoinOutcome::PlanFailed { .. },
                        Access::Scheduled { .. },
                    ) => scratch.barred.push(joiner),
                }
            }
        }

        // Settle: realized SINRs including residuals.
        self.settle_round_into(ctx.cache, &bufs.planned, scratch, &mut bufs.plan.flow_bits);
        // Airtime: the overhead (contention, handshakes), the body, the
        // ACK exchange and the closing DIFS.
        let ack_syms = 2 + (timing.sifs as usize).div_ceil(timing.symbol as usize);
        bufs.plan.duration_samples =
            overhead + timing.symbol * (body_symbols + ack_syms) as u64 + timing.difs;
        // The round's final per-stream ledger, in planning order.
        bufs.plan.streams.clear();
        bufs.plan
            .streams
            .extend(bufs.planned.streams.iter().map(|s| StreamRecord {
                flow: s.flow,
                tx: s.tx_node,
                rate: s.rate,
                active_symbols: s.active_symbols,
            }));
        true
    }

    /// One join attempt in a round whose body is open: picks the joiner
    /// under `access` among the transmitters that send nothing yet, are
    /// not barred and have an antenna beyond the streams in flight;
    /// sizes its allocation and delay; checks the delay against the
    /// body's remaining airtime; and plans it. `elapsed` is the body
    /// time joins have spent so far. Returns `None` when nobody is
    /// eligible.
    fn join_step(
        &self,
        ctx: &RoundCtx<'_>,
        access: Access,
        elapsed: &mut usize,
        scratch: &mut Scratch,
        bufs: &mut RoundBufs,
        rng: &mut StdRng,
    ) -> Option<(usize, JoinOutcome)> {
        let timing = &self.timing;
        let k_used = bufs.planned.streams.len();
        let streams = &bufs.planned.streams;
        let barred = &scratch.barred;
        scratch.eligible.clear();
        scratch
            .eligible
            .extend(ctx.active.iter().copied().filter(|&t| {
                !barred.contains(&t)
                    && streams.iter().all(|s| s.tx_node != t)
                    && self.n_ant(t) > k_used
            }));
        if scratch.eligible.is_empty() {
            return None;
        }
        let (joiner, slots) = match access {
            Access::Contended => {
                let (winner, slots) = contend(
                    &scratch.eligible,
                    timing,
                    &mut bufs.cws,
                    &mut bufs.draws,
                    rng,
                );
                bufs.plan.events.push(Event::Contention {
                    kind: ContentionKind::Join,
                    n_contenders: scratch.eligible.len(),
                    winner,
                    slots,
                });
                (winner, slots)
            }
            Access::Scheduled { .. } => {
                let most_capable = scratch
                    .eligible
                    .iter()
                    .copied()
                    .max_by_key(|&t| (self.n_ant(t), std::cmp::Reverse(t)))?;
                (most_capable, 0)
            }
        };
        ctx.policy.join_allocation_into(
            &self.spec.scenario,
            &self.flows_of,
            joiner,
            k_used,
            ctx.round,
            &mut bufs.join_alloc,
        );
        ctx.traffic.retain_backlogged(&mut bufs.join_alloc);
        if bufs.join_alloc.is_empty() {
            return Some((joiner, JoinOutcome::EmptyAllocation));
        }
        let requested = bufs.join_alloc.iter().map(|&(_, n)| n).sum();
        // The join consumes body time: its backoff (none when
        // scheduled) plus its handshake, sized by the actual allocation.
        let delay = ((slots * timing.slot) as usize).div_ceil(timing.symbol as usize)
            + handshake_symbols(timing, &bufs.join_alloc, TYPICAL_BLOB_BYTES);
        let end = *elapsed + delay;
        if end >= bufs.plan.body_symbols {
            return Some((joiner, JoinOutcome::NoAirtime { requested }));
        }
        let planned = self.plan_winner(
            ctx,
            joiner,
            &bufs.join_alloc,
            &mut bufs.planned,
            scratch,
            rng,
        );
        // A contended joiner has spent its delay whether or not its plan
        // holds; the scheduler only spends it on a join that happens.
        if planned.is_some() || matches!(access, Access::Contended) {
            *elapsed = end;
        }
        let Some((j0, j1)) = planned else {
            return Some((joiner, JoinOutcome::PlanFailed { requested }));
        };
        for i in j0..j1 {
            bufs.planned.streams[i].active_symbols = bufs.plan.body_symbols - end;
        }
        Some((joiner, JoinOutcome::Accepted(j1 - j0)))
    }

    /// One omniscient-scheduler round: plan the round with every
    /// backlogged transmitter as the [`Access::Scheduled`] primary (no
    /// contention, perfect knowledge — no RNG is consumed) and keep the
    /// plan delivering the most bits per unit airtime. Ties keep the
    /// earlier transmitter, so the search is fully deterministic.
    ///
    /// An omniscient policy plans with perfect knowledge, which makes
    /// the winning plan a pure function of the round's schedule key
    /// (see [`schedule_key_into`](SimEngine::schedule_key_into)) and the
    /// run's channels: it is planned once per distinct key and kept in
    /// `scratch.schedules`, from which a later round with the same key
    /// narrates it again and allocates nothing.
    fn omniscient_round<'s>(
        &self,
        ctx: &RoundCtx<'_>,
        scratch: &'s mut Scratch,
        bufs: &mut RoundBufs,
        rng: &mut StdRng,
    ) -> &'s RoundPlan {
        self.schedule_key_into(ctx, &mut bufs.first_alloc, &mut scratch.schedule_key);
        let key = scratch.schedule_key.as_slice();
        if let Some(i) = scratch.schedules.iter().position(|(k, _)| k == key) {
            return &scratch.schedules[i].1;
        }
        let bits = |plan: &RoundPlan| plan.flow_bits.iter().sum::<f64>();
        let mut best: Option<RoundPlan> = None;
        for &primary in ctx.active {
            if !self.plan_round(ctx, Access::Scheduled { primary }, scratch, bufs, rng) {
                continue;
            }
            // Compare bits-per-sample by cross-multiplication (both
            // sides non-negative, durations positive) — strictly
            // greater replaces, so ties keep the earlier primary.
            let cand = &bufs.plan;
            let replace = match &best {
                None => true,
                Some(b) => {
                    bits(cand) * b.duration_samples as f64 > bits(b) * cand.duration_samples as f64
                }
            };
            if replace {
                best = Some(std::mem::take(&mut bufs.plan));
            }
        }
        let best = best.unwrap_or_else(|| {
            // Nobody could transmit: the failed opening's charge,
            // without a backoff.
            let mut idle = RoundPlan::default();
            let difs = self.timing.difs;
            idle.close_idle(self.spec.scenario.flows.len(), difs + difs);
            idle
        });
        if scratch.schedules.len() >= MAX_SCHEDULES {
            scratch.schedules.clear();
        }
        scratch.schedules.push((scratch.schedule_key.clone(), best));
        &scratch.schedules[scratch.schedules.len() - 1].1
    }

    /// Writes the omniscient schedule key of the round into `key`: the
    /// backlogged transmitters, then for each of them its primary
    /// allocation and its join allocation at every `k_used < n_ant`,
    /// each pruned to backlogged flows and prefixed by its length.
    /// `alloc` is a scratch buffer. These are all the inputs a
    /// [`plan_round`](SimEngine::plan_round) under
    /// [`Access::Scheduled`] reads besides the channels — a joiner
    /// always has `n_ant > k_used` — so two rounds with equal keys plan
    /// the same schedule. Taking the allocations themselves, not the
    /// round index, keys a rotating allocator by its rotation period
    /// whatever the period is.
    fn schedule_key_into(
        &self,
        ctx: &RoundCtx<'_>,
        alloc: &mut Vec<(usize, usize)>,
        key: &mut Vec<usize>,
    ) {
        let (policy, round) = (ctx.policy, ctx.round);
        key.clear();
        key.push(ctx.active.len());
        key.extend_from_slice(ctx.active);
        for &t in ctx.active {
            policy.primary_allocation_into(&self.spec.scenario, &self.flows_of, t, round, alloc);
            ctx.traffic.retain_backlogged(alloc);
            key.push(alloc.len());
            key.extend(alloc.iter().flat_map(|&(f, n)| [f, n]));
            for k in 0..self.n_ant(t) {
                policy.join_allocation_into(
                    &self.spec.scenario,
                    &self.flows_of,
                    t,
                    k,
                    round,
                    alloc,
                );
                ctx.traffic.retain_backlogged(alloc);
                key.push(alloc.len());
                key.extend(alloc.iter().flat_map(|&(f, n)| [f, n]));
            }
        }
    }
}

/// Per-run traffic queues. Under the pinned [`TrafficModel::Saturated`]
/// default no queues are kept, no RNG is drawn and every flow is always
/// backlogged — the exact legacy behavior, bit-for-bit.
struct TrafficState {
    /// Outstanding packets per flow; `None` means saturated (every
    /// queue reads as infinitely full).
    backlog: Option<Vec<u64>>,
    /// Bursty per-flow ON/OFF phase (empty for other models).
    on: Vec<bool>,
    /// Scratch: distinct flows serviced in the round being settled.
    serviced: Vec<usize>,
}

impl TrafficState {
    fn new(model: &TrafficModel, n_flows: usize) -> Self {
        match model {
            TrafficModel::Saturated => TrafficState {
                backlog: None,
                on: Vec::new(),
                serviced: Vec::new(),
            },
            TrafficModel::Poisson { .. } => TrafficState {
                backlog: Some(vec![0; n_flows]),
                on: Vec::new(),
                serviced: Vec::with_capacity(n_flows),
            },
            TrafficModel::Bursty { .. } => TrafficState {
                backlog: Some(vec![0; n_flows]),
                // Flows start their burst cycle ON so early rounds see
                // traffic under any epoch length.
                on: vec![true; n_flows],
                serviced: Vec::with_capacity(n_flows),
            },
        }
    }

    fn has_backlog(&self, flow: usize) -> bool {
        match &self.backlog {
            None => true,
            Some(b) => b[flow] > 0,
        }
    }

    /// Draws this round's arrivals, in flow order. Every non-saturated
    /// model consumes a fixed, data-independent RNG budget per round
    /// (Bursty: exactly one uniform per flow; Poisson: the standard
    /// product-method draw), so arrival streams never skew with what
    /// the MAC happened to deliver.
    fn arrive(&mut self, model: &TrafficModel, rng: &mut StdRng) {
        match model {
            TrafficModel::Saturated => {}
            TrafficModel::Poisson { mean_per_round } => {
                let backlog = self.backlog.as_mut().expect("poisson keeps queues");
                for q in backlog.iter_mut() {
                    *q += poisson_draw(*mean_per_round, rng);
                }
            }
            TrafficModel::Bursty {
                mean_on_rounds,
                mean_off_rounds,
            } => {
                let backlog = self.backlog.as_mut().expect("bursty keeps queues");
                for (f, q) in backlog.iter_mut().enumerate() {
                    // Geometric dwell in each phase: leave ON with
                    // probability 1/mean_on, OFF with 1/mean_off.
                    let u: f64 = rng.gen();
                    let p_leave = if self.on[f] {
                        1.0 / mean_on_rounds
                    } else {
                        1.0 / mean_off_rounds
                    };
                    if u < p_leave {
                        self.on[f] = !self.on[f];
                    }
                    if self.on[f] {
                        *q += BURST_ARRIVALS_PER_ROUND;
                    }
                }
            }
        }
    }

    /// Drops flows with empty queues from a policy's allocation. No-op
    /// under saturated traffic, so legacy allocations pass untouched.
    fn retain_backlogged(&self, alloc: &mut Vec<(usize, usize)>) {
        if let Some(b) = &self.backlog {
            alloc.retain(|&(f, _)| b[f] > 0);
        }
    }

    /// One packet leaves each *distinct* serviced flow's queue (a flow
    /// carried by several streams still delivered one packet —
    /// [`SimEngine::plan_round`] sizes the body that way).
    fn note_serviced(&mut self, flows: impl Iterator<Item = usize>) {
        let Some(b) = self.backlog.as_mut() else {
            return;
        };
        self.serviced.clear();
        for f in flows {
            if !self.serviced.contains(&f) {
                self.serviced.push(f);
            }
        }
        for &f in &self.serviced {
            b[f] = b[f].saturating_sub(1);
        }
    }
}

/// Knuth's product method: exact Poisson sampling with a number of
/// uniforms that depends only on the draws themselves (never on
/// simulation state), keeping the arrival stream reproducible. Exact
/// while `e^-mean` is a normal `f64`, which the traffic validator's
/// mean bound guarantees.
fn poisson_draw(mean: f64, rng: &mut StdRng) -> u64 {
    let limit = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// Per-run slow-mobility state: a waypoint walker that moves one node
/// per epoch and incrementally re-derives only the cached links
/// incident to the mover — the city-scale point of the sparse cache.
struct MobilityState {
    /// The run's working cache: the engine's as-built tables rescaled
    /// to the current positions. The engine reads every channel from
    /// here. A copy-on-write clone: it shares the engine's tables and
    /// owns only those of links incident to a node that has moved.
    cache: ChannelCache,
    /// As-built node positions (the factor's `d0` anchor).
    origin: Vec<Point>,
    /// Current node positions.
    positions: Vec<Point>,
    step_m: f64,
    epoch_rounds: usize,
}

impl MobilityState {
    /// Large-scale path-loss exponent the rescaling assumes; amplitude
    /// goes as `d^{-exp/2}`.
    const PATH_LOSS_EXP: f64 = 3.0;
    /// Distance clamp so a walker crossing its peer never divides by a
    /// vanishing separation.
    const MIN_DISTANCE_M: f64 = 0.1;

    /// `None` unless the run's config asks for waypoint mobility —
    /// static worlds allocate nothing and take the legacy round path.
    fn new_for(engine: &SimEngine<'_>) -> Option<Self> {
        let MobilityModel::Waypoint {
            step_m,
            epoch_rounds,
        } = engine.spec.mobility
        else {
            return None;
        };
        let origin: Vec<Point> = engine.topo.placements.iter().map(|l| l.pos).collect();
        Some(MobilityState {
            cache: engine.cache.clone(),
            positions: origin.clone(),
            origin,
            step_m,
            epoch_rounds,
        })
    }

    /// Advances the walk at `round`: at every epoch boundary one node
    /// (round-robin over the topology) steps `step_m` meters in a
    /// run-RNG-drawn uniform direction, and each cached link incident
    /// to it is rescaled by the amplitude image of the distance change,
    /// `(d0/d)^{exp/2}`. The link set is frozen at t=0: below-floor
    /// links never spring to life and installed links fade rather than
    /// vanish, so mobility changes link *strength*, never link
    /// *existence*. The rescaling is always anchored to `as_built`, the
    /// engine's own tables, so factors never compound across epochs.
    /// Returns whether anything moved (exactly one uniform is drawn when
    /// it did, zero otherwise).
    fn advance(&mut self, as_built: &ChannelCache, round: usize, rng: &mut StdRng) -> bool {
        if round == 0 || !round.is_multiple_of(self.epoch_rounds) || self.positions.is_empty() {
            return false;
        }
        let mover = (round / self.epoch_rounds - 1) % self.positions.len();
        let ang = rng.gen::<f64>() * std::f64::consts::TAU;
        self.positions[mover].x += self.step_m * ang.cos();
        self.positions[mover].y += self.step_m * ang.sin();
        // Links are reciprocal: the mover's neighbors are also the
        // senders of its incoming links.
        for &n in as_built.neighbors(mover) {
            for (f, t) in [(mover, n), (n, mover)] {
                let d0 = self.origin[f]
                    .distance(&self.origin[t])
                    .max(Self::MIN_DISTANCE_M);
                let d = self.positions[f]
                    .distance(&self.positions[t])
                    .max(Self::MIN_DISTANCE_M);
                let factor = (d0 / d).powf(0.5 * Self::PATH_LOSS_EXP);
                let table = as_built
                    .table(f, t)
                    .expect("links are reciprocal")
                    .scaled(factor);
                self.cache.set_table(f, t, table);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::policy::{Beamforming, Dot11n, GreedyJoin, NPlus, Oracle};
    use crate::sim::Scenario;
    use nplus_channel::environment::SIGCOMM11_INDOOR;
    use nplus_channel::freq_table::FreqResponseTable;
    use nplus_medium::topology::build_environment_topology;
    use rand::SeedableRng;

    /// `scenario` placed in the paper's world on its 20-location map,
    /// with the placement RNG as the draw left it.
    fn placed(scenario: &Scenario, seed: u64) -> (Topology, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = build_environment_topology(
            &SIGCOMM11_INDOOR,
            &SIGCOMM11_INDOOR
                .testbed(scenario.antennas.len())
                .expect("fits the paper map"),
            &scenario.antennas,
            10e6,
            seed,
            &mut rng,
        )
        .expect("fits the paper map");
        (topo, rng)
    }

    /// `three_pairs` in the paper's world for `rounds` rounds.
    fn three_pairs(rounds: usize) -> SweepSpec {
        SweepSpec::new(Scenario::three_pairs()).rounds(rounds)
    }

    /// One unobserved run of `policy` with a fresh RNG seeded by `seed`.
    fn run_seeded(engine: &SimEngine<'_>, policy: Policy, seed: u64) -> RunResult {
        engine.run(
            policy,
            &mut StdRng::seed_from_u64(seed),
            &mut NullObserver,
            None,
        )
    }

    fn run(policy: Policy, seed: u64) -> RunResult {
        let spec = three_pairs(12);
        let (topo, mut rng) = placed(&spec.scenario, seed);
        SimEngine::new(&topo, &spec).run(policy, &mut rng, &mut NullObserver, None)
    }

    #[test]
    fn nplus_beats_dot11n_on_average() {
        let mut n_total = 0.0;
        let mut d_total = 0.0;
        for seed in 0..6 {
            n_total += run(NPlus, seed).total_mbps;
            d_total += run(Dot11n, seed).total_mbps;
        }
        assert!(
            n_total > 1.3 * d_total,
            "n+ {:.1} Mb/s vs 802.11n {:.1} Mb/s — expected a clear win",
            n_total / 6.0,
            d_total / 6.0
        );
    }

    #[test]
    fn nplus_uses_more_dof() {
        let mut n_dof = 0.0;
        let mut d_dof = 0.0;
        for seed in 0..4 {
            n_dof += run(NPlus, seed).mean_dof;
            d_dof += run(Dot11n, seed).mean_dof;
        }
        assert!(
            n_dof > d_dof + 0.3 * 4.0,
            "n+ mean DoF {n_dof} vs 802.11n {d_dof}"
        );
    }

    #[test]
    fn throughput_is_positive_and_finite() {
        for policy in [NPlus, Dot11n] {
            let r = run(policy, 42);
            assert!(r.total_mbps.is_finite());
            assert!(
                r.total_mbps > 0.0,
                "{} produced zero throughput",
                policy.name()
            );
            assert_eq!(r.per_flow_mbps.len(), 3);
        }
    }

    #[test]
    fn ap_downlink_scenario_runs_all_protocols() {
        let spec = SweepSpec::new(Scenario::ap_downlink()).rounds(8);
        for policy in [NPlus, Dot11n, Beamforming] {
            let (topo, mut rng) = placed(&spec.scenario, 9);
            let r = SimEngine::new(&topo, &spec).run(policy, &mut rng, &mut NullObserver, None);
            assert!(r.total_mbps > 0.0, "{} zero throughput", policy.name());
        }
    }

    #[test]
    fn beamforming_beats_dot11n_on_downlink() {
        // MU beamforming serves both clients at once when AP2 wins, so it
        // must outperform single-user 802.11n in this scenario.
        let spec = SweepSpec::new(Scenario::ap_downlink()).rounds(10);
        let (mut bf, mut dn) = (0.0, 0.0);
        for seed in 0..6 {
            let (topo, mut rng) = placed(&spec.scenario, seed);
            bf += SimEngine::new(&topo, &spec)
                .run(Beamforming, &mut rng, &mut NullObserver, None)
                .total_mbps;
            dn += SimEngine::new(&topo, &spec)
                .run(Dot11n, &mut rng, &mut NullObserver, None)
                .total_mbps;
        }
        assert!(bf > dn, "beamforming {bf:.1} vs 802.11n {dn:.1}");
    }

    /// Regression: the contention fallback after 32 collision rounds used
    /// to return `contenders[0]` deterministically, biasing the first
    /// transmitter. With a degenerate zero window every round collides,
    /// so every contend() call takes the fallback — the winner must now
    /// be uniform across contenders.
    #[test]
    fn contend_fallback_is_unbiased() {
        let timing = SampleTiming {
            sifs: 160,
            difs: 340,
            slot: 90,
            cw_min: 0,
            cw_max: 0,
            symbol: 80,
        };
        let contenders = [10usize, 11, 12, 13];
        let mut rng = StdRng::seed_from_u64(77);
        let mut wins = [0usize; 4];
        let (mut cws, mut draws) = (Vec::new(), Vec::new());
        for _ in 0..400 {
            let (winner, _) = contend(&contenders, &timing, &mut cws, &mut draws, &mut rng);
            wins[winner - 10] += 1;
        }
        // The old code gave all 400 wins to index 0.
        for (i, &w) in wins.iter().enumerate() {
            assert!(
                w > 40,
                "contender {i} won only {w}/400 fallback contentions: {wins:?}"
            );
        }
    }

    /// Regression: `handshake_symbols` used to round the ACK airtime once
    /// across the summed total and ignore per-receiver stream counts.
    /// Each receiver sends its own ACK frame, so each must be padded to a
    /// symbol boundary individually, and multi-stream ACKs carry one rate
    /// byte per stream.
    #[test]
    fn handshake_symbols_pads_each_ack_and_counts_streams() {
        let timing = SampleTiming::usrp2();
        let base = BASE_RATE.data_bits_per_symbol();
        let sifs_syms = (timing.sifs as usize).div_ceil(timing.symbol as usize);
        // Frame sizes from the nplus-mac layout arithmetic, which that
        // crate pins against the byte layout, so the accounting can never
        // drift from what the wire format encodes.
        let hdr_bits = |n_rx: usize| DataHeader::encoded_len(n_rx) * 8;
        let ack_bits = |n_streams: usize, blob: usize| AckHeader::encoded_len(n_streams, blob) * 8;

        // A blob size whose per-ACK rounding differs from rounding the
        // summed total — the case the old accounting got wrong.
        let blob = (1usize..64)
            .find(|&b| 2 * ack_bits(1, b).div_ceil(base) != (2 * ack_bits(1, b)).div_ceil(base))
            .expect("some blob size must expose the summed-rounding bug");
        let expected =
            hdr_bits(2).div_ceil(base) + 2 * ack_bits(1, blob).div_ceil(base) + 2 * sifs_syms;
        assert_eq!(
            handshake_symbols(&timing, &[(0, 1), (1, 1)], blob),
            expected,
            "two single-stream ACKs must be padded individually"
        );

        // A blob size where one extra stream's rate index crosses a
        // symbol boundary: multi-stream handshakes must cost more than
        // single-stream ones.
        let blob2 = (1usize..64)
            .find(|&b| ack_bits(2, b).div_ceil(base) > ack_bits(1, b).div_ceil(base))
            .expect("some blob size must expose the stream-count bug");
        assert!(
            handshake_symbols(&timing, &[(0, 2)], blob2)
                > handshake_symbols(&timing, &[(0, 1)], blob2),
            "extra streams must be accounted in the ACK"
        );

        // Empty allocation falls back to the single-receiver baseline.
        assert_eq!(
            handshake_symbols(&timing, &[], blob),
            handshake_symbols(&timing, &[(0, 1)], blob)
        );
    }

    /// The engine is reusable: running twice with identically seeded RNGs
    /// must reproduce the result, and a fresh engine must match a reused
    /// one; an observer and an identity only listen.
    #[test]
    fn engine_reuse_is_deterministic() {
        let spec = three_pairs(6);
        let topo = placed(&spec.scenario, 21).0;
        let engine = SimEngine::new(&topo, &spec);
        let a = run_seeded(&engine, NPlus, 5);
        let b = run_seeded(&engine, NPlus, 5);
        let c = run_seeded(&SimEngine::new(&topo, &spec), NPlus, 5);
        let identity = RunIdentity {
            seed: 21,
            environment: "sigcomm11".to_string(),
            canonical_key: None,
        };
        let d = engine.run(
            NPlus,
            &mut StdRng::seed_from_u64(5),
            &mut GoodputAccumulator::new(),
            Some(identity),
        );
        assert_eq!(a.per_flow_mbps, b.per_flow_mbps);
        assert_eq!(a.per_flow_mbps, c.per_flow_mbps);
        assert_eq!(a.per_flow_mbps, d.per_flow_mbps);
        assert_eq!(a.total_mbps, c.total_mbps);
    }

    /// The omniscient scheduler consumes no RNG (perfect knowledge, no
    /// contention) and beats n+ on the canonical scenario.
    #[test]
    fn oracle_is_deterministic_and_dominates_here() {
        let spec = three_pairs(6);
        let topo = placed(&spec.scenario, 3).0;
        let engine = SimEngine::new(&topo, &spec);
        let a = run_seeded(&engine, Oracle, 1);
        let b = run_seeded(&engine, Oracle, 999);
        // Different RNG seeds, identical results: no RNG consumed.
        assert_eq!(a.per_flow_mbps, b.per_flow_mbps);
        assert_eq!(a.mean_dof, b.mean_dof);
        let np = run_seeded(&engine, NPlus, 1);
        assert!(
            a.total_mbps >= np.total_mbps,
            "oracle {:.2} below n+ {:.2}",
            a.total_mbps,
            np.total_mbps
        );
    }

    /// `GreedyJoin` differs from n+ only in the §4 power decision, so
    /// the RNG streams stay aligned and runs are comparable seed-by-seed.
    #[test]
    fn greedy_join_runs_and_uses_concurrency() {
        let spec = three_pairs(10);
        let topo = placed(&spec.scenario, 0).0;
        let engine = SimEngine::new(&topo, &spec);
        let g = run_seeded(&engine, GreedyJoin, 4);
        let d = run_seeded(&engine, Dot11n, 4);
        assert!(g.total_mbps.is_finite() && g.total_mbps > 0.0);
        assert!(g.mean_dof > d.mean_dof, "greedy join must still join");
    }

    /// Counts total delivered bits across a run — the load-sensitive
    /// observable (goodput in Mb/s hides idle rounds, which cost almost
    /// no airtime).
    #[derive(Default)]
    struct BitsTally {
        total: f64,
        idle_rounds: usize,
    }

    impl RoundObserver for BitsTally {
        fn on_round_end(&mut self, r: &RoundRecord<'_>) {
            self.total += r.flow_bits.iter().sum::<f64>();
            if r.streams.is_empty() {
                self.idle_rounds += 1;
            }
        }
    }

    fn three_pairs_topo(seed: u64) -> Topology {
        placed(&Scenario::three_pairs(), seed).0
    }

    /// Low-load Poisson arrivals idle most rounds and deliver strictly
    /// fewer bits than saturated traffic — deterministically in the run
    /// seed (arrivals come from the same RNG stream as the run).
    #[test]
    fn poisson_low_load_delivers_fewer_bits_deterministically() {
        let topo = three_pairs_topo(7);
        let sat_spec = three_pairs(16);
        let poi_spec = three_pairs(16).traffic(TrafficModel::Poisson {
            mean_per_round: 0.2,
        });
        let mut sat = BitsTally::default();
        SimEngine::new(&topo, &sat_spec).run(NPlus, &mut StdRng::seed_from_u64(2), &mut sat, None);
        let mut poi = BitsTally::default();
        let a = SimEngine::new(&topo, &poi_spec).run(
            NPlus,
            &mut StdRng::seed_from_u64(2),
            &mut poi,
            None,
        );
        assert!(
            poi.total < sat.total,
            "0.2 pkt/round Poisson delivered {} bits vs saturated {}",
            poi.total,
            sat.total
        );
        assert!(
            poi.idle_rounds > sat.idle_rounds,
            "low load must idle rounds"
        );
        // Same seed, same arrivals, same result — bit-for-bit.
        let b = run_seeded(&SimEngine::new(&topo, &poi_spec), NPlus, 2);
        assert_eq!(a.per_flow_mbps, b.per_flow_mbps);
        assert_eq!(a.total_mbps.to_bits(), b.total_mbps.to_bits());
    }

    /// Bursty flows with short ON and long OFF dwells starve the queue
    /// and deliver fewer bits than saturated traffic.
    #[test]
    fn bursty_traffic_starves_between_bursts() {
        let topo = three_pairs_topo(4);
        let sat_spec = three_pairs(16);
        let bur_spec = three_pairs(16).traffic(TrafficModel::Bursty {
            mean_on_rounds: 1.0,
            mean_off_rounds: 1e6,
        });
        let mut sat = BitsTally::default();
        SimEngine::new(&topo, &sat_spec).run(NPlus, &mut StdRng::seed_from_u64(9), &mut sat, None);
        let mut bur = BitsTally::default();
        let r = SimEngine::new(&topo, &bur_spec).run(
            NPlus,
            &mut StdRng::seed_from_u64(9),
            &mut bur,
            None,
        );
        assert!(r.total_mbps.is_finite());
        assert!(
            bur.total < sat.total,
            "mean-1-round bursts delivered {} bits vs saturated {}",
            bur.total,
            sat.total
        );
    }

    /// Waypoint mobility perturbs results (channels really change) and
    /// is deterministic in the run seed.
    #[test]
    fn waypoint_mobility_changes_results_deterministically() {
        let topo = three_pairs_topo(13);
        let still_spec = three_pairs(10);
        let move_spec = three_pairs(10).mobility(MobilityModel::Waypoint {
            step_m: 8.0,
            epoch_rounds: 2,
        });
        let still = run_seeded(&SimEngine::new(&topo, &still_spec), NPlus, 6);
        let moved = run_seeded(&SimEngine::new(&topo, &move_spec), NPlus, 6);
        assert_ne!(
            still.per_flow_mbps, moved.per_flow_mbps,
            "8 m steps every 2 rounds left every flow untouched"
        );
        let moved_again = run_seeded(&SimEngine::new(&topo, &move_spec), NPlus, 6);
        assert_eq!(moved.per_flow_mbps, moved_again.per_flow_mbps);
        assert_eq!(moved.total_mbps.to_bits(), moved_again.total_mbps.to_bits());
    }

    /// A mobility run rescales a copy-on-write clone of the engine's
    /// cache: afterwards the engine's own tables still equal a fresh
    /// build bit for bit, and a second run on the same engine
    /// reproduces the first.
    #[test]
    fn mobility_runs_leave_the_engine_cache_untouched() {
        let topo = three_pairs_topo(13);
        let spec = three_pairs(10).mobility(MobilityModel::Waypoint {
            step_m: 8.0,
            epoch_rounds: 2,
        });
        let engine = SimEngine::new(&topo, &spec);
        let first = run_seeded(&engine, NPlus, 6);
        let fresh = ChannelCache::build(&topo, &engine.occ, OFDM.fft_len);
        let keys: Vec<_> = fresh.links().collect();
        assert_eq!(engine.cache.links().collect::<Vec<_>>(), keys);
        for (f, t) in keys {
            assert_eq!(
                table_bits(engine.cache.table(f, t).unwrap()),
                table_bits(fresh.table(f, t).unwrap()),
                "link {f}->{t}"
            );
        }
        let second = run_seeded(&engine, NPlus, 6);
        assert_eq!(first.per_flow_mbps, second.per_flow_mbps);
        assert_eq!(first.total_mbps.to_bits(), second.total_mbps.to_bits());
    }

    /// A table's shape and every entry's bits, bin by bin.
    fn table_bits(table: &FreqResponseTable) -> Vec<u64> {
        let mut bits = Vec::new();
        for pos in 0..table.n_bins() {
            let m = table.matrix(pos);
            bits.extend([m.rows() as u64, m.cols() as u64]);
            for i in 0..m.rows() {
                for j in 0..m.cols() {
                    let z = m.get(i, j);
                    bits.extend([z.re.to_bits(), z.im.to_bits()]);
                }
            }
        }
        bits
    }

    /// Pins mobility's working copy of the cache on a sparse city:
    /// after every epoch of a waypoint walk, each link incident to a
    /// node that has moved equals its as-built table rescaled to the
    /// current positions, bit for bit, and every other link is its
    /// as-built table, bit for bit. The link set never changes.
    #[test]
    fn mobility_rescales_exactly_the_links_incident_to_movers() {
        use crate::sim::Flow;
        let world = nplus_channel::environment_from_name("multi_cell").expect("built-in world");
        let n = 32;
        let antennas: Vec<usize> = (0..n).map(|i| if i % 8 == 0 { 2 } else { 1 }).collect();
        let tb = world.testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let topo = build_environment_topology(world, &tb, &antennas, 10e6, 3, &mut rng).unwrap();
        let epoch_rounds = 2;
        let spec = SweepSpec::new(Scenario {
            antennas,
            flows: vec![Flow { tx: 1, rx: 0 }],
        })
        .environment(*world)
        .rounds(12)
        .mobility(MobilityModel::Waypoint {
            step_m: 8.0,
            epoch_rounds,
        });
        let engine = SimEngine::new(&topo, &spec);
        let as_built = &engine.cache;
        assert!(
            as_built.n_links() < n * (n - 1),
            "city world unexpectedly dense"
        );
        let mut m = MobilityState::new_for(&engine).expect("waypoint spec");
        let mut moved = vec![false; n];
        let mut rescaled = 0;
        for round in 0..spec.rounds {
            if !m.advance(as_built, round, &mut rng) {
                continue;
            }
            moved[(round / epoch_rounds - 1) % n] = true;
            assert_eq!(
                m.cache.links().collect::<Vec<_>>(),
                as_built.links().collect::<Vec<_>>()
            );
            for (f, t) in as_built.links() {
                let built = as_built.table(f, t).unwrap();
                let want = if moved[f] || moved[t] {
                    let d0 = m.origin[f]
                        .distance(&m.origin[t])
                        .max(MobilityState::MIN_DISTANCE_M);
                    let d = m.positions[f]
                        .distance(&m.positions[t])
                        .max(MobilityState::MIN_DISTANCE_M);
                    rescaled += 1;
                    built.scaled((d0 / d).powf(0.5 * MobilityState::PATH_LOSS_EXP))
                } else {
                    built.clone()
                };
                assert_eq!(
                    table_bits(m.cache.table(f, t).unwrap()),
                    table_bits(&want),
                    "round {round} link {f}->{t}"
                );
            }
        }
        assert!(moved.iter().filter(|&&b| b).count() >= 5, "too few epochs");
        assert!(rescaled > 0, "no mover had a link");
    }

    /// In a sparse city world an absent link is a typed miss, not a
    /// panic: a flow whose endpoints sit in cells beyond the link range
    /// settles to zero goodput while in-cell flows keep delivering.
    #[test]
    fn sparse_world_absent_link_flows_idle_instead_of_panicking() {
        use crate::sim::Flow;
        let world = nplus_channel::environment_from_name("multi_cell").expect("built-in world");

        // Four cells 45 m apart: cell 0 and cell 3 are 135 m apart,
        // past the 100 m link range — no link is installed between them.
        let n = 32;
        let antennas: Vec<usize> = (0..n).map(|i| if i % 8 == 0 { 2 } else { 1 }).collect();
        let scenario = Scenario {
            antennas,
            flows: vec![
                Flow { tx: 1, rx: 0 },  // in-cell uplink, link installed
                Flow { tx: 2, rx: 25 }, // cell 0 → cell 3, below the floor
            ],
        };
        let tb = world.testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let topo =
            build_environment_topology(world, &tb, &scenario.antennas, 10e6, 17, &mut rng).unwrap();
        assert!(
            topo.medium.link(topo.nodes[2], topo.nodes[25]).is_none(),
            "cross-map link unexpectedly installed"
        );
        let spec = SweepSpec::new(scenario).environment(*world).rounds(8);
        let engine = SimEngine::new(&topo, &spec);
        for policy in [NPlus, Dot11n, Oracle] {
            let r = run_seeded(&engine, policy, 3);
            assert!(
                r.per_flow_mbps[0] > 0.0,
                "{}: in-cell flow starved",
                policy.name()
            );
            assert_eq!(
                r.per_flow_mbps[1],
                0.0,
                "{}: flow over an absent link delivered bits",
                policy.name()
            );
        }
    }

    /// The decimated-grid interpolator reproduces the evaluated bins
    /// exactly and stays within the track's range between them.
    #[test]
    fn interpolate_track_is_exact_at_evaluated_bins() {
        let eval_pos = vec![0usize, 4, 8, 12];
        let vals = [10.0, 2.0, 6.0, 4.0];
        let mut out = Vec::new();
        interpolate_track(&eval_pos, &vals, 15, &mut out);
        assert_eq!(out.len(), 15);
        for (i, &k) in eval_pos.iter().enumerate() {
            assert_eq!(out[k].to_bits(), vals[i].to_bits(), "bin {k} not exact");
        }
        // Midpoint of a segment is the *geometric* mean of its endpoints
        // (log-domain interpolation — fades are multiplicative).
        assert!((out[2] - (10.0f64 * 2.0).sqrt()).abs() < 1e-12);
        // Past the last evaluated bin: held flat.
        assert_eq!(out[13].to_bits(), vals[3].to_bits());
        assert_eq!(out[14].to_bits(), vals[3].to_bits());
        // Within range everywhere.
        for &v in &out {
            assert!((2.0..=10.0).contains(&v));
        }
    }

    /// `SinrGrid::Decimated(k)` runs end-to-end, produces positive
    /// finite goodput, and lands near the full-grid result (the SINR
    /// tracks are smooth across neighbouring OFDM bins).
    #[test]
    fn decimated_grid_tracks_full_grid() {
        let topo = three_pairs_topo(11);
        let full_spec = three_pairs(10);
        let dec_spec = three_pairs(10).sinr_grid(SinrGrid::Decimated(4));
        let full = run_seeded(&SimEngine::new(&topo, &full_spec), NPlus, 8);
        let dec = run_seeded(&SimEngine::new(&topo, &dec_spec), NPlus, 8);
        assert!(dec.total_mbps.is_finite() && dec.total_mbps > 0.0);
        let rel = (dec.total_mbps - full.total_mbps).abs() / full.total_mbps;
        assert!(
            rel < 0.25,
            "decimated {:.2} Mb/s vs full {:.2} Mb/s ({:.0}% apart)",
            dec.total_mbps,
            full.total_mbps,
            rel * 100.0
        );
        // Decimated runs are themselves deterministic.
        let again = run_seeded(&SimEngine::new(&topo, &dec_spec), NPlus, 8);
        assert_eq!(dec.total_mbps.to_bits(), again.total_mbps.to_bits());
    }
}
