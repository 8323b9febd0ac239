//! The reusable per-topology simulation engine.
//!
//! [`SimEngine`] owns the physics of a round — channel knowledge,
//! precoding, SINR settlement, handshake and airtime accounting — and
//! delegates every protocol decision to a
//! [`MacPolicy`](crate::policy::MacPolicy). Construction precomputes
//! the round-invariant context (occupied subcarriers, transmitter list,
//! per-transmitter flow lists) and a [`ChannelCache`] holding every
//! link's per-subcarrier frequency response, evaluated once instead of
//! inside the round × stream × subcarrier × interferer loop nest. Only
//! the **pure true channels** are cached; believed channels draw
//! hardware error from the RNG on every call. The cached tables equal
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
    MobilityModel, RunResult, Scenario, SimConfig, SinrGrid, TrafficModel, BURST_ARRIVALS_PER_ROUND,
};
use crate::link::{zf_sinr_slices_into, ZfWorkspace};
use crate::observer::{
    ContentionKind, ContentionRecord, GoodputAccumulator, JoinRecord, RoundObserver, RoundRecord,
    RunIdentity, RunMeta, StreamRecord, Tee,
};
use crate::policy::{AllocScratch, MacPolicy, PolicyView};
use crate::power_control::{
    expected_interference_power_soa, join_power_decision_from_worst, JoinPowerDecision,
};
use crate::precoder::{
    compute_precoders_into, compute_precoders_into_with, OwnReceiverSoARef, PrecoderError,
    PrecoderWorkspace, ProtectedReceiverSoARef,
};
use nplus_channel::placement::Point;
use nplus_linalg::{CMatrixSoA, CVector, Subspace, SubspaceWorkspace, VecPool};
use nplus_mac::backoff::{resolve_contention_in, ContentionOutcome};
use nplus_mac::frames::{AckHeader, DataHeader};
use nplus_mac::timing::SampleTiming;
use nplus_medium::chancache::ChannelCache;
use nplus_medium::topology::Topology;
use nplus_phy::params::occupied_subcarrier_indices;
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
/// Pooled like [`PlannedStream`]: `unwanted`/`wanted` grow once to the
/// engine's evaluated-bin count and are then reassigned in place every
/// round, so the steady state allocates nothing.
#[derive(Default)]
struct ReceiverState {
    node: usize,
    /// Ids (into the round's stream list) of the streams this state
    /// decodes: exactly the columns of `wanted`, in order.
    stream_ids: Vec<usize>,
    /// Advertised unwanted space per evaluated bin.
    unwanted: Vec<Subspace>,
    /// Wanted effective channels per evaluated bin (columns appended as
    /// this receiver's streams are planned).
    wanted: Vec<VecPool<CVector>>,
}

impl ReceiverState {
    /// Ensures the per-bin vectors cover `n_eval` slots (allocating only
    /// on first growth — never shrinking, so slot buffers survive) and
    /// clears the wanted columns for the round being planned.
    fn reset_bins(&mut self, n_eval: usize) {
        while self.unwanted.len() < n_eval {
            self.unwanted.push(Subspace::default());
        }
        while self.wanted.len() < n_eval {
            self.wanted.push(VecPool::default());
        }
        for w in &mut self.wanted[..n_eval] {
            w.clear();
        }
    }
}

/// A memoized opening plan: the full per-subcarrier planning result of a
/// transmitter opening a round with a single receiver and no protected
/// receivers. In that case the precoders are an unconstrained orthonormal
/// basis and rate selection sees only the pure true channels — nothing
/// depends on the believed-channel draws — so the plan (or its rate
/// failure) is a fixed function of the topology and can be computed once
/// per run instead of once per round.
struct FirstPlan {
    /// Per-stream, per-subcarrier pre-coding vectors.
    precoders: Vec<Vec<CVector>>,
    /// Chosen rate per stream.
    rates: Vec<RateIndex>,
    /// The receiver's advertised unwanted space per subcarrier.
    unwanted: Vec<Subspace>,
    /// The receiver's wanted arrival columns per subcarrier.
    wanted: Vec<Vec<CVector>>,
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
    /// Secondary-contention eligible transmitters.
    eligible: Vec<usize>,
    /// Stream counts per receiver for handshake sizing.
    streams_per_rx: Vec<usize>,
    /// Stream ids destined to the receiver being settled.
    my_streams: Vec<usize>,
    /// Memoized opening plans keyed by `(tx, flow, n_streams)`; `None`
    /// records a rate-selection failure (also a pure topology fact).
    first_plans: Vec<((usize, usize, usize), Option<FirstPlan>)>,
    /// Believed channels to protected receivers, flat `[p * n_eval + e]`.
    bp: Vec<CMatrixSoA>,
    /// Audibility per protected receiver (`false`: below the floor, no
    /// nulling constraint and no further believed-channel draws).
    bp_ok: Vec<bool>,
    /// Indices of the audible protected receivers.
    audible: Vec<usize>,
    /// Believed channels to own receivers, flat `[i * n_eval + e]`.
    bo: Vec<CMatrixSoA>,
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

/// Round-lifetime pools owned by [`SimEngine::run`]: the stream and
/// receiver-state lists plus the contention, allocation and settlement
/// buffers, reused across rounds instead of allocated fresh each round.
#[derive(Default)]
struct RoundBufs {
    protected: VecPool<ReceiverState>,
    streams: VecPool<PlannedStream>,
    first_alloc: Vec<(usize, usize)>,
    join_alloc: Vec<(usize, usize)>,
    alloc_ws: AllocScratch,
    round_bits: Vec<f64>,
    records: Vec<StreamRecord>,
    /// Contention windows / backoff draws for [`contend`].
    cws: Vec<u32>,
    draws: Vec<u32>,
}

/// One fully evaluated omniscient-scheduler candidate: the outcome of
/// forcing a particular primary transmitter for the round.
struct CandidateRound {
    primary: usize,
    /// `(joiner, streams granted)` in join order.
    joins: Vec<(usize, usize)>,
    flow_bits: Vec<f64>,
    bits_total: f64,
    body_symbols: usize,
    duration_samples: u64,
    streams: Vec<StreamRecord>,
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
pub const TYPICAL_BLOB_BYTES: usize = 62;

/// Header exchange cost in OFDM symbols: data header + SIFS + per-receiver
/// ACK headers (each with an alignment blob of `blob_bytes`) + SIFS, all
/// at base rate.
///
/// `streams_per_rx` holds the actual stream allocation, one entry per
/// receiver. Both frame sizes come from the real codecs in `nplus-mac`:
/// the data header lists the real per-receiver stream counts, each ACK
/// carries one rate index per stream (§3.4 selects rates per stream),
/// and — since every receiver transmits its own ACK frame — each ACK is
/// padded to a whole OFDM symbol individually rather than rounding once
/// across the summed total.
fn handshake_symbols(cfg: &SimConfig, streams_per_rx: &[usize], blob_bytes: usize) -> usize {
    let one = [1usize];
    let per_rx: &[usize] = if streams_per_rx.is_empty() {
        &one
    } else {
        streams_per_rx
    };
    // Frame sizes via the codecs' closed forms (`encoded_len` is pinned
    // bit-for-bit against `to_bytes().len()` by the frames tests), so the
    // hot path never materializes header byte vectors.
    let hdr_bits = DataHeader::encoded_len(per_rx.len()) * 8;
    let base = BASE_RATE.data_bits_per_symbol();
    let ack_symbols: usize = per_rx
        .iter()
        .map(|&n| (AckHeader::encoded_len(n.max(1), blob_bytes) * 8).div_ceil(base))
        .sum();
    let sifs_syms = (cfg.timing.sifs as usize).div_ceil(cfg.timing.symbol as usize);
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
pub struct SimEngine<'a> {
    topo: &'a Topology,
    scenario: &'a Scenario,
    cfg: &'a SimConfig,
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
    /// Builds the engine for one topology/scenario/config triple.
    pub fn new(topo: &'a Topology, scenario: &'a Scenario, cfg: &'a SimConfig) -> Self {
        let occ = occupied_subcarrier_indices();
        let eval_pos: Vec<usize> = match cfg.sinr_grid {
            SinrGrid::Full => (0..occ.len()).collect(),
            SinrGrid::Decimated(k) => (0..occ.len()).step_by(k.max(1)).collect(),
        };
        let cache = ChannelCache::build(topo, &occ, cfg.ofdm.fft_len);
        SimEngine {
            topo,
            scenario,
            cfg,
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
        match self.cfg.sinr_grid {
            SinrGrid::Full => per_eval,
            SinrGrid::Decimated(_) => {
                interpolate_track(&self.eval_pos, per_eval, self.occ.len(), interp);
                interp
            }
        }
    }

    /// The policy-facing view of this engine's scenario context.
    fn policy_view(&self) -> PolicyView<'_> {
        PolicyView::new(self.scenario, &self.flows_of)
    }

    /// True per-subcarrier channel matrix between two scenario nodes,
    /// served from `cache` (the engine's own, or a run's
    /// mobility-rescaled copy).
    ///
    /// `None` is the typed "no such link" answer: in sparse worlds it
    /// means the link sits below the environment's received-power floor,
    /// and every caller treats it as *nothing arrives* — no interference
    /// contribution, no nulling constraint, no flow service — instead of
    /// panicking on a missing cache entry.
    fn true_channel<'c>(
        &self,
        cache: &'c ChannelCache,
        from: usize,
        to: usize,
        k_occ: usize,
    ) -> Option<&'c CMatrixSoA> {
        cache.matrix(from, to, k_occ)
    }

    /// What a transmitter believes the channel is: reciprocity plus
    /// hardware error, per bin — or the exact true channel for a
    /// [`perfect_knowledge`](MacPolicy::perfect_knowledge) policy.
    /// Imperfect knowledge is never cached: the hardware error draw must
    /// consume the RNG stream on every call; perfect knowledge consumes
    /// no RNG at all. An absent link returns `false` (and leaves `out`
    /// untouched) and consumes no RNG either — below the floor there is
    /// no reverse channel to estimate from.
    #[allow(clippy::too_many_arguments)]
    fn believed_channel_into(
        &self,
        policy: &dyn MacPolicy,
        cache: &ChannelCache,
        from: usize,
        to: usize,
        k_occ: usize,
        rng: &mut StdRng,
        out: &mut CMatrixSoA,
    ) -> bool {
        let Some(h) = self.true_channel(cache, from, to, k_occ) else {
            return false;
        };
        if policy.perfect_knowledge() {
            out.assign_from(h);
        } else {
            self.cfg
                .hardware
                .reciprocal_channel_knowledge_into(h, rng, out);
        }
        true
    }

    fn n_ant(&self, node: usize) -> usize {
        self.scenario.antennas[node]
    }

    /// Computes the memoizable opening plan of `tx` sending `n_streams`
    /// to the receiver of `f` with no protected receivers (see
    /// [`FirstPlan`]): unconstrained precoding basis, per-subcarrier
    /// unwanted spaces and arrival columns, joint-ZF rate selection —
    /// all from pure true channels, no RNG. Returns `None` when even the
    /// most robust rate cannot be sustained, or the direct link is not
    /// modeled at all (below the floor in a sparse world) — both pure
    /// topology facts, memoized as failures.
    fn plan_opening_single(
        &self,
        policy: &dyn MacPolicy,
        cache: &ChannelCache,
        tx: usize,
        f: usize,
        n_streams: usize,
    ) -> Option<FirstPlan> {
        let n_eval = self.n_eval();
        let m_tx = self.n_ant(tx);
        let rx = self.scenario.flows[f].rx;
        let n_rx = self.n_ant(rx);
        let target = n_rx.saturating_sub(n_streams);

        // Cold path, executed once per (tx, flow, n_streams) key per run:
        // local workspaces and owned result vectors are fine here — the
        // hot path only ever copies out of the memoized plan.
        let mut unw_ws = UnwantedWorkspace::default();
        let mut prec_ws = PrecoderWorkspace::default();
        let mut zf_ws = ZfWorkspace::default();
        let mut sinrs = Vec::new();

        // No ongoing arrivals: the advertised unwanted space is the same
        // construction on every bin.
        let unwanted: Vec<Subspace> = (0..n_eval)
            .map(|_| {
                let mut s = Subspace::default();
                extend_unwanted_into(n_rx, &[], target, &mut s, &mut unw_ws);
                s
            })
            .collect();

        let mut precoders: Vec<Vec<CVector>> = vec![Vec::with_capacity(n_eval); n_streams];
        for (e, &k) in self.eval_pos.iter().enumerate() {
            let h = self.true_channel(cache, tx, rx, k)?;
            let own = [OwnReceiverSoARef {
                channel: h,
                n_streams,
                unwanted: &unwanted[e],
            }];
            match compute_precoders_into(m_tx, &[], &own, &mut prec_ws) {
                Ok(()) => {
                    for (i, v) in prec_ws.out.iter().enumerate() {
                        precoders[i].push(v.clone());
                    }
                }
                Err(_) => return None,
            }
        }

        // Joint-ZF rate selection against the pure channel (no ongoing
        // interference, no residuals — the receiver decodes its own
        // streams against its unwanted-space basis).
        let mut per_stream_sinrs: Vec<Vec<f64>> = vec![Vec::with_capacity(n_eval); n_streams];
        let mut wanted: Vec<Vec<CVector>> = Vec::with_capacity(n_eval);
        for (e, &k) in self.eval_pos.iter().enumerate() {
            let h = self.true_channel(cache, tx, rx, k)?;
            let cols: Vec<CVector> = precoders.iter().map(|pc| h.mul_vec(&pc[e])).collect();
            zf_sinr_slices_into(&cols, unwanted[e].basis(), &[], 1.0, &mut zf_ws, &mut sinrs);
            for (s, &v) in sinrs.iter().enumerate() {
                per_stream_sinrs[s].push(v);
            }
            wanted.push(cols);
        }
        let mut interp = Vec::new();
        let mut rates = Vec::with_capacity(n_streams);
        for sinrs in &per_stream_sinrs {
            rates.push(policy.select_rate(self.rate_sinrs(sinrs, &mut interp))?);
        }
        Some(FirstPlan {
            precoders,
            rates,
            unwanted,
            wanted,
        })
    }

    /// Plans the transmission of one winner: computes precoders against
    /// the currently protected receivers, registers the new receiver
    /// state, and returns the planned streams as the contiguous id range
    /// `[start, end)` they occupy in `streams` (ids are always appended
    /// sequentially). Returns `None` — with `protected`/`streams` rolled
    /// back to their entry state — if the winner cannot join (no DoF,
    /// rate selection failure, or precoder degeneracy).
    #[allow(clippy::too_many_arguments)]
    fn plan_winner(
        &self,
        policy: &dyn MacPolicy,
        cache: &ChannelCache,
        tx: usize,
        allocation: &[(usize, usize)],
        protected: &mut VecPool<ReceiverState>,
        streams: &mut VecPool<PlannedStream>,
        body_symbols_left: usize,
        scratch: &mut Scratch,
        rng: &mut StdRng,
    ) -> Option<(usize, usize)> {
        let n_eval = self.n_eval();
        let m_tx = self.n_ant(tx);
        let total_new: usize = allocation.iter().map(|(_, n)| n).sum();
        if total_new == 0 {
            return None;
        }
        let stream_base = streams.len();
        let rs_base = protected.len();

        // Opening a round with one receiver and nothing to protect: the
        // whole plan is a pure function of the topology (see
        // [`FirstPlan`]) — serve it from the per-run memo. Multi-receiver
        // openings and joins stay on the full path below, where believed
        // channels (and hence the RNG stream) genuinely matter.
        if protected.is_empty() && allocation.len() == 1 {
            let (f, n_streams) = allocation[0];
            let key = (tx, f, n_streams);
            let idx = match scratch.first_plans.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    let plan = self.plan_opening_single(policy, cache, tx, f, n_streams);
                    scratch.first_plans.push((key, plan));
                    scratch.first_plans.len() - 1
                }
            };
            let plan = scratch.first_plans[idx].1.as_ref()?;
            let rx = self.scenario.flows[f].rx;
            for s in 0..n_streams {
                let slot = streams.push_slot();
                slot.flow = f;
                slot.rate = plan.rates[s];
                slot.tx_node = tx;
                slot.active_symbols = body_symbols_left;
                slot.precoders.clear();
                for pc in &plan.precoders[s] {
                    slot.precoders.push_slot().copy_from(pc);
                }
            }
            let rs = protected.push_slot();
            rs.node = rx;
            rs.stream_ids.clear();
            rs.stream_ids.extend(stream_base..stream_base + n_streams);
            rs.reset_bins(n_eval);
            for e in 0..n_eval {
                rs.unwanted[e].assign_from(&plan.unwanted[e]);
                for c in &plan.wanted[e] {
                    rs.wanted[e].push_slot().copy_from(c);
                }
            }
            return Some((stream_base, stream_base + n_streams));
        }

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
            scratch.bp.push(CMatrixSoA::default());
        }
        scratch.bp_ok.clear();
        for p in 0..n_prot {
            let node = protected[p].node;
            let mut ok = true;
            for e in 0..n_eval {
                let k = self.eval_pos[e];
                let out = &mut scratch.bp[p * n_eval + e];
                if !self.believed_channel_into(policy, cache, tx, node, k, rng, out) {
                    ok = false;
                    break;
                }
            }
            scratch.bp_ok.push(ok);
        }
        while scratch.bo.len() < allocation.len() * n_eval {
            scratch.bo.push(CMatrixSoA::default());
        }
        for (i, &(f, _)) in allocation.iter().enumerate() {
            let rx = self.scenario.flows[f].rx;
            for e in 0..n_eval {
                let k = self.eval_pos[e];
                let out = &mut scratch.bo[i * n_eval + e];
                if !self.believed_channel_into(policy, cache, tx, rx, k, rng, out) {
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
        let decision = if policy.join_power_control() {
            let mid = n_eval / 2;
            if scratch.audible.is_empty() {
                JoinPowerDecision::FullPower
            } else {
                // Fold the worst-case interference power incrementally
                // (starting from 0.0, exactly like `join_power_decision`'s
                // fold) instead of materializing a matrix list.
                let mut worst = 0.0f64;
                for &p in &scratch.audible {
                    let pow = expected_interference_power_soa(&scratch.bp[p * n_eval + mid]);
                    worst = f64::max(worst, pow);
                }
                join_power_decision_from_worst(worst, self.cfg.l_db)
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
        // now — their unwanted spaces assigned in place, wanted columns
        // and stream ids filled during rate selection below — and rolled
        // back wholesale on any failure. Only pre-existing streams are
        // live in `streams` at this point, exactly the set the old code
        // iterated as `ongoing_streams`.
        for &(f, n_streams) in allocation {
            let rx = self.scenario.flows[f].rx;
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
                    let Some(h) = self.true_channel(cache, s.tx_node, rx, k) else {
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
                slot.active_symbols = body_symbols_left;
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
                let bp: &[CMatrixSoA] = bp;
                let bo: &[CMatrixSoA] = bo;
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
        // The wanted arrival columns land directly in the pooled
        // receiver states (exactly the true-channel products the old
        // code kept in `wanted_cols` for registration), and the rates in
        // the already-pushed stream slots — a failure truncates both
        // pools back to the entry state, leaving the caller's view
        // untouched just like the old early `return None`.
        let mut lo = 0usize;
        for (i, &(f, n_streams)) in allocation.iter().enumerate() {
            let rx = self.scenario.flows[f].rx;
            let hi = lo + n_streams;
            while scratch.sinr_acc.len() < n_streams {
                scratch.sinr_acc.push(Vec::new());
            }
            for acc in &mut scratch.sinr_acc[..n_streams] {
                acc.clear();
            }
            for e in 0..n_eval {
                let k = self.eval_pos[e];
                let Some(h_true) = self.true_channel(cache, tx, rx, k) else {
                    streams.truncate(stream_base);
                    protected.truncate(rs_base);
                    return None;
                };
                scratch.residual.clear();
                for other in 0..total_new {
                    h_true.mul_vec_into(
                        &streams[stream_base + other].precoders[e],
                        &mut scratch.arr_tmp,
                    );
                    if other >= lo && other < hi {
                        // Sibling destined to this receiver: a wanted
                        // ZF column (jointly decoded).
                        protected[rs_base + i].wanted[e]
                            .push_slot()
                            .copy_from(&scratch.arr_tmp);
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
                    let rs = &protected[rs_base + i];
                    zf_sinr_slices_into(
                        rs.wanted[e].as_slice(),
                        rs.unwanted[e].basis(),
                        scratch.residual.as_slice(),
                        1.0,
                        &mut scratch.zf_ws,
                        &mut scratch.sinr_tmp,
                    );
                }
                for (s, &v) in scratch.sinr_tmp.iter().enumerate() {
                    scratch.sinr_acc[s].push(v);
                }
            }
            for s in 0..n_streams {
                let rate =
                    policy.select_rate(self.rate_sinrs(&scratch.sinr_acc[s], &mut scratch.interp));
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
    /// cancel, and returns delivered bits per flow.
    fn settle_round_into(
        &self,
        cache: &ChannelCache,
        protected: &[ReceiverState],
        streams: &[PlannedStream],
        scratch: &mut Scratch,
        bits: &mut Vec<f64>,
    ) {
        bits.clear();
        bits.resize(self.scenario.flows.len(), 0.0);
        for rx_state in protected {
            // Streams this state decodes: exactly the ones registered
            // with it. Matching by receiver *node* here would break the
            // hidden-terminal shape — two transmitters serving the same
            // node register two states, and each state's `wanted`
            // columns cover only its own streams (the other
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
                    let Some(h) = self.true_channel(cache, s.tx_node, rx_state.node, k) else {
                        continue; // below the floor: no interference here
                    };
                    h.mul_vec_into(&s.precoders[e], &mut scratch.arr_tmp);
                    let slot = scratch.residual.push_slot();
                    rx_state.unwanted[e].reject_into(&scratch.arr_tmp, slot);
                    if slot.norm_sqr() <= 1e-12 {
                        scratch.residual.pop_slot();
                    }
                }
                zf_sinr_slices_into(
                    rx_state.wanted[e].as_slice(),
                    rx_state.unwanted[e].basis(),
                    scratch.residual.as_slice(),
                    1.0,
                    &mut scratch.zf_ws,
                    &mut scratch.sinr_tmp,
                );
                for (si, &v) in scratch.sinr_tmp.iter().enumerate() {
                    scratch.sinr_acc[si].push(v);
                }
            }
            for (si, &stream_id) in scratch.my_streams.iter().enumerate() {
                let s = &streams[stream_id];
                let mcs = RATE_TABLE[s.rate];
                let track = self.rate_sinrs(&scratch.sinr_acc[si], &mut scratch.interp);
                let esnr = nplus_phy::esnr::effective_snr(mcs.modulation, track);
                let esnr_db = 10.0 * esnr.max(1e-300).log10();
                let p = success_prob(esnr_db, s.rate);
                bits[s.flow] += (s.active_symbols * mcs.data_bits_per_symbol()) as f64 * p;
            }
        }
    }

    /// Simulates `cfg.rounds` rounds of `policy` and returns the per-flow
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
    pub fn run(
        &self,
        policy: &dyn MacPolicy,
        rng: &mut StdRng,
        observer: &mut dyn RoundObserver,
        identity: Option<RunIdentity>,
    ) -> RunResult {
        let mut acc = GoodputAccumulator::new();
        let meta = RunMeta {
            policy: policy.name(),
            n_flows: self.scenario.flows.len(),
            rounds: self.cfg.rounds,
            bandwidth_hz: self.cfg.ofdm.bandwidth_hz,
            identity,
        };
        let mut tee = Tee {
            a: observer,
            b: &mut acc,
        };
        tee.on_run_start(&meta);
        let mut scratch = Scratch::default();
        let mut bufs = RoundBufs::default();
        let mut traffic = TrafficState::new(&self.cfg.traffic, self.scenario.flows.len());
        let mut mobility = MobilityState::new_for(self);
        let mut active: Vec<usize> = Vec::with_capacity(self.transmitters.len());
        for round in 0..self.cfg.rounds {
            if let Some(m) = mobility.as_mut() {
                if m.advance(&self.cache, round, rng) {
                    // Channels moved: memoized opening plans are stale.
                    scratch.first_plans.clear();
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
            traffic.arrive(&self.cfg.traffic, rng);
            active.clear();
            active.extend(
                self.transmitters
                    .iter()
                    .copied()
                    .filter(|&t| self.flows_of[t].iter().any(|&f| traffic.has_backlog(f))),
            );
            if active.is_empty() {
                // Nothing queued anywhere: the medium idles one DIFS.
                self.emit_idle_round(round, self.cfg.timing.difs, &mut bufs.round_bits, &mut tee);
                continue;
            }
            if policy.omniscient() {
                self.omniscient_round(
                    policy,
                    round,
                    cache,
                    &active,
                    &mut traffic,
                    &mut scratch,
                    &mut bufs,
                    rng,
                    &mut tee,
                );
            } else {
                self.contended_round(
                    policy,
                    round,
                    cache,
                    &active,
                    &mut traffic,
                    &mut scratch,
                    &mut bufs,
                    rng,
                    &mut tee,
                );
            }
        }
        acc.finish()
    }

    /// A round nobody managed to use: charge the airtime, settle nothing.
    /// `bits` is the caller's pooled per-flow buffer (zeroed here).
    fn emit_idle_round(
        &self,
        round: usize,
        duration_samples: u64,
        bits: &mut Vec<f64>,
        obs: &mut dyn RoundObserver,
    ) {
        bits.clear();
        bits.resize(self.scenario.flows.len(), 0.0);
        obs.on_round_end(&RoundRecord {
            round,
            body_symbols: 0,
            duration_samples,
            flow_bits: bits,
            streams: &[],
        });
    }

    /// Opens a round for the planned primary winner: handshake airtime
    /// from the real allocation, body length from the winner's aggregate
    /// rate (one packet per serviced flow), and the winner's streams
    /// patched to span the whole body. Shared by the contended and
    /// omniscient access paths so the accounting can never drift apart.
    fn open_body(
        &self,
        first_alloc: &[(usize, usize)],
        first_range: (usize, usize),
        streams: &mut VecPool<PlannedStream>,
        scratch: &mut Scratch,
    ) -> (u64, usize) {
        let cfg = self.cfg;
        scratch.streams_per_rx.clear();
        scratch
            .streams_per_rx
            .extend(first_alloc.iter().map(|&(_, n)| n));
        let handshake_samples = cfg.timing.symbol
            * handshake_symbols(cfg, &scratch.streams_per_rx, TYPICAL_BLOB_BYTES) as u64;
        let first_rate_sum: usize = (first_range.0..first_range.1)
            .map(|i| RATE_TABLE[streams[i].rate].data_bits_per_symbol())
            .sum();
        let packet_bits = cfg.packet_bytes * 8 * first_alloc.len();
        let body_symbols = packet_bits.div_ceil(first_rate_sum.max(1));
        for i in first_range.0..first_range.1 {
            streams[i].active_symbols = body_symbols;
        }
        (handshake_samples, body_symbols)
    }

    /// Total round airtime: everything in `overhead` (contention,
    /// handshakes) plus the data body, the ACK exchange and the closing
    /// DIFS.
    fn round_airtime(&self, overhead: u64, body_symbols: usize) -> u64 {
        let cfg = self.cfg;
        let ack_syms = 2 + (cfg.timing.sifs as usize).div_ceil(cfg.timing.symbol as usize);
        overhead + cfg.timing.symbol * (body_symbols + ack_syms) as u64 + cfg.timing.difs
    }

    /// The round's final per-stream ledger, in planning order, into the
    /// caller's pooled buffer.
    fn stream_records_into(streams: &[PlannedStream], out: &mut Vec<StreamRecord>) {
        out.clear();
        out.extend(streams.iter().map(|s| StreamRecord {
            flow: s.flow,
            tx: s.tx_node,
            rate: s.rate,
            active_symbols: s.active_symbols,
        }));
    }

    /// Owning form of [`stream_records_into`] for the omniscient path,
    /// whose candidate rounds outlive the pooled buffers.
    fn stream_records(streams: &[PlannedStream]) -> Vec<StreamRecord> {
        let mut out = Vec::new();
        Self::stream_records_into(streams, &mut out);
        out
    }

    /// One random-access round: primary CSMA contention, the winner's
    /// policy-chosen allocation, optional secondary-contention joins,
    /// settlement and airtime accounting, with the protocol decisions
    /// delegated to the policy. `active` is the round's
    /// backlogged-transmitter set (every transmitter under saturated
    /// traffic).
    #[allow(clippy::too_many_arguments)]
    fn contended_round(
        &self,
        policy: &dyn MacPolicy,
        round: usize,
        cache: &ChannelCache,
        active: &[usize],
        traffic: &mut TrafficState,
        scratch: &mut Scratch,
        bufs: &mut RoundBufs,
        rng: &mut StdRng,
        obs: &mut dyn RoundObserver,
    ) {
        let cfg = self.cfg;
        let view = self.policy_view();
        bufs.protected.clear();
        bufs.streams.clear();

        // Primary contention among the transmitters with traffic.
        let (first, slots) = contend(active, &cfg.timing, &mut bufs.cws, &mut bufs.draws, rng);
        obs.on_contention(&ContentionRecord {
            round,
            kind: ContentionKind::Primary,
            n_contenders: active.len(),
            winner: first,
            slots,
        });
        let mut overhead = cfg.timing.difs + slots * cfg.timing.slot;

        // First winner's allocation, pruned to flows with queued
        // packets (a no-op under saturated traffic).
        policy.primary_allocation_into(
            &view,
            first,
            round,
            &mut bufs.alloc_ws,
            &mut bufs.first_alloc,
        );
        traffic.retain_backlogged(&mut bufs.first_alloc);

        // Plan the first winner with a provisional body length;
        // patched below once its rates are known.
        let planned = self.plan_winner(
            policy,
            cache,
            first,
            &bufs.first_alloc,
            &mut bufs.protected,
            &mut bufs.streams,
            usize::MAX,
            scratch,
            rng,
        );
        let Some(first_range) = planned else {
            // Even the first winner could not transmit (degenerate
            // channels): charge the overhead and move on.
            self.emit_idle_round(round, overhead + cfg.timing.difs, &mut bufs.round_bits, obs);
            return;
        };
        let (handshake_samples, body_symbols) =
            self.open_body(&bufs.first_alloc, first_range, &mut bufs.streams, scratch);
        overhead += handshake_samples;

        // Secondary contention (joining policies only): remaining
        // transmitters join through the precoder.
        if policy.allows_join() {
            let mut k_used: usize = bufs.streams.len();
            let mut elapsed_body: usize = 0;
            loop {
                scratch.eligible.clear();
                scratch.eligible.extend(active.iter().copied().filter(|&t| {
                    t != first
                        && bufs.streams.iter().all(|s| s.tx_node != t)
                        && self.n_ant(t) > k_used
                }));
                if scratch.eligible.is_empty() {
                    break;
                }
                let n_contenders = scratch.eligible.len();
                let (joiner, join_slots) = contend(
                    &scratch.eligible,
                    &cfg.timing,
                    &mut bufs.cws,
                    &mut bufs.draws,
                    rng,
                );
                obs.on_contention(&ContentionRecord {
                    round,
                    kind: ContentionKind::Join,
                    n_contenders,
                    winner: joiner,
                    slots: join_slots,
                });
                policy.join_allocation_into(
                    &view,
                    joiner,
                    k_used,
                    round,
                    &mut bufs.alloc_ws,
                    &mut bufs.join_alloc,
                );
                traffic.retain_backlogged(&mut bufs.join_alloc);
                if bufs.join_alloc.is_empty() {
                    obs.on_join(&JoinRecord {
                        round,
                        tx: joiner,
                        n_streams: 0,
                        accepted: false,
                    });
                    break;
                }
                let requested: usize = bufs.join_alloc.iter().map(|&(_, n)| n).sum();
                // The join consumes body time: contention + its
                // handshake, sized by the actual allocation.
                scratch.streams_per_rx.clear();
                scratch
                    .streams_per_rx
                    .extend(bufs.join_alloc.iter().map(|&(_, n)| n));
                let hs = handshake_symbols(cfg, &scratch.streams_per_rx, TYPICAL_BLOB_BYTES);
                let join_delay = ((join_slots * cfg.timing.slot) as usize)
                    .div_ceil(cfg.timing.symbol as usize)
                    + hs;
                elapsed_body += join_delay;
                if elapsed_body >= body_symbols {
                    obs.on_join(&JoinRecord {
                        round,
                        tx: joiner,
                        n_streams: requested,
                        accepted: false,
                    });
                    break; // no air time left this round
                }
                let remaining = body_symbols - elapsed_body;
                let planned = self.plan_winner(
                    policy,
                    cache,
                    joiner,
                    &bufs.join_alloc,
                    &mut bufs.protected,
                    &mut bufs.streams,
                    remaining,
                    scratch,
                    rng,
                );
                match planned {
                    Some((j0, j1)) => {
                        obs.on_join(&JoinRecord {
                            round,
                            tx: joiner,
                            n_streams: j1 - j0,
                            accepted: true,
                        });
                        k_used += j1 - j0;
                    }
                    None => {
                        // Joiner declined (power control / degenerate):
                        // others may still try.
                        obs.on_join(&JoinRecord {
                            round,
                            tx: joiner,
                            n_streams: requested,
                            accepted: false,
                        });
                        continue;
                    }
                }
            }
        }

        // Settle: realized SINRs including residuals.
        self.settle_round_into(
            cache,
            bufs.protected.as_slice(),
            bufs.streams.as_slice(),
            scratch,
            &mut bufs.round_bits,
        );
        traffic.note_serviced(bufs.streams.iter().map(|s| s.flow));

        // Time accounting.
        let round_samples = self.round_airtime(overhead, body_symbols);
        Self::stream_records_into(bufs.streams.as_slice(), &mut bufs.records);
        obs.on_round_end(&RoundRecord {
            round,
            body_symbols,
            duration_samples: round_samples,
            flow_bits: &bufs.round_bits,
            streams: &bufs.records,
        });
    }

    /// One omniscient-scheduler round: evaluate every transmitter as the
    /// forced primary (no contention, perfect knowledge — no RNG is
    /// consumed) and keep the schedule delivering the most bits per unit
    /// airtime. Ties keep the earlier transmitter, so the search is
    /// fully deterministic.
    #[allow(clippy::too_many_arguments)]
    fn omniscient_round(
        &self,
        policy: &dyn MacPolicy,
        round: usize,
        cache: &ChannelCache,
        active: &[usize],
        traffic: &mut TrafficState,
        scratch: &mut Scratch,
        bufs: &mut RoundBufs,
        rng: &mut StdRng,
        obs: &mut dyn RoundObserver,
    ) {
        let cfg = self.cfg;
        let mut best: Option<CandidateRound> = None;
        for &t in active {
            if let Some(cand) =
                self.forced_round(policy, t, round, cache, active, traffic, scratch, bufs, rng)
            {
                // Compare bits-per-sample by cross-multiplication (both
                // sides non-negative, durations positive) — strictly
                // greater replaces, so ties keep the earlier primary.
                let replace = match &best {
                    None => true,
                    Some(b) => {
                        cand.bits_total * b.duration_samples as f64
                            > b.bits_total * cand.duration_samples as f64
                    }
                };
                if replace {
                    best = Some(cand);
                }
            }
        }
        match best {
            Some(c) => {
                traffic.note_serviced(c.streams.iter().map(|s| s.flow));
                obs.on_contention(&ContentionRecord {
                    round,
                    kind: ContentionKind::Scheduled,
                    n_contenders: active.len(),
                    winner: c.primary,
                    slots: 0,
                });
                for &(tx, n_streams) in &c.joins {
                    obs.on_join(&JoinRecord {
                        round,
                        tx,
                        n_streams,
                        accepted: true,
                    });
                }
                obs.on_round_end(&RoundRecord {
                    round,
                    body_symbols: c.body_symbols,
                    duration_samples: c.duration_samples,
                    flow_bits: &c.flow_bits,
                    streams: &c.streams,
                });
            }
            // No candidate could transmit at all: an idle DIFS-bounded
            // round, mirroring the contended path's failure charge.
            None => self.emit_idle_round(
                round,
                cfg.timing.difs + cfg.timing.difs,
                &mut bufs.round_bits,
                obs,
            ),
        }
    }

    /// Evaluates one omniscient-scheduler candidate: `primary` opens the
    /// round (zero contention slots), then the most capable remaining
    /// transmitters greedily join — largest antenna count first, ties to
    /// the lowest node index — paying handshake airtime but no backoff.
    /// Joiners whose plan fails are barred rather than retried (the
    /// scheduler knows they cannot fit).
    #[allow(clippy::too_many_arguments)]
    fn forced_round(
        &self,
        policy: &dyn MacPolicy,
        primary: usize,
        round: usize,
        cache: &ChannelCache,
        active: &[usize],
        traffic: &TrafficState,
        scratch: &mut Scratch,
        bufs: &mut RoundBufs,
        rng: &mut StdRng,
    ) -> Option<CandidateRound> {
        let cfg = self.cfg;
        let view = self.policy_view();
        bufs.protected.clear();
        bufs.streams.clear();
        let mut overhead = cfg.timing.difs; // scheduled: no backoff slots

        policy.primary_allocation_into(
            &view,
            primary,
            round,
            &mut bufs.alloc_ws,
            &mut bufs.first_alloc,
        );
        traffic.retain_backlogged(&mut bufs.first_alloc);
        let first_range = self.plan_winner(
            policy,
            cache,
            primary,
            &bufs.first_alloc,
            &mut bufs.protected,
            &mut bufs.streams,
            usize::MAX,
            scratch,
            rng,
        )?;
        let (handshake_samples, body_symbols) =
            self.open_body(&bufs.first_alloc, first_range, &mut bufs.streams, scratch);
        overhead += handshake_samples;

        let mut joins: Vec<(usize, usize)> = Vec::new();
        if policy.allows_join() {
            let mut k_used: usize = bufs.streams.len();
            let mut elapsed_body: usize = 0;
            let mut barred: Vec<usize> = Vec::new();
            loop {
                let joiner = active
                    .iter()
                    .copied()
                    .filter(|&t| {
                        t != primary
                            && !barred.contains(&t)
                            && bufs.streams.iter().all(|s| s.tx_node != t)
                            && self.n_ant(t) > k_used
                    })
                    .max_by_key(|&t| (self.n_ant(t), std::cmp::Reverse(t)));
                let Some(joiner) = joiner else {
                    break;
                };
                policy.join_allocation_into(
                    &view,
                    joiner,
                    k_used,
                    round,
                    &mut bufs.alloc_ws,
                    &mut bufs.join_alloc,
                );
                traffic.retain_backlogged(&mut bufs.join_alloc);
                if bufs.join_alloc.is_empty() {
                    barred.push(joiner);
                    continue;
                }
                scratch.streams_per_rx.clear();
                scratch
                    .streams_per_rx
                    .extend(bufs.join_alloc.iter().map(|&(_, n)| n));
                let join_delay =
                    handshake_symbols(cfg, &scratch.streams_per_rx, TYPICAL_BLOB_BYTES);
                if elapsed_body + join_delay >= body_symbols {
                    break; // no air time left this round
                }
                let remaining = body_symbols - (elapsed_body + join_delay);
                match self.plan_winner(
                    policy,
                    cache,
                    joiner,
                    &bufs.join_alloc,
                    &mut bufs.protected,
                    &mut bufs.streams,
                    remaining,
                    scratch,
                    rng,
                ) {
                    Some((j0, j1)) => {
                        elapsed_body += join_delay;
                        joins.push((joiner, j1 - j0));
                        k_used += j1 - j0;
                    }
                    // The scheduler is omniscient: a join that cannot be
                    // planned is never attempted, so it costs no airtime.
                    None => barred.push(joiner),
                }
            }
        }

        // Candidate rounds outlive the pooled buffers (the best one is
        // kept across the whole primary sweep), so they own their bits.
        let mut flow_bits = Vec::new();
        self.settle_round_into(
            cache,
            bufs.protected.as_slice(),
            bufs.streams.as_slice(),
            scratch,
            &mut flow_bits,
        );
        let bits_total: f64 = flow_bits.iter().sum();
        Some(CandidateRound {
            primary,
            joins,
            bits_total,
            flow_bits,
            body_symbols,
            duration_samples: self.round_airtime(overhead, body_symbols),
            streams: Self::stream_records(bufs.streams.as_slice()),
        })
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
    /// [`SimEngine::open_body`] sizes the body that way).
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
/// simulation state), keeping the arrival stream reproducible.
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
        } = engine.cfg.mobility
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
        for (f, t) in as_built.links().filter(|&(f, t)| f == mover || t == mover) {
            let d0 = self.origin[f]
                .distance(&self.origin[t])
                .max(Self::MIN_DISTANCE_M);
            let d = self.positions[f]
                .distance(&self.positions[t])
                .max(Self::MIN_DISTANCE_M);
            // Pure per-link arithmetic (no RNG), so the HashMap's
            // iteration order cannot affect results.
            let factor = (d0 / d).powf(0.5 * Self::PATH_LOSS_EXP);
            let table = as_built
                .table(f, t)
                .expect("key came from as-built iteration")
                .scaled(factor);
            self.cache.set_table(f, t, table);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NullObserver;
    use crate::policy::{Beamforming, Dot11n, GreedyJoin, NPlus, Oracle};
    use nplus_channel::placement::Testbed;
    use nplus_medium::topology::{build_topology, TopologyConfig};
    use rand::SeedableRng;

    /// One unobserved run of `policy` with a fresh RNG seeded by `seed`.
    fn run_seeded(engine: &SimEngine<'_>, policy: &dyn MacPolicy, seed: u64) -> RunResult {
        engine.run(
            policy,
            &mut StdRng::seed_from_u64(seed),
            &mut NullObserver,
            None,
        )
    }

    fn run(policy: &dyn MacPolicy, seed: u64) -> RunResult {
        let scenario = Scenario::three_pairs();
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = build_topology(
            &tb,
            &TopologyConfig::new(scenario.antennas.clone()),
            10e6,
            seed,
            &mut rng,
        );
        let cfg = SimConfig {
            rounds: 12,
            ..SimConfig::default()
        };
        SimEngine::new(&topo, &scenario, &cfg).run(policy, &mut rng, &mut NullObserver, None)
    }

    #[test]
    fn nplus_beats_dot11n_on_average() {
        let mut n_total = 0.0;
        let mut d_total = 0.0;
        for seed in 0..6 {
            n_total += run(&NPlus, seed).total_mbps;
            d_total += run(&Dot11n, seed).total_mbps;
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
            n_dof += run(&NPlus, seed).mean_dof;
            d_dof += run(&Dot11n, seed).mean_dof;
        }
        assert!(
            n_dof > d_dof + 0.3 * 4.0,
            "n+ mean DoF {n_dof} vs 802.11n {d_dof}"
        );
    }

    #[test]
    fn throughput_is_positive_and_finite() {
        for policy in [&NPlus as &dyn MacPolicy, &Dot11n] {
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
        let scenario = Scenario::ap_downlink();
        let tb = Testbed::sigcomm11();
        for policy in [&NPlus as &dyn MacPolicy, &Dot11n, &Beamforming] {
            let mut rng = StdRng::seed_from_u64(9);
            let topo = build_topology(
                &tb,
                &TopologyConfig::new(scenario.antennas.clone()),
                10e6,
                9,
                &mut rng,
            );
            let cfg = SimConfig {
                rounds: 8,
                ..SimConfig::default()
            };
            let r = SimEngine::new(&topo, &scenario, &cfg).run(
                policy,
                &mut rng,
                &mut NullObserver,
                None,
            );
            assert!(r.total_mbps > 0.0, "{} zero throughput", policy.name());
        }
    }

    #[test]
    fn beamforming_beats_dot11n_on_downlink() {
        // MU beamforming serves both clients at once when AP2 wins, so it
        // must outperform single-user 802.11n in this scenario.
        let scenario = Scenario::ap_downlink();
        let tb = Testbed::sigcomm11();
        let (mut bf, mut dn) = (0.0, 0.0);
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = build_topology(
                &tb,
                &TopologyConfig::new(scenario.antennas.clone()),
                10e6,
                seed,
                &mut rng,
            );
            let cfg = SimConfig {
                rounds: 10,
                ..SimConfig::default()
            };
            bf += SimEngine::new(&topo, &scenario, &cfg)
                .run(&Beamforming, &mut rng, &mut NullObserver, None)
                .total_mbps;
            dn += SimEngine::new(&topo, &scenario, &cfg)
                .run(&Dot11n, &mut rng, &mut NullObserver, None)
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
        let cfg = SimConfig::default();
        let base = BASE_RATE.data_bits_per_symbol();
        let sifs_syms = (cfg.timing.sifs as usize).div_ceil(cfg.timing.symbol as usize);
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
            handshake_symbols(&cfg, &[1, 1], blob),
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
            handshake_symbols(&cfg, &[2], blob2) > handshake_symbols(&cfg, &[1], blob2),
            "extra streams must be accounted in the ACK"
        );

        // Empty allocation falls back to the single-receiver baseline.
        assert_eq!(
            handshake_symbols(&cfg, &[], blob),
            handshake_symbols(&cfg, &[1], blob)
        );
    }

    /// The engine is reusable: running twice with identically seeded RNGs
    /// must reproduce the result, and a fresh engine must match a reused
    /// one; an observer and an identity only listen.
    #[test]
    fn engine_reuse_is_deterministic() {
        let scenario = Scenario::three_pairs();
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(21);
        let topo = build_topology(
            &tb,
            &TopologyConfig::new(scenario.antennas.clone()),
            10e6,
            21,
            &mut rng,
        );
        let cfg = SimConfig {
            rounds: 6,
            ..SimConfig::default()
        };
        let engine = SimEngine::new(&topo, &scenario, &cfg);
        let a = run_seeded(&engine, &NPlus, 5);
        let b = run_seeded(&engine, &NPlus, 5);
        let c = run_seeded(&SimEngine::new(&topo, &scenario, &cfg), &NPlus, 5);
        let identity = RunIdentity {
            seed: 21,
            environment: "sigcomm11".to_string(),
            canonical_key: None,
        };
        let d = engine.run(
            &NPlus,
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
        let scenario = Scenario::three_pairs();
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(3);
        let topo = build_topology(
            &tb,
            &TopologyConfig::new(scenario.antennas.clone()),
            10e6,
            3,
            &mut rng,
        );
        let cfg = SimConfig {
            rounds: 6,
            ..SimConfig::default()
        };
        let engine = SimEngine::new(&topo, &scenario, &cfg);
        let a = run_seeded(&engine, &Oracle, 1);
        let b = run_seeded(&engine, &Oracle, 999);
        // Different RNG seeds, identical results: no RNG consumed.
        assert_eq!(a.per_flow_mbps, b.per_flow_mbps);
        assert_eq!(a.mean_dof, b.mean_dof);
        let np = run_seeded(&engine, &NPlus, 1);
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
        let scenario = Scenario::three_pairs();
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(0);
        let topo = build_topology(
            &tb,
            &TopologyConfig::new(scenario.antennas.clone()),
            10e6,
            0,
            &mut rng,
        );
        let cfg = SimConfig {
            rounds: 10,
            ..SimConfig::default()
        };
        let engine = SimEngine::new(&topo, &scenario, &cfg);
        let g = run_seeded(&engine, &GreedyJoin, 4);
        let d = run_seeded(&engine, &Dot11n, 4);
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
        let scenario = Scenario::three_pairs();
        let tb = Testbed::sigcomm11();
        let mut rng = StdRng::seed_from_u64(seed);
        build_topology(
            &tb,
            &TopologyConfig::new(scenario.antennas.clone()),
            10e6,
            seed,
            &mut rng,
        )
    }

    /// Low-load Poisson arrivals idle most rounds and deliver strictly
    /// fewer bits than saturated traffic — deterministically in the run
    /// seed (arrivals come from the same RNG stream as the run).
    #[test]
    fn poisson_low_load_delivers_fewer_bits_deterministically() {
        let scenario = Scenario::three_pairs();
        let topo = three_pairs_topo(7);
        let rounds = 16;
        let sat_cfg = SimConfig {
            rounds,
            ..SimConfig::default()
        };
        let poi_cfg = SimConfig {
            rounds,
            traffic: TrafficModel::Poisson {
                mean_per_round: 0.2,
            },
            ..SimConfig::default()
        };
        let mut sat = BitsTally::default();
        SimEngine::new(&topo, &scenario, &sat_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(2),
            &mut sat,
            None,
        );
        let mut poi = BitsTally::default();
        let a = SimEngine::new(&topo, &scenario, &poi_cfg).run(
            &NPlus,
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
        let b = SimEngine::new(&topo, &scenario, &poi_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(2),
            &mut NullObserver,
            None,
        );
        assert_eq!(a.per_flow_mbps, b.per_flow_mbps);
        assert_eq!(a.total_mbps.to_bits(), b.total_mbps.to_bits());
    }

    /// Bursty flows with short ON and long OFF dwells starve the queue
    /// and deliver fewer bits than saturated traffic.
    #[test]
    fn bursty_traffic_starves_between_bursts() {
        let scenario = Scenario::three_pairs();
        let topo = three_pairs_topo(4);
        let rounds = 16;
        let sat_cfg = SimConfig {
            rounds,
            ..SimConfig::default()
        };
        let bur_cfg = SimConfig {
            rounds,
            traffic: TrafficModel::Bursty {
                mean_on_rounds: 1.0,
                mean_off_rounds: 1e6,
            },
            ..SimConfig::default()
        };
        let mut sat = BitsTally::default();
        SimEngine::new(&topo, &scenario, &sat_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(9),
            &mut sat,
            None,
        );
        let mut bur = BitsTally::default();
        let r = SimEngine::new(&topo, &scenario, &bur_cfg).run(
            &NPlus,
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
        let scenario = Scenario::three_pairs();
        let topo = three_pairs_topo(13);
        let rounds = 10;
        let still_cfg = SimConfig {
            rounds,
            ..SimConfig::default()
        };
        let move_cfg = SimConfig {
            rounds,
            mobility: MobilityModel::Waypoint {
                step_m: 8.0,
                epoch_rounds: 2,
            },
            ..SimConfig::default()
        };
        let still = SimEngine::new(&topo, &scenario, &still_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(6),
            &mut NullObserver,
            None,
        );
        let moved = SimEngine::new(&topo, &scenario, &move_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(6),
            &mut NullObserver,
            None,
        );
        assert_ne!(
            still.per_flow_mbps, moved.per_flow_mbps,
            "8 m steps every 2 rounds left every flow untouched"
        );
        let moved_again = SimEngine::new(&topo, &scenario, &move_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(6),
            &mut NullObserver,
            None,
        );
        assert_eq!(moved.per_flow_mbps, moved_again.per_flow_mbps);
        assert_eq!(moved.total_mbps.to_bits(), moved_again.total_mbps.to_bits());
    }

    /// A mobility run rescales a copy-on-write clone of the engine's
    /// cache: afterwards the engine's own tables still equal a fresh
    /// build bit for bit, and a second run on the same engine
    /// reproduces the first.
    #[test]
    fn mobility_runs_leave_the_engine_cache_untouched() {
        let scenario = Scenario::three_pairs();
        let topo = three_pairs_topo(13);
        let cfg = SimConfig {
            rounds: 10,
            mobility: MobilityModel::Waypoint {
                step_m: 8.0,
                epoch_rounds: 2,
            },
            ..SimConfig::default()
        };
        let engine = SimEngine::new(&topo, &scenario, &cfg);
        let first = run_seeded(&engine, &NPlus, 6);
        let fresh = ChannelCache::build(&topo, &engine.occ, cfg.ofdm.fft_len);
        let keys: Vec<_> = fresh.links().collect();
        assert_eq!(engine.cache.links().collect::<Vec<_>>(), keys);
        for (f, t) in keys {
            let (a, b) = (
                engine.cache.table(f, t).unwrap(),
                fresh.table(f, t).unwrap(),
            );
            for (ma, mb) in a.matrices().iter().zip(b.matrices()) {
                assert_eq!(ma.shape(), mb.shape());
                for i in 0..ma.rows() {
                    let bits = |m: &CMatrixSoA| {
                        m.row_re(i)
                            .iter()
                            .chain(m.row_im(i))
                            .map(|x| x.to_bits())
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(ma), bits(mb), "link {f}->{t} row {i}");
                }
            }
        }
        let second = run_seeded(&engine, &NPlus, 6);
        assert_eq!(first.per_flow_mbps, second.per_flow_mbps);
        assert_eq!(first.total_mbps.to_bits(), second.total_mbps.to_bits());
    }

    /// In a sparse city world an absent link is a typed miss, not a
    /// panic: a flow whose endpoints sit in cells beyond the link range
    /// settles to zero goodput while in-cell flows keep delivering.
    #[test]
    fn sparse_world_absent_link_flows_idle_instead_of_panicking() {
        use crate::sim::Flow;
        use nplus_channel::environment::{ChannelEnvironment, MULTI_CELL};
        use nplus_medium::topology::build_environment_topology;

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
        let tb = MULTI_CELL.testbed(n).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let topo =
            build_environment_topology(&MULTI_CELL, &tb, &scenario.antennas, 10e6, 17, &mut rng)
                .unwrap();
        assert!(
            topo.medium.link(topo.nodes[2], topo.nodes[25]).is_none(),
            "cross-map link unexpectedly installed"
        );
        let cfg = SimConfig {
            rounds: 8,
            ..SimConfig::default()
        };
        let engine = SimEngine::new(&topo, &scenario, &cfg);
        for policy in [&NPlus as &dyn MacPolicy, &Dot11n, &Oracle] {
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
        let scenario = Scenario::three_pairs();
        let topo = three_pairs_topo(11);
        let full_cfg = SimConfig {
            rounds: 10,
            ..SimConfig::default()
        };
        let dec_cfg = SimConfig {
            sinr_grid: SinrGrid::Decimated(4),
            ..full_cfg.clone()
        };
        let full = SimEngine::new(&topo, &scenario, &full_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(8),
            &mut NullObserver,
            None,
        );
        let dec = SimEngine::new(&topo, &scenario, &dec_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(8),
            &mut NullObserver,
            None,
        );
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
        let again = SimEngine::new(&topo, &scenario, &dec_cfg).run(
            &NPlus,
            &mut StdRng::seed_from_u64(8),
            &mut NullObserver,
            None,
        );
        assert_eq!(dec.total_mbps.to_bits(), again.total_mbps.to_bits());
    }
}
