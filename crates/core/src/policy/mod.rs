//! Pluggable MAC policies: the rules a protocol brings to the shared
//! round engine.
//!
//! [`SimEngine`](crate::sim::SimEngine) owns everything physical — true
//! and believed channels, precoding, SINR evaluation, handshake and time
//! accounting — and delegates every *protocol decision* to a
//! [`MacPolicy`]: what the primary winner transmits, whether later
//! winners may join mid-round, whether joiners run §4 power control, how
//! per-stream rates are picked, and whether the medium is accessed by
//! random contention at all (the omniscient scheduler flips that last
//! switch). The paper's three protocols are the [`NPlus`], [`Dot11n`]
//! and [`Beamforming`] implementations, bit-for-bit identical to the
//! engine's original hard-coded behaviour at every seed. A policy is
//! named either as a `&dyn MacPolicy` or by its registry name
//! ([`policy_from_name`]).
//!
//! Two more policies ship alongside the baselines:
//!
//! * [`Oracle`] — the paper's §6.3 upper bound: a central scheduler with
//!   perfect channel knowledge that exhaustively tries every primary
//!   transmitter per round, joins the most capable nodes with no
//!   contention overhead, and keeps the best schedule.
//! * [`GreedyJoin`] — the n+ ablation that joins at full power (§4
//!   power control bypassed at the policy layer; this replaces the
//!   former `SimConfig::power_control` flag).

mod baselines;
mod oracle;

pub use baselines::{Beamforming, Dot11n, GreedyJoin, NPlus};
pub use oracle::Oracle;

use crate::link::select_stream_rate;
use crate::sim::Scenario;
use nplus_phy::rates::RateIndex;

/// Reusable buffers for the pooled allocation hooks
/// ([`MacPolicy::primary_allocation_into`] and friends). The engine
/// keeps one per run so steady-state rounds allocate nothing; the
/// allocating convenience methods build a throwaway one internally.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    caps: Vec<usize>,
    alloc: Vec<usize>,
}

/// The read-only slice of engine state a policy decides from: the
/// scenario's antenna counts and flows, plus the shared fair-allocation
/// helper the built-in policies are defined in terms of.
pub struct PolicyView<'a> {
    scenario: &'a Scenario,
    flows_of: &'a [Vec<usize>],
}

impl<'a> PolicyView<'a> {
    /// Builds a view over a scenario and its precomputed per-node flow
    /// lists (`flows_of[node]` = flow indices transmitted by `node`).
    pub(crate) fn new(scenario: &'a Scenario, flows_of: &'a [Vec<usize>]) -> Self {
        PolicyView { scenario, flows_of }
    }

    /// The scenario being simulated.
    pub fn scenario(&self) -> &Scenario {
        self.scenario
    }

    /// Antenna count of a scenario node.
    pub fn n_ant(&self, node: usize) -> usize {
        self.scenario.antennas[node]
    }

    /// Flow indices transmitted by `tx` (empty for non-transmitters).
    pub fn flows_of(&self, tx: usize) -> &[usize] {
        &self.flows_of[tx]
    }

    /// The shared fair allocator: splits the winner's spare antennas
    /// (`M − k_ongoing`) across its flows, respecting each receiver's
    /// spare dimensions (`N_rx − k_ongoing`) and rotating the split
    /// start across rounds so multi-flow transmitters serve their flows
    /// evenly. Returns `(flow, n_streams)` pairs with `n_streams > 0`.
    pub fn fair_allocation(
        &self,
        tx: usize,
        k_ongoing: usize,
        round: usize,
    ) -> Vec<(usize, usize)> {
        let mut ws = AllocScratch::default();
        let mut out = Vec::new();
        self.fair_allocation_into(tx, k_ongoing, round, &mut ws, &mut out);
        out
    }

    /// Pooled form of [`fair_allocation`](PolicyView::fair_allocation):
    /// identical greedy rotation, writing into caller-owned buffers so
    /// steady-state rounds allocate nothing.
    pub fn fair_allocation_into(
        &self,
        tx: usize,
        k_ongoing: usize,
        round: usize,
        ws: &mut AllocScratch,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        let flows = &self.flows_of[tx];
        let m = self.n_ant(tx).saturating_sub(k_ongoing);
        if m == 0 || flows.is_empty() {
            return;
        }
        ws.caps.clear();
        ws.caps.extend(flows.iter().map(|&f| {
            let rx = self.scenario.flows[f].rx;
            self.n_ant(rx).saturating_sub(k_ongoing.min(self.n_ant(rx)))
        }));
        ws.alloc.clear();
        ws.alloc.resize(flows.len(), 0);
        let mut remaining = m;
        let mut i = round % flows.len();
        let mut stalled = 0;
        while remaining > 0 && stalled < flows.len() {
            if ws.alloc[i] < ws.caps[i] {
                ws.alloc[i] += 1;
                remaining -= 1;
                stalled = 0;
            } else {
                stalled += 1;
            }
            i = (i + 1) % flows.len();
        }
        out.extend(
            flows
                .iter()
                .zip(&ws.alloc)
                .filter(|(_, &a)| a > 0)
                .map(|(&f, &a)| (f, a)),
        );
    }

    /// Stock 802.11n's allocation: one receiver per transmission
    /// opportunity, rotated across the transmitter's flows, with
    /// `min(M_tx, N_rx)` streams to it.
    pub fn single_flow_allocation(&self, tx: usize, round: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        self.single_flow_allocation_into(tx, round, &mut out);
        out
    }

    /// Pooled form of
    /// [`single_flow_allocation`](PolicyView::single_flow_allocation).
    pub fn single_flow_allocation_into(
        &self,
        tx: usize,
        round: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        let flows = &self.flows_of[tx];
        if flows.is_empty() {
            return;
        }
        let f = flows[round % flows.len()];
        let rx = self.scenario.flows[f].rx;
        let n = self.n_ant(tx).min(self.n_ant(rx));
        out.push((f, n));
    }
}

/// A medium-access policy: the protocol-specific rules the round engine
/// consults. Implementations must be stateless across rounds (the
/// engine may re-plan a round while searching, and sweeps share one
/// policy value across worker threads — hence `Send + Sync`).
///
/// The allocation hooks must be pure functions of their arguments: the
/// same view, transmitter, `k_used` and round always give the same
/// pairs. The engine relies on it for a
/// [`perfect_knowledge`](MacPolicy::perfect_knowledge) omniscient
/// policy, whose schedule it plans once per distinct set of allocations
/// and then replays.
///
/// Every hook has a default that matches n+ behaviour except
/// [`primary_allocation`](MacPolicy::primary_allocation), which each
/// policy must define.
pub trait MacPolicy: Send + Sync {
    /// Stable lower-case name (`"nplus"`, `"dot11n"`, …) — used by
    /// [`SweepStats::policy`](crate::sim::SweepStats::policy), the CLI
    /// front-ends and [`policy_from_name`].
    fn name(&self) -> &str;

    /// Streams the round's primary winner transmits, as
    /// `(flow, n_streams)` pairs. Empty means the winner declines. Must
    /// be a pure function of its arguments (see the trait docs).
    fn primary_allocation(&self, view: &PolicyView, tx: usize, round: usize)
        -> Vec<(usize, usize)>;

    /// Pooled form of [`primary_allocation`](MacPolicy::primary_allocation):
    /// the engine's hot path calls this with reusable buffers so
    /// steady-state rounds allocate nothing. The default delegates to
    /// the allocating method (correct for any policy, but allocates);
    /// every built-in overrides it with the pooled view helpers.
    /// Overrides must produce the exact pairs `primary_allocation`
    /// returns.
    fn primary_allocation_into(
        &self,
        view: &PolicyView,
        tx: usize,
        round: usize,
        _ws: &mut AllocScratch,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        out.extend(self.primary_allocation(view, tx, round));
    }

    /// Whether later winners may join mid-round through secondary
    /// contention (n+'s defining feature). Defaults to `false`.
    fn allows_join(&self) -> bool {
        false
    }

    /// Streams a secondary winner adds with `k_used` degrees of freedom
    /// already occupied. Defaults to the fair allocator. Must be a pure
    /// function of its arguments (see the trait docs).
    fn join_allocation(
        &self,
        view: &PolicyView,
        tx: usize,
        k_used: usize,
        round: usize,
    ) -> Vec<(usize, usize)> {
        view.fair_allocation(tx, k_used, round)
    }

    /// Pooled form of [`join_allocation`](MacPolicy::join_allocation),
    /// with the same override contract as
    /// [`primary_allocation_into`](MacPolicy::primary_allocation_into):
    /// the default delegates to the allocating method (correct for any
    /// override of `join_allocation`, but allocates), and the built-in
    /// joiners override it with the pooled fair allocator.
    fn join_allocation_into(
        &self,
        view: &PolicyView,
        tx: usize,
        k_used: usize,
        round: usize,
        _ws: &mut AllocScratch,
        out: &mut Vec<(usize, usize)>,
    ) {
        out.clear();
        out.extend(self.join_allocation(view, tx, k_used, round));
    }

    /// Whether joiners run §4 join power control against protected
    /// receivers. Defaults to `true`; [`GreedyJoin`] turns it off.
    fn join_power_control(&self) -> bool {
        true
    }

    /// Perfect channel knowledge: transmitters plan with the *true*
    /// channels instead of reciprocity-plus-hardware-error estimates
    /// (and consume no RNG doing so). Defaults to `false`.
    fn perfect_knowledge(&self) -> bool {
        false
    }

    /// Omniscient scheduling: instead of random contention, the engine
    /// exhaustively evaluates every transmitter as the round's primary
    /// (with zero contention airtime) and keeps the schedule with the
    /// best goodput per unit airtime. Defaults to `false`; [`Oracle`]
    /// turns it on.
    fn omniscient(&self) -> bool {
        false
    }

    /// Per-stream rate selection from planned per-subcarrier SINRs.
    /// Defaults to the §3.4 ESNR-threshold rule; `None` means no rate
    /// is sustainable and the stream (hence the plan) is abandoned.
    fn select_rate(&self, per_subcarrier_sinr: &[f64]) -> Option<RateIndex> {
        select_stream_rate(per_subcarrier_sinr)
    }
}

/// The built-in policies by name, for CLI front-ends: `"nplus"`,
/// `"dot11n"`, `"beamforming"`, `"oracle"`, `"greedy_join"`.
pub fn policy_from_name(name: &str) -> Option<&'static dyn MacPolicy> {
    Some(match name {
        "nplus" => &NPlus,
        "dot11n" => &Dot11n,
        "beamforming" => &Beamforming,
        "oracle" => &Oracle,
        "greedy_join" => &GreedyJoin,
        _ => return None,
    })
}

/// Names of every built-in policy, in presentation order.
pub const BUILTIN_POLICY_NAMES: [&str; 5] =
    ["dot11n", "beamforming", "nplus", "greedy_join", "oracle"];

// Policies cross sweep worker threads by shared reference.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NPlus>();
    assert_send_sync::<Dot11n>();
    assert_send_sync::<Beamforming>();
    assert_send_sync::<GreedyJoin>();
    assert_send_sync::<Oracle>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Scenario;

    fn view_fixture(scenario: &Scenario) -> Vec<Vec<usize>> {
        (0..scenario.antennas.len())
            .map(|n| scenario.flows_of(n))
            .collect()
    }

    #[test]
    fn builtin_names_round_trip_through_the_registry() {
        for name in BUILTIN_POLICY_NAMES {
            let p = policy_from_name(name).expect("builtin must resolve");
            assert_eq!(p.name(), name);
        }
        assert!(policy_from_name("csma_ca_2003").is_none());
    }

    #[test]
    fn fair_allocation_matches_enum_era_allocator() {
        let scenario = Scenario::ap_downlink();
        let flows_of = view_fixture(&scenario);
        let view = PolicyView::new(&scenario, &flows_of);
        // AP2 (3 antennas, flows 1 and 2 to 2-antenna clients): all three
        // spare antennas split 2/1 with the rotation deciding who gets 2.
        assert_eq!(view.fair_allocation(2, 0, 0), vec![(1, 2), (2, 1)]);
        assert_eq!(view.fair_allocation(2, 0, 1), vec![(1, 1), (2, 2)]);
        // One DoF already used: 2 spare antennas, each client has 1 spare dim.
        assert_eq!(view.fair_allocation(2, 1, 0), vec![(1, 1), (2, 1)]);
        // No antennas left.
        assert!(view.fair_allocation(2, 3, 0).is_empty());
    }

    #[test]
    fn single_flow_allocation_rotates_and_caps_streams() {
        let scenario = Scenario::ap_downlink();
        let flows_of = view_fixture(&scenario);
        let view = PolicyView::new(&scenario, &flows_of);
        // c1 (1 ant) -> AP1 (2 ant): min(1, 2) = 1 stream.
        assert_eq!(view.single_flow_allocation(0, 0), vec![(0, 1)]);
        // AP2 (3 ant) -> client (2 ant): min(3, 2) = 2 streams, rotating.
        assert_eq!(view.single_flow_allocation(2, 0), vec![(1, 2)]);
        assert_eq!(view.single_flow_allocation(2, 1), vec![(2, 2)]);
    }

    #[test]
    fn pooled_allocators_match_allocating_forms() {
        let scenario = Scenario::ap_downlink();
        let flows_of = view_fixture(&scenario);
        let view = PolicyView::new(&scenario, &flows_of);
        let mut ws = AllocScratch::default();
        let mut out = Vec::new();
        for tx in 0..scenario.antennas.len() {
            for k in 0..4 {
                for round in 0..5 {
                    view.fair_allocation_into(tx, k, round, &mut ws, &mut out);
                    assert_eq!(out, view.fair_allocation(tx, k, round));
                }
            }
            for round in 0..5 {
                view.single_flow_allocation_into(tx, round, &mut out);
                assert_eq!(out, view.single_flow_allocation(tx, round));
                for name in BUILTIN_POLICY_NAMES {
                    let p = policy_from_name(name).unwrap();
                    p.primary_allocation_into(&view, tx, round, &mut ws, &mut out);
                    assert_eq!(out, p.primary_allocation(&view, tx, round));
                    for k in 0..4 {
                        p.join_allocation_into(&view, tx, k, round, &mut ws, &mut out);
                        assert_eq!(out, p.join_allocation(&view, tx, k, round));
                    }
                }
            }
        }
    }

    #[test]
    fn policy_flag_matrix() {
        assert!(NPlus.allows_join() && NPlus.join_power_control());
        assert!(!NPlus.perfect_knowledge() && !NPlus.omniscient());
        assert!(!Dot11n.allows_join() && !Beamforming.allows_join());
        assert!(GreedyJoin.allows_join() && !GreedyJoin.join_power_control());
        assert!(Oracle.omniscient() && Oracle.perfect_knowledge() && Oracle.allows_join());
    }
}
