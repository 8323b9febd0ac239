//! The MAC policies: the rules a protocol brings to the shared round
//! engine.
//!
//! The round engine behind [`SweepSpec`](crate::sim::SweepSpec) owns
//! everything physical — true and believed channels, precoding, SINR
//! evaluation, rate selection, handshake and time accounting — and
//! asks the run's [`Policy`] every
//! *protocol decision*: what the primary winner transmits, whether later
//! winners may join mid-round, whether joiners run §4 power control, and
//! whether the medium is accessed by random contention at all (the
//! omniscient scheduler flips that last switch). The set is closed: the
//! paper's three protocols ([`NPlus`], [`Dot11n`], [`Beamforming`]) —
//! bit-for-bit identical to the engine's original hard-coded behaviour
//! at every seed — plus two more, each named by value or by its registry
//! name ([`BUILTIN_POLICY_NAMES`], resolved by
//! [`SweepSpec::policy_named`](crate::sim::SweepSpec::policy_named)):
//!
//! * [`Oracle`] — the paper's §6.3 upper bound: a central scheduler with
//!   perfect channel knowledge that exhaustively tries every primary
//!   transmitter per round, joins the most capable nodes with no
//!   contention overhead, and keeps the best schedule.
//! * [`GreedyJoin`] — the n+ ablation that joins at full power (§4
//!   power control bypassed at the policy layer; this replaces the
//!   former `SimConfig::power_control` flag).
//!
//! Every rule is a pure function of the variant and its arguments, which
//! is what lets the engine plan an omniscient round once per distinct
//! schedule state and replay it (`DESIGN.md` §4).

use crate::sim::Scenario;

/// A medium-access policy. The variants are re-exported at module level
/// (`policy::NPlus`, …), so a policy value reads like a unit struct.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Policy {
    /// Baseline: stock 802.11n. One winner per round sends `min(M, N)`
    /// streams to a single receiver; no concurrency of any kind.
    Dot11n,
    /// Baseline: multi-user beamforming (the paper's \[7\], Aryafar et
    /// al.). A multi-client winner may serve several of its own clients
    /// concurrently, but there is still no concurrency across
    /// transmitters.
    Beamforming,
    /// The paper's contribution (§3): the first winner behaves like
    /// 802.11n, later winners join through the precoder after §4 join
    /// power control, and everyone ends with the first winner.
    NPlus,
    /// Ablation: n+ with §4 join power control bypassed — joiners
    /// transmit at full power however much residual interference they
    /// leave at protected receivers. Reproduces the former
    /// `SimConfig::power_control = false` knob bit-for-bit (the power
    /// decision was the only branch the flag guarded, and it never
    /// consumed RNG).
    GreedyJoin,
    /// The paper's upper bound (§6.3–§6.4): a central scheduler with
    /// perfect channel knowledge and zero contention overhead.
    ///
    /// Where the random-access policies draw a primary winner from CSMA
    /// backoff, `Oracle` makes the engine evaluate **every** transmitter
    /// as the round's primary — planning the full round (fair
    /// allocation, greedy joins by the most capable remaining nodes,
    /// §3.4 rate selection, settlement) for each candidate — and keep
    /// the schedule with the highest delivered bits per unit airtime.
    /// Perfect channel knowledge makes each evaluation deterministic and
    /// its nulls exact: no contention slots, no collisions, no
    /// hardware-error residuals, and every stream's realized ESNR equals
    /// its planned ESNR, so selected rates always deliver (the
    /// `protocol_invariants` suite checks it on every round). The search
    /// is a pure function of the round's schedule state and the
    /// channels, so the engine evaluates each distinct schedule state
    /// once per run and replays it when the state recurs.
    ///
    /// Join power control is off: §4 exists to bound the damage of
    /// *imperfect* cancellation, and the oracle's cancellation is exact.
    Oracle,
}

pub use Policy::{Beamforming, Dot11n, GreedyJoin, NPlus, Oracle};

impl Policy {
    /// Every policy, in presentation order: the one registry table.
    const ALL: [Policy; 5] = [Dot11n, Beamforming, NPlus, GreedyJoin, Oracle];

    /// Stable lower-case registry name (`"nplus"`, `"dot11n"`, …) — used
    /// by [`SweepStats::policy`](crate::sim::SweepStats::policy), the
    /// canonical sweep encoding and the CLI front-ends.
    pub const fn name(self) -> &'static str {
        match self {
            Dot11n => "dot11n",
            Beamforming => "beamforming",
            NPlus => "nplus",
            GreedyJoin => "greedy_join",
            Oracle => "oracle",
        }
    }

    /// Streams the round's primary winner `tx` transmits, written into
    /// `out` as `(flow, n_streams)` pairs: the fair split, except that
    /// 802.11n serves a single flow. Empty means the winner declines.
    pub(crate) fn primary_allocation_into(
        self,
        scenario: &Scenario,
        flows_of: &[Vec<usize>],
        tx: usize,
        round: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        match self {
            Dot11n => single_flow_allocation_into(scenario, flows_of, tx, round, out),
            Beamforming | NPlus | GreedyJoin | Oracle => {
                fair_allocation_into(scenario, flows_of, tx, 0, round, out)
            }
        }
    }

    /// Streams a secondary winner adds with `k_used` degrees of freedom
    /// already occupied: the fair split for every joining policy.
    pub(crate) fn join_allocation_into(
        self,
        scenario: &Scenario,
        flows_of: &[Vec<usize>],
        tx: usize,
        k_used: usize,
        round: usize,
        out: &mut Vec<(usize, usize)>,
    ) {
        fair_allocation_into(scenario, flows_of, tx, k_used, round, out);
    }

    /// Whether later winners may join mid-round through secondary
    /// contention (n+'s defining feature).
    pub(crate) fn allows_join(self) -> bool {
        matches!(self, NPlus | GreedyJoin | Oracle)
    }

    /// Whether joiners run §4 join power control against protected
    /// receivers.
    pub(crate) fn join_power_control(self) -> bool {
        !matches!(self, GreedyJoin | Oracle)
    }

    /// Perfect channel knowledge: transmitters plan with the *true*
    /// channels instead of reciprocity-plus-hardware-error estimates
    /// (and consume no RNG doing so).
    pub(crate) fn perfect_knowledge(self) -> bool {
        matches!(self, Oracle)
    }

    /// Omniscient scheduling: instead of random contention, the engine
    /// exhaustively evaluates every transmitter as the round's primary
    /// (with zero contention airtime) and keeps the schedule with the
    /// best goodput per unit airtime. Implies
    /// [`perfect_knowledge`](Policy::perfect_knowledge).
    pub(crate) fn omniscient(self) -> bool {
        matches!(self, Oracle)
    }
}

/// Resolves a built-in policy by its registry name: `"nplus"`,
/// `"dot11n"`, `"beamforming"`, `"oracle"`, `"greedy_join"`.
pub(crate) fn policy_from_name(name: &str) -> Option<Policy> {
    Policy::ALL.into_iter().find(|p| p.name() == name)
}

/// Names of every built-in policy, in presentation order.
pub const BUILTIN_POLICY_NAMES: [&str; 5] = {
    let mut names = [""; 5];
    let mut i = 0;
    while i < names.len() {
        names[i] = Policy::ALL[i].name();
        i += 1;
    }
    names
};

/// The shared fair allocator: splits the winner's spare antennas
/// (`M − k_ongoing`) across its flows (`flows_of[tx]`), respecting each
/// receiver's spare dimensions (`N_rx − k_ongoing`) and rotating the
/// split start across rounds so multi-flow transmitters serve their
/// flows evenly. Writes `(flow, n_streams)` pairs with `n_streams > 0`
/// into `out`, reusing its buffer so steady-state rounds allocate
/// nothing.
fn fair_allocation_into(
    scenario: &Scenario,
    flows_of: &[Vec<usize>],
    tx: usize,
    k_ongoing: usize,
    round: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    let flows = &flows_of[tx];
    let mut remaining = scenario.antennas[tx].saturating_sub(k_ongoing);
    if remaining == 0 || flows.is_empty() {
        return;
    }
    let cap = |f: usize| scenario.antennas[scenario.flows[f].rx].saturating_sub(k_ongoing);
    out.extend(flows.iter().map(|&f| (f, 0)));
    let mut i = round % flows.len();
    let mut stalled = 0;
    while remaining > 0 && stalled < flows.len() {
        let (f, n) = &mut out[i];
        if *n < cap(*f) {
            *n += 1;
            remaining -= 1;
            stalled = 0;
        } else {
            stalled += 1;
        }
        i = (i + 1) % flows.len();
    }
    out.retain(|&(_, n)| n > 0);
}

/// Stock 802.11n's allocation: one receiver per transmission
/// opportunity, rotated across the transmitter's flows, with
/// `min(M_tx, N_rx)` streams to it.
fn single_flow_allocation_into(
    scenario: &Scenario,
    flows_of: &[Vec<usize>],
    tx: usize,
    round: usize,
    out: &mut Vec<(usize, usize)>,
) {
    out.clear();
    let flows = &flows_of[tx];
    if flows.is_empty() {
        return;
    }
    let f = flows[round % flows.len()];
    let rx = scenario.flows[f].rx;
    out.push((f, scenario.antennas[tx].min(scenario.antennas[rx])));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SweepSpec;

    fn flows_of(scenario: &Scenario) -> Vec<Vec<usize>> {
        (0..scenario.antennas.len())
            .map(|n| scenario.flows_of(n))
            .collect()
    }

    #[test]
    fn builtin_names_round_trip_through_the_registry() {
        assert_eq!(
            BUILTIN_POLICY_NAMES,
            ["dot11n", "beamforming", "nplus", "greedy_join", "oracle"]
        );
        for (policy, name) in Policy::ALL.into_iter().zip(BUILTIN_POLICY_NAMES) {
            assert_eq!(policy.name(), name);
            assert_eq!(policy_from_name(name), Some(policy));
            let canonical = SweepSpec::new(Scenario::three_pairs())
                .policy(policy)
                .canonical()
                .expect("a one-policy built-in spec canonicalizes");
            assert_eq!(canonical.policies, [name]);
        }
        assert!(policy_from_name("csma_ca_2003").is_none());
    }

    #[test]
    fn fair_allocation_matches_enum_era_allocator() {
        let scenario = Scenario::ap_downlink();
        let flows_of = flows_of(&scenario);
        // `out` starts dirty: the pooled allocators must clear it.
        let fair = |tx, k, round| {
            let mut out = vec![(9, 9)];
            fair_allocation_into(&scenario, &flows_of, tx, k, round, &mut out);
            out
        };
        // AP2 (3 antennas, flows 1 and 2 to 2-antenna clients): all three
        // spare antennas split 2/1 with the rotation deciding who gets 2.
        assert_eq!(fair(2, 0, 0), vec![(1, 2), (2, 1)]);
        assert_eq!(fair(2, 0, 1), vec![(1, 1), (2, 2)]);
        // One DoF already used: 2 spare antennas, each client has 1 spare dim.
        assert_eq!(fair(2, 1, 0), vec![(1, 1), (2, 1)]);
        // No antennas left.
        assert!(fair(2, 3, 0).is_empty());
    }

    #[test]
    fn single_flow_allocation_rotates_and_caps_streams() {
        let scenario = Scenario::ap_downlink();
        let flows_of = flows_of(&scenario);
        let single = |tx, round| {
            let mut out = vec![(9, 9)];
            single_flow_allocation_into(&scenario, &flows_of, tx, round, &mut out);
            out
        };
        // c1 (1 ant) -> AP1 (2 ant): min(1, 2) = 1 stream.
        assert_eq!(single(0, 0), vec![(0, 1)]);
        // AP2 (3 ant) -> client (2 ant): min(3, 2) = 2 streams, rotating.
        assert_eq!(single(2, 0), vec![(1, 2)]);
        assert_eq!(single(2, 1), vec![(2, 2)]);
    }

    #[test]
    fn policy_flag_matrix() {
        assert!(NPlus.allows_join() && NPlus.join_power_control());
        assert!(!NPlus.perfect_knowledge() && !NPlus.omniscient());
        assert!(!Dot11n.allows_join() && !Beamforming.allows_join());
        assert!(GreedyJoin.allows_join() && !GreedyJoin.join_power_control());
        assert!(Oracle.omniscient() && Oracle.perfect_knowledge() && Oracle.allows_join());
        // The omniscient schedule memo relies on exact channels.
        for policy in Policy::ALL {
            assert!(
                !policy.omniscient() || policy.perfect_knowledge(),
                "{policy:?}"
            );
        }
    }
}
