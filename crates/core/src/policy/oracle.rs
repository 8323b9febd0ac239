//! The omniscient-scheduler upper bound (§6.3–§6.4).

use super::{AllocScratch, MacPolicy, PolicyView};

/// The paper's upper bound: a central scheduler with perfect channel
/// knowledge and zero contention overhead.
///
/// Where the random-access policies draw a primary winner from CSMA
/// backoff, `Oracle` makes the engine evaluate **every** transmitter as
/// the round's primary — planning the full round (fair allocation,
/// greedy joins by the most capable remaining nodes, §3.4 rate
/// selection, settlement) for each candidate — and keep the schedule
/// with the highest delivered bits per unit airtime. Perfect channel
/// knowledge makes each evaluation deterministic and its nulls exact:
/// no contention slots, no collisions, no hardware-error residuals, and
/// every stream's realized ESNR equals its planned ESNR, so selected
/// rates always deliver (the `protocol_invariants` suite checks it on
/// every round).
///
/// The search is a pure function of the round's schedule state — the
/// backlogged transmitters and their allocations — and of the channels,
/// so the engine evaluates each distinct schedule state once per run and
/// replays the stored schedule when the state recurs.
///
/// Join power control is off: §4 exists to bound the damage of
/// *imperfect* cancellation, and the oracle's cancellation is exact.
///
/// The `protocol_invariants` suite checks that this policy's mean total
/// goodput is an upper bound on n+'s over every generated scenario.
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle;

impl MacPolicy for Oracle {
    fn name(&self) -> &str {
        "oracle"
    }

    fn primary_allocation(
        &self,
        view: &PolicyView,
        tx: usize,
        round: usize,
    ) -> Vec<(usize, usize)> {
        view.fair_allocation(tx, 0, round)
    }

    fn primary_allocation_into(
        &self,
        view: &PolicyView,
        tx: usize,
        round: usize,
        ws: &mut AllocScratch,
        out: &mut Vec<(usize, usize)>,
    ) {
        view.fair_allocation_into(tx, 0, round, ws, out);
    }

    fn join_allocation_into(
        &self,
        view: &PolicyView,
        tx: usize,
        k_used: usize,
        round: usize,
        ws: &mut AllocScratch,
        out: &mut Vec<(usize, usize)>,
    ) {
        view.fair_allocation_into(tx, k_used, round, ws, out);
    }

    fn allows_join(&self) -> bool {
        true
    }

    fn join_power_control(&self) -> bool {
        false
    }

    fn perfect_knowledge(&self) -> bool {
        true
    }

    fn omniscient(&self) -> bool {
        true
    }
}
