//! The paper's three protocols and the greedy-join ablation as
//! [`MacPolicy`] implementations.
//!
//! `NPlus`, `Dot11n` and `Beamforming` are the exact behaviours the
//! engine once hard-coded per protocol; the `policy_regression`
//! integration suite pins their results bit-for-bit against values
//! recorded from that implementation.

use super::{AllocScratch, MacPolicy, PolicyView};

/// The paper's contribution (§3): the first winner behaves like
/// 802.11n, later winners join through the precoder after §4 join
/// power control, and everyone ends with the first winner.
#[derive(Debug, Clone, Copy, Default)]
pub struct NPlus;

impl MacPolicy for NPlus {
    fn name(&self) -> &str {
        "nplus"
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
}

/// Baseline: stock 802.11n. One winner per round sends `min(M, N)`
/// streams to a single receiver; no concurrency of any kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dot11n;

impl MacPolicy for Dot11n {
    fn name(&self) -> &str {
        "dot11n"
    }

    fn primary_allocation(
        &self,
        view: &PolicyView,
        tx: usize,
        round: usize,
    ) -> Vec<(usize, usize)> {
        view.single_flow_allocation(tx, round)
    }

    fn primary_allocation_into(
        &self,
        view: &PolicyView,
        tx: usize,
        round: usize,
        _ws: &mut AllocScratch,
        out: &mut Vec<(usize, usize)>,
    ) {
        view.single_flow_allocation_into(tx, round, out);
    }
}

/// Baseline: multi-user beamforming (the paper's \[7\], Aryafar et al.).
/// A multi-client winner may serve several of its own clients
/// concurrently, but there is still no concurrency across transmitters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Beamforming;

impl MacPolicy for Beamforming {
    fn name(&self) -> &str {
        "beamforming"
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
}

/// Ablation: n+ with §4 join power control bypassed — joiners transmit
/// at full power however much residual interference they leave at
/// protected receivers. This is the policy-layer replacement for the
/// former `SimConfig::power_control = false` knob and reproduces it
/// bit-for-bit (the power decision was the only branch the flag
/// guarded, and it never consumed RNG).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyJoin;

impl MacPolicy for GreedyJoin {
    fn name(&self) -> &str {
        "greedy_join"
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
}
