//! Seeded random scenario generation.
//!
//! The canonical builders in [`crate::scenario`] reproduce the paper's
//! exact figures; large Monte-Carlo sweeps additionally need *families*
//! of scenarios — random pair counts, antenna mixes and multi-AP traffic
//! shapes — drawn reproducibly from a seed. [`ScenarioGenerator`] covers
//! the space the sweep binaries explore: N contending pairs, multi-AP
//! downlink cells, hidden-terminal stars, maximally antenna-asymmetric
//! pairs and dense many-pair meshes, with 1–4 antennas per node.
//! Families up to [`MAX_NODES`] nodes fit the paper's 20-location
//! testbed map; the dense family goes up to [`MAX_DENSE_NODES`] nodes
//! and places on `Testbed::sigcomm11_extended()` (which a
//! [`SweepSpec`](crate::sim::SweepSpec) selects automatically by node
//! count).

use crate::sim::{Flow, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest node count of the standard families (the paper's testbed map
/// has 20 candidate locations; 16 leaves placement diversity).
pub(crate) const MAX_NODES: usize = 16;

/// Largest node count of the dense family (placed on the 40-location
/// `Testbed::sigcomm11_extended()` map, which a sweep selects
/// automatically by node count; 32 leaves placement diversity there).
pub(crate) const MAX_DENSE_NODES: usize = 32;

/// Largest antenna count the generator draws per node.
pub(crate) const MAX_ANTENNAS: usize = 4;

/// Seeded source of random [`Scenario`]s.
///
/// Every draw consumes the generator's own RNG stream, so a fixed seed
/// reproduces the same sequence of scenarios regardless of what the
/// caller does with them.
#[derive(Debug)]
// nplus:allow(VIS001): the goldens tests/policy_regression.rs and tests/observer_contract.rs draw their scenarios from it
pub struct ScenarioGenerator {
    rng: StdRng,
}

impl ScenarioGenerator {
    /// Creates a generator with its own deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        ScenarioGenerator {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)),
        }
    }

    /// `n_pairs` transmitter→receiver pairs with independently drawn
    /// antenna counts in `1..=MAX_ANTENNAS` (the Fig. 3 shape at
    /// arbitrary size). Node order: tx1, rx1, tx2, rx2, …
    // nplus:allow(VIS001): a golden draws its scenarios with it (tests/policy_regression.rs, tests/observer_contract.rs)
    pub fn n_pairs(&mut self, n_pairs: usize) -> Scenario {
        assert!(n_pairs >= 1, "need at least one pair");
        assert!(2 * n_pairs <= MAX_NODES, "too many nodes for the testbed");
        let mut antennas = Vec::with_capacity(2 * n_pairs);
        let mut flows = Vec::with_capacity(n_pairs);
        for p in 0..n_pairs {
            antennas.push(self.rng.gen_range(1..=MAX_ANTENNAS));
            antennas.push(self.rng.gen_range(1..=MAX_ANTENNAS));
            flows.push(Flow {
                tx: 2 * p,
                rx: 2 * p + 1,
            });
        }
        Scenario { antennas, flows }
    }

    /// `n_aps` downlink cells: each AP (2–4 antennas) serves
    /// `clients_per_ap` clients (1–4 antennas each) with one flow per
    /// client — the Fig. 4 shape generalized (multi-client APs are the
    /// traffic shape multi-user beamforming baselines are evaluated on).
    /// Node order per cell: AP, c1, …, c`clients_per_ap`.
    // nplus:allow(VIS001): crates/bench/tests/alloc_steady_state.rs draws its multi-AP scenario with it
    pub fn multi_ap(&mut self, n_aps: usize, clients_per_ap: usize) -> Scenario {
        assert!(n_aps >= 1 && clients_per_ap >= 1, "empty cell");
        assert!(
            n_aps * (1 + clients_per_ap) <= MAX_NODES,
            "too many nodes for the testbed"
        );
        let mut antennas = Vec::new();
        let mut flows = Vec::new();
        for _ in 0..n_aps {
            let ap = antennas.len();
            antennas.push(self.rng.gen_range(2..=MAX_ANTENNAS));
            for _ in 0..clients_per_ap {
                let client = antennas.len();
                antennas.push(self.rng.gen_range(1..=MAX_ANTENNAS));
                flows.push(Flow { tx: ap, rx: client });
            }
        }
        Scenario { antennas, flows }
    }

    /// A hidden-terminal star: `n_txs` transmitters (1–4 antennas each)
    /// all sending to one shared multi-antenna receiver. Under random
    /// placement the transmitters frequently cannot decode each other's
    /// headers while still interfering at the shared receiver — the
    /// classic hidden-terminal stress for carrier sense and the
    /// secondary-contention path. Node order: rx, tx1, …, tx`n_txs`.
    // nplus:allow(VIS001): a golden draws its scenarios with it (tests/policy_regression.rs, tests/observer_contract.rs)
    pub fn hidden_terminal(&mut self, n_txs: usize) -> Scenario {
        assert!(n_txs >= 2, "a hidden-terminal star needs >= 2 transmitters");
        assert!(n_txs < MAX_NODES, "too many nodes for the testbed");
        let mut antennas = Vec::with_capacity(n_txs + 1);
        // The shared receiver needs spatial room: 2–4 antennas.
        antennas.push(self.rng.gen_range(2..=MAX_ANTENNAS));
        let mut flows = Vec::with_capacity(n_txs);
        for t in 0..n_txs {
            antennas.push(self.rng.gen_range(1..=MAX_ANTENNAS));
            flows.push(Flow { tx: t + 1, rx: 0 });
        }
        Scenario { antennas, flows }
    }

    /// `n_pairs` maximally antenna-asymmetric pairs: odd pairs put all
    /// the antennas on the transmitter (4→1), even pairs on the receiver
    /// (1→4) — the extremes of the paper's heterogeneity axis, where
    /// stream allocation is capacity-limited on one side. Node order:
    /// tx1, rx1, tx2, rx2, …
    // nplus:allow(VIS001): a golden draws its scenarios with it (tests/policy_regression.rs, tests/observer_contract.rs)
    pub fn asymmetric_antenna(&mut self, n_pairs: usize) -> Scenario {
        assert!(n_pairs >= 1, "need at least one pair");
        assert!(2 * n_pairs <= MAX_NODES, "too many nodes for the testbed");
        let mut antennas = Vec::with_capacity(2 * n_pairs);
        let mut flows = Vec::with_capacity(n_pairs);
        for p in 0..n_pairs {
            let (tx_ants, rx_ants) = if p % 2 == 0 {
                (MAX_ANTENNAS, 1)
            } else {
                (1, MAX_ANTENNAS)
            };
            antennas.push(tx_ants);
            antennas.push(rx_ants);
            flows.push(Flow {
                tx: 2 * p,
                rx: 2 * p + 1,
            });
        }
        Scenario { antennas, flows }
    }

    /// A dense mesh of `n_nodes / 2` contending pairs (`n_nodes` even,
    /// up to `MAX_DENSE_NODES`): the contention-heavy regime where
    /// Monte-Carlo sweeps are the most compute-bound and the parallel
    /// sweep engine earns its keep. Scenarios above the paper map's
    /// capacity place on the extended testbed. Node order as
    /// [`n_pairs`](Self::n_pairs).
    // nplus:allow(VIS001): the bench crate's test suites (alloc_steady_state, thread_parity, decimated_error_budget) draw dense scenarios with it
    pub fn dense(&mut self, n_nodes: usize) -> Scenario {
        assert!(
            n_nodes >= 4 && n_nodes.is_multiple_of(2),
            "dense needs an even node count >= 4"
        );
        assert!(
            n_nodes <= MAX_DENSE_NODES,
            "too many nodes for the extended testbed"
        );
        let mut antennas = Vec::with_capacity(n_nodes);
        let mut flows = Vec::with_capacity(n_nodes / 2);
        for p in 0..n_nodes / 2 {
            antennas.push(self.rng.gen_range(1..=MAX_ANTENNAS));
            antennas.push(self.rng.gen_range(1..=MAX_ANTENNAS));
            flows.push(Flow {
                tx: 2 * p,
                rx: 2 * p + 1,
            });
        }
        Scenario { antennas, flows }
    }

    /// A random scenario of any family — contending pairs, multi-AP
    /// downlink cells, hidden-terminal stars, asymmetric pairs or a
    /// dense mesh — sized for an environment with `capacity` placement
    /// slots: every family's node count stays within `capacity`, so the
    /// draw places on any
    /// [`Environment`](nplus_channel::environment::Environment)
    /// whose [`capacity()`](nplus_channel::environment::Environment::capacity)
    /// is at least that. Needs `capacity >= 6` (the smallest family
    /// shapes); above `MAX_DENSE_NODES` the draws no longer depend on
    /// `capacity`.
    // nplus:allow(VIS001): the golden tests/city_scale.rs draws capacity-bounded random scenarios with it
    pub fn random_for_capacity(&mut self, capacity: usize) -> Scenario {
        assert!(capacity >= 6, "need at least 6 placement slots");
        let std_cap = capacity.min(MAX_NODES);
        match self.rng.gen_range(0u8..5) {
            0 => {
                let n_pairs = self.rng.gen_range(2..=std_cap / 2);
                self.n_pairs(n_pairs)
            }
            1 => {
                let max_aps = (std_cap / 2).min(4); // each cell needs >= 2 nodes
                let n_aps: usize = self.rng.gen_range(1..=max_aps);
                let max_clients = (std_cap / n_aps).saturating_sub(1).clamp(1, 3);
                let clients = self.rng.gen_range(1..=max_clients);
                self.multi_ap(n_aps, clients)
            }
            2 => {
                let n_txs = self.rng.gen_range(2..=(std_cap - 1).min(6));
                self.hidden_terminal(n_txs)
            }
            3 => {
                let n_pairs = self.rng.gen_range(2..=std_cap / 2);
                self.asymmetric_antenna(n_pairs)
            }
            _ => {
                let dense_cap = capacity.min(MAX_DENSE_NODES);
                if dense_cap / 2 < 5 {
                    // Too small a map for the dense regime: fall back to
                    // the largest pair mesh that fits.
                    let n_pairs = self.rng.gen_range(2..=std_cap / 2);
                    return self.n_pairs(n_pairs);
                }
                let n_pairs = self.rng.gen_range(5..=dense_cap / 2);
                self.dense(2 * n_pairs)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_valid(s: &Scenario) {
        assert!(s.antennas.len() <= MAX_DENSE_NODES);
        assert!(!s.flows.is_empty());
        for &a in &s.antennas {
            assert!((1..=MAX_ANTENNAS).contains(&a), "antennas {a}");
        }
        for f in &s.flows {
            assert!(f.tx < s.antennas.len());
            assert!(f.rx < s.antennas.len());
            assert_ne!(f.tx, f.rx);
        }
    }

    #[test]
    fn pairs_shape() {
        let mut g = ScenarioGenerator::new(1);
        let s = g.n_pairs(5);
        assert_eq!(s.antennas.len(), 10);
        assert_eq!(s.flows.len(), 5);
        check_valid(&s);
        assert_eq!(s.transmitters(), vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn multi_ap_shape() {
        let mut g = ScenarioGenerator::new(2);
        let s = g.multi_ap(2, 3);
        assert_eq!(s.antennas.len(), 8);
        assert_eq!(s.flows.len(), 6);
        check_valid(&s);
        // Both APs transmit, all flows leave an AP.
        assert_eq!(s.transmitters(), vec![0, 4]);
        assert_eq!(s.flows_of(0), vec![0, 1, 2]);
        for ap in [0usize, 4] {
            assert!(s.antennas[ap] >= 2, "AP must have multiple antennas");
        }
    }

    #[test]
    fn hidden_terminal_shape() {
        let mut g = ScenarioGenerator::new(5);
        let s = g.hidden_terminal(4);
        assert_eq!(s.antennas.len(), 5);
        assert_eq!(s.flows.len(), 4);
        check_valid(&s);
        // Every flow targets the shared receiver; every tx is distinct.
        assert!(s.flows.iter().all(|f| f.rx == 0));
        assert_eq!(s.transmitters(), vec![1, 2, 3, 4]);
        assert!(s.antennas[0] >= 2, "shared receiver needs spatial room");
    }

    #[test]
    fn asymmetric_antenna_shape() {
        let mut g = ScenarioGenerator::new(6);
        let s = g.asymmetric_antenna(3);
        assert_eq!(s.antennas.len(), 6);
        check_valid(&s);
        // Pairs alternate 4→1 and 1→4.
        assert_eq!(s.antennas, vec![4, 1, 1, 4, 4, 1]);
        for f in &s.flows {
            let (a, b) = (s.antennas[f.tx], s.antennas[f.rx]);
            assert_eq!(a.max(b), MAX_ANTENNAS);
            assert_eq!(a.min(b), 1);
        }
    }

    #[test]
    fn dense_shape() {
        let mut g = ScenarioGenerator::new(7);
        let s = g.dense(MAX_DENSE_NODES);
        assert_eq!(s.antennas.len(), 32);
        assert_eq!(s.flows.len(), 16);
        check_valid(&s);
        assert_eq!(s.transmitters().len(), 16);
        // And it actually places + simulates on the extended testbed.
        let stats = crate::sim::SweepSpec::new(g.dense(24))
            .rounds(1)
            .seeds([13])
            .run_seed_xor(13 ^ 3)
            .policy(crate::policy::Dot11n)
            .run();
        assert!(stats[0].mean_total_mbps.is_finite());
    }

    #[test]
    fn random_for_capacity_respects_the_cap_and_keeps_its_golden_draws() {
        // The first three seed-11 draws at the stock dense cap. Any
        // change to the family dispatch or gen_range bounds breaks these
        // literals.
        type Golden = (&'static [usize], &'static [(usize, usize)]);
        let goldens: [Golden; 3] = [
            (
                &[1, 4, 2, 1, 3, 3, 2, 4, 2, 3, 3, 1, 1, 1],
                &[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13)],
            ),
            (
                &[
                    1, 2, 4, 3, 1, 3, 3, 1, 1, 4, 4, 3, 4, 1, 1, 3, 3, 4, 1, 2, 1, 4, 3, 2,
                ],
                &[
                    (0, 1),
                    (2, 3),
                    (4, 5),
                    (6, 7),
                    (8, 9),
                    (10, 11),
                    (12, 13),
                    (14, 15),
                    (16, 17),
                    (18, 19),
                    (20, 21),
                    (22, 23),
                ],
            ),
            (
                &[
                    4, 3, 1, 2, 3, 2, 1, 4, 2, 1, 2, 1, 2, 2, 1, 4, 1, 3, 2, 1, 1, 4, 1, 1,
                ],
                &[
                    (0, 1),
                    (2, 3),
                    (4, 5),
                    (6, 7),
                    (8, 9),
                    (10, 11),
                    (12, 13),
                    (14, 15),
                    (16, 17),
                    (18, 19),
                    (20, 21),
                    (22, 23),
                ],
            ),
        ];
        let mut g = ScenarioGenerator::new(11);
        for (i, (antennas, flows)) in goldens.iter().enumerate() {
            let x = g.random_for_capacity(MAX_DENSE_NODES);
            assert_eq!(&x.antennas, antennas, "draw {i} diverged");
            let got: Vec<(usize, usize)> = x.flows.iter().map(|f| (f.tx, f.rx)).collect();
            assert_eq!(&got, flows, "draw {i} diverged");
        }
        // Every capped draw fits the cap.
        for capacity in [6usize, 8, 12, 20, 40] {
            let mut g = ScenarioGenerator::new(7);
            for _ in 0..30 {
                let s = g.random_for_capacity(capacity);
                check_valid(&s);
                assert!(
                    s.antennas.len() <= capacity,
                    "capacity {capacity}: drew {} nodes",
                    s.antennas.len()
                );
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let mut g1 = ScenarioGenerator::new(9);
        let mut g2 = ScenarioGenerator::new(9);
        for _ in 0..10 {
            let a = g1.random_for_capacity(MAX_DENSE_NODES);
            let b = g2.random_for_capacity(MAX_DENSE_NODES);
            assert_eq!(a.antennas, b.antennas);
            assert_eq!(a.flows, b.flows);
        }
    }

    #[test]
    fn random_scenarios_fit_and_simulate() {
        let mut g = ScenarioGenerator::new(33);
        for _ in 0..20 {
            check_valid(&g.random_for_capacity(MAX_DENSE_NODES));
        }
        // Smoke: a small generated scenario actually runs end to end.
        let stats = crate::sim::SweepSpec::new(ScenarioGenerator::new(4).n_pairs(2))
            .rounds(2)
            .seeds([4])
            .run_seed_xor(4 ^ 11)
            .policy(crate::policy::NPlus)
            .run();
        assert!(stats[0].mean_total_mbps.is_finite());
    }
}
