//! The `RoundObserver` contract: a `RunResult` is reconstructible from
//! the event stream alone, bit-for-bit.
//!
//! The engine's own accounting is an observer (`GoodputAccumulator`),
//! so everything it folds into the result must be visible to any other
//! observer through the same events. This suite re-derives the
//! per-flow goodput, total goodput and mean DoF from recorded
//! `RoundRecord`s — using the documented accumulation arithmetic — and
//! asserts **exact** equality with the returned `RunResult`, for every
//! built-in policy over generated scenarios.

use nplus::observer::{
    ContentionRecord, JoinRecord, NullObserver, RoundObserver, RoundRecord, RunMeta,
};
use nplus::policy::{Beamforming, Dot11n, GreedyJoin, NPlus, Oracle};
use nplus::scenario::ScenarioGenerator;
use nplus::sim::{RunResult, SweepSpec};
use proptest::{proptest, ProptestConfig};

/// Records the full event stream, owning copies of the borrowed slices.
#[derive(Default)]
struct Recorder {
    n_flows: usize,
    bandwidth_hz: f64,
    rounds_declared: usize,
    contentions: Vec<ContentionRecord>,
    joins: Vec<JoinRecord>,
    /// Per round: (body_symbols, duration_samples, flow_bits, active_symbols).
    rounds: Vec<(usize, u64, Vec<f64>, Vec<usize>)>,
}

impl RoundObserver for Recorder {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.n_flows = meta.n_flows;
        self.bandwidth_hz = meta.bandwidth_hz;
        self.rounds_declared = meta.rounds;
    }

    fn on_contention(&mut self, ev: &ContentionRecord) {
        self.contentions.push(ev.clone());
    }

    fn on_join(&mut self, ev: &JoinRecord) {
        self.joins.push(ev.clone());
    }

    fn on_round_end(&mut self, ev: &RoundRecord) {
        self.rounds.push((
            ev.body_symbols,
            ev.duration_samples,
            ev.flow_bits.to_vec(),
            ev.streams.iter().map(|s| s.active_symbols).collect(),
        ));
    }
}

impl Recorder {
    /// Re-derives the `RunResult` with the accumulator's documented
    /// arithmetic: bits folded per round in flow order, DoF as the
    /// body-weighted mean of (sum of active symbols / body length).
    fn reconstruct(&self) -> RunResult {
        let mut bits = vec![0.0f64; self.n_flows];
        let mut total_samples: u64 = 0;
        let mut dof_weighted = 0.0f64;
        let mut dof_time = 0.0f64;
        for (body, duration, flow_bits, actives) in &self.rounds {
            for (f, b) in flow_bits.iter().enumerate() {
                bits[f] += b;
            }
            total_samples += duration;
            let mean_streams: f64 =
                actives.iter().map(|&a| a as f64).sum::<f64>() / (*body).max(1) as f64;
            dof_weighted += mean_streams * *body as f64;
            dof_time += *body as f64;
        }
        let elapsed_s = total_samples as f64 / self.bandwidth_hz;
        let per_flow_mbps: Vec<f64> = bits.iter().map(|b| b / elapsed_s / 1e6).collect();
        RunResult {
            total_mbps: per_flow_mbps.iter().sum(),
            per_flow_mbps,
            mean_dof: if dof_time > 0.0 {
                dof_weighted / dof_time
            } else {
                0.0
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For every built-in policy on generated scenarios: the goodput and
    /// DoF totals reconstructed from `RoundObserver` events equal the
    /// returned `RunResult` fields exactly — and observing a run does
    /// not change its result.
    #[test]
    fn run_results_reconstruct_exactly_from_events(gen_seed in 0u64..500, family in 0u8..3) {
        let mut generator = ScenarioGenerator::new(gen_seed);
        let scenario = match family {
            0 => generator.n_pairs(2),
            1 => generator.hidden_terminal(2),
            _ => generator.asymmetric_antenna(2),
        };
        let n_flows = scenario.flows.len();
        let rounds = 3;
        // Every built-in, in `BUILTIN_POLICY_NAMES` order.
        let policies = [Dot11n, Beamforming, NPlus, GreedyJoin, Oracle];
        let spec = policies
            .iter()
            .fold(SweepSpec::new(scenario), |s, &p| s.policy(p))
            .rounds(rounds)
            .seeds([gen_seed])
            .run_seed_xor(0x0B5E);
        let (observed, recorders) = spec.try_run_observed(|_, _| Recorder::default()).unwrap().remove(0);
        // Observation is passive: the same runs without a tap give the
        // identical results.
        let (plain, _) = spec.try_run_observed(|_, _| NullObserver).unwrap().remove(0);
        for (p, recorder) in recorders.iter().enumerate() {
            let name = policies[p].name();
            let (observed, plain) = (&observed.per_policy[p], &plain.per_policy[p]);
            proptest::prop_assert_eq!(&observed.per_flow_mbps, &plain.per_flow_mbps, "{} tap changed run", name);
            proptest::prop_assert_eq!(observed.total_mbps, plain.total_mbps, "{} tap changed run", name);
            proptest::prop_assert_eq!(observed.mean_dof, plain.mean_dof, "{} tap changed run", name);

            // The event stream carries the whole accounting.
            let rebuilt = recorder.reconstruct();
            proptest::prop_assert_eq!(&rebuilt.per_flow_mbps, &observed.per_flow_mbps, "{} per-flow", name);
            proptest::prop_assert_eq!(rebuilt.total_mbps, observed.total_mbps, "{} total", name);
            proptest::prop_assert_eq!(rebuilt.mean_dof, observed.mean_dof, "{} dof", name);

            // Stream shape: one round record and one medium acquisition
            // record per round, flow slices sized to the scenario.
            proptest::prop_assert_eq!(recorder.rounds.len(), rounds, "{}", name);
            proptest::prop_assert_eq!(recorder.rounds_declared, rounds, "{}", name);
            // Every round that carried data was preceded by a medium
            // acquisition (idle oracle rounds acquire nothing).
            let live_rounds = recorder.rounds.iter().filter(|r| r.0 > 0).count();
            proptest::prop_assert!(recorder.contentions.len() >= live_rounds,
                "{}: {} contentions for {} live rounds", name, recorder.contentions.len(), live_rounds);
            for (_, _, flow_bits, _) in &recorder.rounds {
                proptest::prop_assert_eq!(flow_bits.len(), n_flows, "{}", name);
            }
            // Accepted joins always granted at least one stream.
            for j in &recorder.joins {
                if j.accepted {
                    proptest::prop_assert!(j.n_streams > 0, "{}: empty accepted join", name);
                }
            }
        }
    }
}
