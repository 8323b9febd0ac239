//! Protocol-level invariants of n+ (DESIGN.md §6), checked across many
//! random topologies.

use nplus::observer::{RoundObserver, RoundRecord};
use nplus::policy::{Beamforming, Dot11n, GreedyJoin, NPlus, Oracle, Policy};
use nplus::power_control::DEFAULT_L_DB;
use nplus::scenario::ScenarioGenerator;
use nplus::sim::{Flow, RunResult, Scenario, SweepSpec};
use nplus_channel::environment::{Environment, BUILTIN_ENVIRONMENT_NAMES, SIGCOMM11_INDOOR};
use nplus_channel::impairments::HardwareProfile;
use nplus_phy::rates::RATE_TABLE;
use nplus_testkit::fixtures::IDEAL_HARDWARE;
use nplus_testkit::seed_runs;
use proptest::{proptest, ProptestConfig};

/// One run in the paper's world on `hardware`, at the paper's `L`.
fn run(
    scenario: &Scenario,
    policy: Policy,
    seed: u64,
    hardware: HardwareProfile,
    rounds: usize,
) -> RunResult {
    let spec = SweepSpec::new(scenario.clone())
        .environment(Environment {
            hardware,
            ..SIGCOMM11_INDOOR
        })
        .join_power_l_db(DEFAULT_L_DB)
        .rounds(rounds)
        .seeds([seed])
        // Decorrelate the run stream from the placement stream.
        .run_seed_xor(0x5EED)
        .policy(policy);
    seed_runs(&spec).remove(0).remove(0)
}

/// n+ must never use more degrees of freedom than the largest antenna
/// count among transmitters (Claim 3.2 applied network-wide).
#[test]
fn dof_never_exceeds_max_antennas() {
    let scenario = Scenario::three_pairs();
    for seed in 0..8 {
        let r = run(&scenario, NPlus, seed, HardwareProfile::default(), 10);
        assert!(
            r.mean_dof <= 3.0 + 1e-9,
            "seed {seed}: mean DoF {} exceeds the 3-antenna budget",
            r.mean_dof
        );
    }
}

/// With ideal hardware (perfect channel knowledge), the single-antenna
/// pair must lose essentially nothing to n+'s concurrency: nulls are
/// numerically exact.
#[test]
fn ideal_hardware_protects_first_winner_perfectly() {
    let scenario = Scenario::three_pairs();
    let mut flow0_nplus = 0.0;
    let mut flow0_dot11n = 0.0;
    // A mean over few placements sits close to the 0.75 bound; a dozen
    // keeps the average clear of it across RNG streams.
    for seed in 0..12 {
        flow0_nplus += run(&scenario, NPlus, seed, IDEAL_HARDWARE, 14).per_flow_mbps[0];
        flow0_dot11n += run(&scenario, Dot11n, seed, IDEAL_HARDWARE, 14).per_flow_mbps[0];
    }
    // The single-antenna flow's throughput under n+ must stay within 25%
    // of its 802.11n share (it keeps its contention share; only round
    // length bookkeeping differs).
    assert!(
        flow0_nplus > 0.75 * flow0_dot11n,
        "single-antenna pair starved: {flow0_nplus:.2} vs {flow0_dot11n:.2}"
    );
}

/// n+'s win comes from concurrency: its mean DoF must exceed 802.11n's
/// on the same topology, and total throughput must follow.
#[test]
fn concurrency_is_the_mechanism() {
    let scenario = Scenario::three_pairs();
    let mut dof_gain = 0.0;
    let mut tput_gain = 0.0;
    let n = 6;
    for seed in 0..n {
        let np = run(&scenario, NPlus, seed, HardwareProfile::default(), 12);
        let dn = run(&scenario, Dot11n, seed, HardwareProfile::default(), 12);
        dof_gain += np.mean_dof / dn.mean_dof.max(1e-9) / n as f64;
        tput_gain += np.total_mbps / dn.total_mbps.max(1e-9) / n as f64;
    }
    assert!(dof_gain > 1.15, "DoF gain only {dof_gain:.2}");
    assert!(tput_gain > 1.25, "throughput gain only {tput_gain:.2}");
}

/// Multi-antenna pairs gain more than single-antenna pairs (the paper's
/// headline per-class result: 1.5x for 2x2, 3.5x for 3x3).
#[test]
fn gains_grow_with_antenna_count() {
    let scenario = Scenario::three_pairs();
    let mut gains = [0.0f64; 3];
    let n = 8;
    for seed in 0..n {
        let np = run(&scenario, NPlus, seed, HardwareProfile::default(), 12);
        let dn = run(&scenario, Dot11n, seed, HardwareProfile::default(), 12);
        for f in 0..3 {
            gains[f] += np.per_flow_mbps[f] / dn.per_flow_mbps[f].max(1e-9) / n as f64;
        }
    }
    assert!(
        gains[2] > gains[0],
        "3-antenna gain {:.2} not above 1-antenna gain {:.2}",
        gains[2],
        gains[0]
    );
    assert!(
        gains[1] > 0.9,
        "2-antenna pair should not lose from n+: gain {:.2}",
        gains[1]
    );
}

/// Disabling join power control must not *increase* the single-antenna
/// pair's throughput — power control exists to protect it. The ablation
/// lives at the policy layer now: `GreedyJoin` is n+ with the §4
/// decision bypassed (bit-for-bit the old `power_control = false`, as
/// the `policy_regression` suite pins).
#[test]
fn power_control_protects_ongoing_receivers() {
    let mut with_pc = 0.0;
    let mut without_pc = 0.0;
    let spec = SweepSpec::new(Scenario::three_pairs())
        .rounds(12)
        .seed_count(6)
        .run_seed_xor(0x55)
        .policy(NPlus)
        .policy(GreedyJoin);
    for runs in seed_runs(&spec) {
        with_pc += runs[0].per_flow_mbps[0];
        without_pc += runs[1].per_flow_mbps[0];
    }
    assert!(
        with_pc >= 0.9 * without_pc,
        "power control hurt the protected flow: {with_pc:.2} vs {without_pc:.2}"
    );
}

/// The omniscient scheduler is an upper bound: with perfect channel
/// knowledge, exhaustive primary selection and zero contention
/// overhead, `Oracle`'s mean total goodput must be at least n+'s on
/// every generated scenario family (deterministic seeds, so this is a
/// pinned comparison, not a statistical one).
#[test]
fn oracle_upper_bounds_nplus_on_generated_scenarios() {
    let mut families: Vec<(String, Scenario)> = vec![
        ("three_pairs".into(), Scenario::three_pairs()),
        ("ap_downlink".into(), Scenario::ap_downlink()),
    ];
    for gen_seed in [7u64, 21, 42] {
        families.push((
            format!("pairs3:{gen_seed}"),
            ScenarioGenerator::new(gen_seed).n_pairs(3),
        ));
        families.push((
            format!("hidden2:{gen_seed}"),
            ScenarioGenerator::new(gen_seed).hidden_terminal(2),
        ));
        families.push((
            format!("asym2:{gen_seed}"),
            ScenarioGenerator::new(gen_seed).asymmetric_antenna(2),
        ));
    }
    for (label, scenario) in families {
        let stats = SweepSpec::new(scenario)
            .rounds(6)
            .seed_count(4)
            .policy(NPlus)
            .policy(Oracle)
            .run();
        let (np, oracle) = (&stats[0], &stats[1]);
        assert_eq!(np.policy, "nplus");
        assert_eq!(oracle.policy, "oracle");
        assert!(
            oracle.mean_total_mbps >= np.mean_total_mbps,
            "{label}: oracle {:.3} Mb/s below n+ {:.3} Mb/s",
            oracle.mean_total_mbps,
            np.mean_total_mbps
        );
    }
}

/// Counts settled rounds, those that carried streams, and those whose
/// per-flow bits differ from what the streams carry at their rates.
#[derive(Default)]
struct DeliveryCheck {
    rounds: usize,
    busy: usize,
    violations: Vec<String>,
}

impl RoundObserver for DeliveryCheck {
    fn on_round_end(&mut self, ev: &RoundRecord) {
        self.rounds += 1;
        self.busy += usize::from(!ev.streams.is_empty());
        let mut carried = vec![0.0f64; ev.flow_bits.len()];
        for s in ev.streams {
            carried[s.flow] +=
                (s.active_symbols * RATE_TABLE[s.rate].data_bits_per_symbol()) as f64;
        }
        if carried != ev.flow_bits {
            self.violations.push(format!(
                "round {}: delivered {:?}, streams carry {carried:?}",
                ev.round, ev.flow_bits
            ));
        }
    }
}

/// The oracle's nulls are exact and it plans with the true channels, so
/// every stream's realized ESNR equals its planned ESNR and its selected
/// rate always delivers: on every round, each flow's delivered bits are
/// exactly Σ `active_symbols × data_bits_per_symbol` over its streams
/// (integer-valued sums, so `==` is exact). Checked on every oracle
/// round over generated pairs, hidden-terminal and asymmetric-antenna
/// scenarios.
#[test]
fn oracle_rates_always_deliver() {
    let (mut checked, mut busy) = (0, 0);
    for gen_seed in [7u64, 21] {
        let mut generator = ScenarioGenerator::new(gen_seed);
        for scenario in [
            generator.n_pairs(3),
            generator.hidden_terminal(2),
            generator.asymmetric_antenna(2),
        ] {
            let runs = SweepSpec::new(scenario)
                .rounds(10)
                .seed_count(4)
                .policy(Oracle)
                .try_run_observed(|_, _| DeliveryCheck::default())
                .expect("generated scenario fits sigcomm11");
            for (results, checks) in runs {
                let check = &checks[0];
                assert!(
                    check.violations.is_empty(),
                    "gen seed {gen_seed}, run seed {}: {}",
                    results.seed,
                    check.violations.join("; ")
                );
                checked += check.rounds;
                busy += check.busy;
            }
        }
    }
    assert_eq!(checked, 240);
    assert!(
        busy > checked / 2,
        "only {busy}/{checked} rounds carried a stream"
    );
}

/// Determinism: identical seeds produce identical results.
#[test]
fn simulation_is_deterministic() {
    let scenario = Scenario::three_pairs();
    let a = run(&scenario, NPlus, 33, HardwareProfile::default(), 8);
    let b = run(&scenario, NPlus, 33, HardwareProfile::default(), 8);
    assert_eq!(a.per_flow_mbps, b.per_flow_mbps);
    assert_eq!(a.total_mbps, b.total_mbps);
}

/// Full Monte-Carlo reproduction of the Fig. 12 headline: total n+
/// throughput beats 802.11n by a wide margin over many placements, while
/// the single-antenna flow keeps most of its share.
// Intentionally long-running (30 placements × 2 protocols × 25 rounds —
// several× the rest of the suite combined): run with `cargo test -- --ignored`.
#[test]
#[ignore = "long-running Monte-Carlo sweep; run explicitly with --ignored"]
fn monte_carlo_throughput_headline() {
    let spec = SweepSpec::new(Scenario::three_pairs())
        .rounds(25)
        .seed_count(30)
        .run_seed_xor(0xC0FFEE)
        .policy(NPlus)
        .policy(Dot11n);
    let (mut np_total, mut dn_total, mut np_flow0, mut dn_flow0) = (0.0, 0.0, 0.0, 0.0);
    for runs in seed_runs(&spec) {
        let (np, dn) = (&runs[0], &runs[1]);
        np_total += np.total_mbps;
        dn_total += dn.total_mbps;
        np_flow0 += np.per_flow_mbps[0];
        dn_flow0 += dn.per_flow_mbps[0];
    }
    let gain = np_total / dn_total.max(1e-9);
    assert!(gain > 1.25, "total throughput gain only {gain:.2}x");
    assert!(
        np_flow0 > 0.8 * dn_flow0,
        "single-antenna flow lost too much: {np_flow0:.1} vs {dn_flow0:.1}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The parallel sweep engine's determinism contract (DESIGN.md §4):
    /// for any generated scenario, a `SweepSpec` at 1, 2 and 4 threads
    /// produces statistics **bit-for-bit identical** to the serial
    /// sweep — same seed-derived RNG streams per job, results merged in
    /// seed order, no tolerance anywhere.
    #[test]
    fn sweep_threads_are_bitwise_deterministic(gen_seed in 0u64..1000, family in 0u8..3) {
        let mut generator = ScenarioGenerator::new(gen_seed);
        // Small instances of three families — the proptest runs on every
        // `cargo test`, so keep each case to a few simulated rounds.
        let scenario = match family {
            0 => generator.n_pairs(2),
            1 => generator.hidden_terminal(2),
            _ => generator.asymmetric_antenna(2),
        };
        let spec = |threads: usize| {
            SweepSpec::new(scenario.clone())
                .rounds(2)
                .policy(NPlus)
                .policy(Dot11n)
                .seeds(gen_seed..gen_seed + 2)
                .threads(threads)
                .run()
        };
        let serial = spec(1);
        for threads in [1usize, 2, 4] {
            let par = spec(threads);
            proptest::prop_assert_eq!(serial.len(), par.len());
            for (s, p) in serial.iter().zip(&par) {
                proptest::prop_assert_eq!(&s.policy, &p.policy);
                proptest::prop_assert_eq!(s.n_runs, p.n_runs);
                proptest::prop_assert_eq!(s.mean_total_mbps, p.mean_total_mbps, "threads {}", threads);
                proptest::prop_assert_eq!(s.ci95_total_mbps, p.ci95_total_mbps, "threads {}", threads);
                proptest::prop_assert_eq!(&s.mean_per_flow_mbps, &p.mean_per_flow_mbps, "threads {}", threads);
                proptest::prop_assert_eq!(s.mean_dof, p.mean_dof, "threads {}", threads);
                // NaN-safe bitwise compare (fairness is NaN when no run defined it).
                proptest::prop_assert_eq!(s.mean_fairness.to_bits(), p.mean_fairness.to_bits(), "threads {}", threads);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The engine's thread-count determinism contract holds in
    /// **every** registered propagation environment, not just the
    /// paper's world: for any generated scenario, a sweep at 2 threads
    /// equals the serial sweep exactly. Worlds whose believed-channel
    /// draws differ (degraded hardware) or whose fading is deeper (rich
    /// scatter) must not perturb the contract.
    #[test]
    fn environments_preserve_thread_determinism(gen_seed in 0u64..1000, family in 0u8..3) {
        let mut generator = ScenarioGenerator::new(gen_seed);
        let scenario = match family {
            0 => generator.n_pairs(2),
            1 => generator.hidden_terminal(2),
            _ => generator.asymmetric_antenna(2),
        };
        for name in BUILTIN_ENVIRONMENT_NAMES {
            let run = |threads: usize| {
                SweepSpec::new(scenario.clone())
                    .rounds(2)
                    .environment_named(name)
                    .expect("builtin environment")
                    .seeds(gen_seed..gen_seed + 2)
                    .policy(NPlus)
                    .threads(threads)
                    .run()
            };
            let (base, threaded) = (run(1), run(2));
            for (a, b) in base.iter().zip(&threaded) {
                proptest::prop_assert_eq!(a.mean_total_mbps, b.mean_total_mbps, "{}", name);
                proptest::prop_assert_eq!(&a.mean_per_flow_mbps, &b.mean_per_flow_mbps, "{}", name);
                proptest::prop_assert_eq!(a.mean_dof, b.mean_dof, "{}", name);
                proptest::prop_assert_eq!(a.ci95_total_mbps, b.ci95_total_mbps, "{}", name);
                proptest::prop_assert_eq!(a.mean_fairness.to_bits(), b.mean_fairness.to_bits(), "{}", name);
            }
        }
    }
}

/// Invariant 16 holds in every shipped world, and the oracle bound
/// with it: n+'s mean total goodput beats 802.11n's clearly — and
/// `Oracle`'s upper-bounds n+'s — in the paper's indoor environment
/// *and* in the outdoor, rich-scatter and degraded-hardware worlds.
/// The concurrency win is a property of the protocol, not of the one
/// map the paper measured on. (Deterministic seeds; the ~1.45–1.5×
/// observed ratio leaves a wide margin over the 1.1 asserted here.)
#[test]
fn nplus_beats_dot11n_in_every_environment() {
    for name in BUILTIN_ENVIRONMENT_NAMES {
        let stats = SweepSpec::new(Scenario::three_pairs())
            .rounds(12)
            .seed_count(8)
            .policy(Dot11n)
            .policy(NPlus)
            .policy(Oracle)
            .environment_named(name)
            .expect("builtin environment")
            .run();
        let (dn, np, oracle) = (&stats[0], &stats[1], &stats[2]);
        assert!(
            np.mean_total_mbps > 1.1 * dn.mean_total_mbps,
            "{name}: n+ {:.2} Mb/s not clearly above 802.11n {:.2} Mb/s",
            np.mean_total_mbps,
            dn.mean_total_mbps
        );
        assert!(
            oracle.mean_total_mbps >= np.mean_total_mbps,
            "{name}: oracle {:.2} Mb/s below n+ {:.2} Mb/s",
            oracle.mean_total_mbps,
            np.mean_total_mbps
        );
    }
}

/// n+'s backward compatibility with 802.11n: where no transmitter can
/// join (a lone flow, or a world where every transmitter or every
/// receiver has one antenna), `nplus`, `greedy_join` and `beamforming`
/// must behave exactly as `dot11n`, down to the last bit of every
/// statistic. The oracle schedules omnisciently and differs, as it
/// should.
#[test]
fn contended_policies_match_dot11n_where_nothing_can_join() {
    let pairs = |antennas: &[(usize, usize)]| Scenario {
        antennas: antennas.iter().flat_map(|&(t, r)| [t, r]).collect(),
        flows: (0..antennas.len())
            .map(|i| Flow {
                tx: 2 * i,
                rx: 2 * i + 1,
            })
            .collect(),
    };
    let mut cases: Vec<(String, Scenario)> = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 3)]
        .into_iter()
        .map(|(t, r)| (format!("lone {t}x{r}"), pairs(&[(t, r)])))
        .collect();
    for n in 2..=4 {
        cases.push((format!("{n} 1x1 pairs"), pairs(&vec![(1, 1); n])));
    }
    cases.push(("three 1x3 pairs".to_string(), pairs(&[(1, 3); 3])));
    for (name, scenario) in cases {
        let stats = SweepSpec::new(scenario)
            .rounds(20)
            .seed_count(4)
            .policy(Dot11n)
            .policy(NPlus)
            .policy(GreedyJoin)
            .policy(Beamforming)
            .run();
        let base = &stats[0];
        assert!(
            base.mean_total_mbps > 0.0,
            "{name}: dot11n delivered nothing"
        );
        for s in &stats[1..] {
            let what = format!("{name}: {} vs {}", s.policy, base.policy);
            assert_eq!(s.n_runs, base.n_runs, "{what}: n_runs");
            for (field, a, b) in [
                ("mean_total_mbps", s.mean_total_mbps, base.mean_total_mbps),
                ("ci95_total_mbps", s.ci95_total_mbps, base.ci95_total_mbps),
                ("mean_dof", s.mean_dof, base.mean_dof),
                ("mean_fairness", s.mean_fairness, base.mean_fairness),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: {field} {a} vs {b}");
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&s.mean_per_flow_mbps),
                bits(&base.mean_per_flow_mbps),
                "{what}: mean_per_flow_mbps"
            );
        }
    }
}

/// The AP scenario orders protocols as the paper does:
/// n+ > beamforming > 802.11n on average.
#[test]
fn ap_scenario_protocol_ordering() {
    let scenario = Scenario::ap_downlink();
    let (mut np, mut bf, mut dn) = (0.0, 0.0, 0.0);
    // The beamforming-vs-802.11n gap is the smallest margin in this
    // ordering (~8% of the mean asymptotically — the per-ACK handshake
    // accounting charges the multi-client AP honestly, which thinned it);
    // 32 placements keep the average on the right side across RNG
    // streams (16 was inside the Monte-Carlo noise). The cached engine
    // covers the extra placements with runtime to spare.
    for seed in 0..32 {
        np += run(&scenario, NPlus, seed, HardwareProfile::default(), 12).total_mbps;
        bf += run(&scenario, Beamforming, seed, HardwareProfile::default(), 12).total_mbps;
        dn += run(&scenario, Dot11n, seed, HardwareProfile::default(), 12).total_mbps;
    }
    assert!(np > bf, "n+ {np:.1} not above beamforming {bf:.1}");
    assert!(bf > dn, "beamforming {bf:.1} not above 802.11n {dn:.1}");
}
