//! Protocol-level invariants of n+ (DESIGN.md §6), checked across many
//! random topologies.

use nplus::policy::{Beamforming, Dot11n, GreedyJoin, MacPolicy, NPlus, Oracle};
use nplus::sim::{Scenario, SimConfig, SweepSpec};
use nplus_channel::environment::BUILTIN_ENVIRONMENT_NAMES;
use nplus_channel::impairments::HardwareProfile;
use nplus_channel::placement::Testbed;
use nplus_testkit::fixtures::IDEAL_HARDWARE;
use nplus_testkit::generator::ScenarioGenerator;
use nplus_testkit::scenario::build_scenario;
use proptest::{proptest, ProptestConfig};

fn run(
    scenario: &Scenario,
    policy: &dyn MacPolicy,
    seed: u64,
    hardware: HardwareProfile,
    rounds: usize,
) -> nplus::sim::RunResult {
    let built = build_scenario(scenario.clone(), seed);
    let cfg = SimConfig {
        rounds,
        hardware,
        ..SimConfig::default()
    };
    // Decorrelate the simulation stream from the placement stream (which
    // build_scenario seeds with `seed` itself).
    built.run(policy, &cfg, seed ^ 0x5EED)
}

/// n+ must never use more degrees of freedom than the largest antenna
/// count among transmitters (Claim 3.2 applied network-wide).
#[test]
fn dof_never_exceeds_max_antennas() {
    let scenario = Scenario::three_pairs();
    for seed in 0..8 {
        let r = run(&scenario, &NPlus, seed, HardwareProfile::default(), 10);
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
        flow0_nplus += run(&scenario, &NPlus, seed, IDEAL_HARDWARE, 14).per_flow_mbps[0];
        flow0_dot11n += run(&scenario, &Dot11n, seed, IDEAL_HARDWARE, 14).per_flow_mbps[0];
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
        let np = run(&scenario, &NPlus, seed, HardwareProfile::default(), 12);
        let dn = run(&scenario, &Dot11n, seed, HardwareProfile::default(), 12);
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
        let np = run(&scenario, &NPlus, seed, HardwareProfile::default(), 12);
        let dn = run(&scenario, &Dot11n, seed, HardwareProfile::default(), 12);
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
    let scenario = Scenario::three_pairs();
    let mut with_pc = 0.0;
    let mut without_pc = 0.0;
    for seed in 0..6u64 {
        let built = build_scenario(scenario.clone(), seed);
        let cfg = SimConfig {
            rounds: 12,
            ..SimConfig::default()
        };
        with_pc += built.run(&NPlus, &cfg, seed ^ 0x55).per_flow_mbps[0];
        without_pc += built.run(&GreedyJoin, &cfg, seed ^ 0x55).per_flow_mbps[0];
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

/// Determinism: identical seeds produce identical results.
#[test]
fn simulation_is_deterministic() {
    let scenario = Scenario::three_pairs();
    let a = run(&scenario, &NPlus, 33, HardwareProfile::default(), 8);
    let b = run(&scenario, &NPlus, 33, HardwareProfile::default(), 8);
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
    let scenario = Scenario::three_pairs();
    let cfg = SimConfig {
        rounds: 25,
        ..SimConfig::default()
    };
    let (mut np_total, mut dn_total, mut np_flow0, mut dn_flow0) = (0.0, 0.0, 0.0, 0.0);
    for seed in 0..30 {
        let built = build_scenario(scenario.clone(), seed);
        let np = built.run(&NPlus, &cfg, seed ^ 0xC0FFEE);
        let dn = built.run(&Dot11n, &cfg, seed ^ 0xC0FFEE);
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
        let testbed = Testbed::try_fitting(scenario.antennas.len()).unwrap_or_else(|e| panic!("{e}"));
        let cfg = SimConfig { rounds: 2, ..SimConfig::default() };
        let spec = |threads: usize| {
            SweepSpec::new(scenario.clone())
                .testbed(testbed.clone())
                .config(cfg.clone())
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
        np += run(&scenario, &NPlus, seed, HardwareProfile::default(), 12).total_mbps;
        bf += run(
            &scenario,
            &Beamforming,
            seed,
            HardwareProfile::default(),
            12,
        )
        .total_mbps;
        dn += run(&scenario, &Dot11n, seed, HardwareProfile::default(), 12).total_mbps;
    }
    assert!(np > bf, "n+ {np:.1} not above beamforming {bf:.1}");
    assert!(bf > dn, "beamforming {bf:.1} not above 802.11n {dn:.1}");
}
