//! Seed-for-seed bitwise identity between the pre-environment
//! `build_topology` world and the pluggable `ChannelEnvironment`
//! redesign.
//!
//! Every golden number below was recorded by running the
//! **pre-refactor implementation** (the hard-wired testbed draw, path
//! loss, LOS/NLOS profiles and uniform oscillator draw inside
//! `build_topology`) at the exact seeds listed, printed with Rust's
//! shortest-round-trip float formatting — so parsing the literals
//! reproduces the original `f64` bits exactly and every comparison
//! below is `==`, no tolerance anywhere. If routing the world through
//! the `Sigcomm11Indoor` environment perturbs even the last mantissa
//! bit of a placement, oscillator offset, channel tap DFT or sweep
//! statistic, this suite fails.

use nplus::prelude::*;
use nplus_channel::placement::Testbed;
use nplus_medium::topology::{build_environment_topology, build_topology, TopologyConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Golden topology draws from the enum-era `build_topology` (testbed
/// `sigcomm11()`, antennas `[1, 2, 3]`, 10 MHz, placement RNG seeded
/// with the seed itself): per-node `(x, y, nlos, oscillator_offset_hz)`
/// and per-link `(i, j, amplitude, Re h[0,0], Im h[0,0])` at FFT bin 5
/// of 64.
#[allow(clippy::type_complexity)]
const TOPOLOGY_GOLDENS: [(
    u64,
    [(f64, f64, bool, f64); 3],
    [(usize, usize, f64, f64, f64); 3],
); 2] = [
    (
        5,
        [
            (14.5, 9.5, true, 338.17959327237634),
            (6.5, 9.0, true, -260.03732339636707),
            (7.5, 5.5, false, -2087.88676514294),
        ],
        [
            (0, 1, 5.140391118570725, 5.568574689451622, 4.74881931582464),
            (
                0,
                2,
                3.156651351979228,
                1.816189878754156,
                1.0280767500926133,
            ),
            (
                1,
                2,
                13.204467029147779,
                -4.084944823869176,
                5.575708661897842,
            ),
        ],
    ),
    (
        12,
        [
            (2.0, 5.0, false, -3409.6887487595022),
            (9.5, 9.5, true, 1668.066828459959),
            (12.0, 9.0, true, 1131.5829201228569),
        ],
        [
            (
                0,
                1,
                4.4193253474543415,
                -4.631793084687858,
                -1.264888614200337,
            ),
            (
                0,
                2,
                1.7768957403196983,
                -0.016689784963131376,
                1.937625806676704,
            ),
            (
                1,
                2,
                56.91218118892074,
                40.521969445650264,
                -27.702710632513742,
            ),
        ],
    ),
];

fn assert_topology_matches_goldens(topo: &nplus_medium::Topology, seed: u64, context: &str) {
    let (_, nodes, links) = TOPOLOGY_GOLDENS
        .iter()
        .find(|g| g.0 == seed)
        .expect("golden seed");
    for (i, &(x, y, nlos, offset)) in nodes.iter().enumerate() {
        assert_eq!(
            topo.placements[i].pos.x, x,
            "seed {seed} node {i} x ({context})"
        );
        assert_eq!(
            topo.placements[i].pos.y, y,
            "seed {seed} node {i} y ({context})"
        );
        assert_eq!(
            topo.placements[i].nlos, nlos,
            "seed {seed} node {i} nlos ({context})"
        );
        assert_eq!(
            topo.medium.node(topo.nodes[i]).oscillator_offset_hz,
            offset,
            "seed {seed} node {i} oscillator offset drifted ({context})"
        );
    }
    for &(i, j, amp, re, im) in links {
        let link = topo.medium.link(topo.nodes[i], topo.nodes[j]).unwrap();
        assert_eq!(
            link.amplitude(),
            amp,
            "seed {seed} link {i}->{j} amplitude drifted ({context})"
        );
        let h = link.channel_matrix(5, 64);
        assert_eq!(
            h[(0, 0)].re,
            re,
            "seed {seed} link {i}->{j} Re h00 drifted ({context})"
        );
        assert_eq!(
            h[(0, 0)].im,
            im,
            "seed {seed} link {i}->{j} Im h00 drifted ({context})"
        );
    }
}

/// The tentpole acceptance criterion at the topology level: both the
/// surviving `build_topology` wrapper and the explicit
/// [`SIGCOMM11_INDOOR`] environment path reproduce the pre-refactor
/// placements, oscillator offsets and channel responses bit-for-bit.
#[test]
fn sigcomm11_environment_reproduces_pre_refactor_topologies_bitwise() {
    let antennas = vec![1usize, 2, 3];
    let tb = Testbed::sigcomm11();
    for &(seed, _, _) in &TOPOLOGY_GOLDENS {
        let wrapper = build_topology(
            &tb,
            &TopologyConfig::new(antennas.clone()),
            10e6,
            seed,
            &mut StdRng::seed_from_u64(seed),
        );
        assert_topology_matches_goldens(&wrapper, seed, "build_topology wrapper");
        let mut rng = StdRng::seed_from_u64(seed);
        let env_path =
            build_environment_topology(&SIGCOMM11_INDOOR, &tb, &antennas, 10e6, seed, &mut rng)
                .expect("scenario fits the paper map");
        assert_topology_matches_goldens(&env_path, seed, "environment path");
    }
}

/// Golden sweep statistics recorded from the pre-environment engine:
/// scenario label, policy name, mean total Mb/s, 95% CI half-width,
/// mean DoF, mean per-flow Mb/s. Recorded with `SweepSpec` defaults
/// (auto-fitted map, rounds = 6, seeds = 0..4) — and verified at
/// recording time to equal the 2-thread run exactly.
#[allow(clippy::type_complexity)]
const SWEEP_GOLDENS: [(&str, &str, f64, f64, f64, &[f64]); 6] = [
    (
        "three_pairs",
        "nplus",
        16.678524763564244,
        6.407396405511994,
        2.1487826631200124,
        &[3.7386034480246613, 7.068513184325944, 5.871408131213638],
    ),
    (
        "three_pairs",
        "dot11n",
        8.730782165957367,
        3.57664505239947,
        1.3544340844876996,
        &[4.854138116209649, 2.014150717610272, 1.8624933321374453],
    ),
    (
        "three_pairs",
        "beamforming",
        8.730782165957367,
        3.57664505239947,
        1.3544340844876996,
        &[4.854138116209649, 2.014150717610272, 1.8624933321374453],
    ),
    (
        "ap_downlink",
        "nplus",
        10.055937769529839,
        3.523682051582399,
        1.0,
        &[10.055937769529839, 0.0, 0.0],
    ),
    (
        "ap_downlink",
        "dot11n",
        11.060547248468518,
        3.859218327175464,
        1.3859409675412937,
        &[6.397158632519172, 2.053180113843407, 2.6102085021059374],
    ),
    (
        "ap_downlink",
        "beamforming",
        10.806391744287485,
        3.6535080824839175,
        1.0,
        &[10.806391744287485, 0.0, 0.0],
    ),
];

fn golden_scenario(label: &str) -> Scenario {
    match label {
        "three_pairs" => Scenario::three_pairs(),
        "ap_downlink" => Scenario::ap_downlink(),
        other => panic!("unknown golden scenario {other}"),
    }
}

/// Selecting the paper's environment — explicitly by value, by registry
/// name, or not at all (the default) — reproduces the pre-environment
/// sweep statistics bit-for-bit, serially and at 2 worker threads.
#[test]
fn sigcomm11_sweep_statistics_survive_the_environment_redesign_bitwise() {
    for label in ["three_pairs", "ap_downlink"] {
        let expected: Vec<_> = SWEEP_GOLDENS.iter().filter(|g| g.0 == label).collect();
        let golden_spec = || {
            SweepSpec::new(golden_scenario(label))
                .rounds(6)
                .seed_count(4)
                .policy(NPlus)
                .policy(Dot11n)
                .policy(Beamforming)
        };
        let variants: [(&str, SweepSpec); 4] = [
            ("default env, serial", golden_spec()),
            (
                "explicit value, serial",
                golden_spec().environment(Sigcomm11Indoor::default()),
            ),
            (
                "registry name, serial",
                golden_spec()
                    .environment_named("sigcomm11")
                    .expect("builtin"),
            ),
            (
                "registry name, 2 threads",
                golden_spec()
                    .environment_named("sigcomm11")
                    .expect("builtin")
                    .threads(2),
            ),
        ];
        for (context, spec) in &variants {
            let stats = spec.run();
            assert_eq!(stats.len(), expected.len(), "{label} ({context})");
            for (s, g) in stats.iter().zip(&expected) {
                assert_eq!(s.policy, g.1, "{label} ({context})");
                assert_eq!(s.n_runs, 4, "{label} ({context})");
                assert_eq!(
                    s.mean_total_mbps, g.2,
                    "{label}/{} mean total drifted ({context})",
                    g.1
                );
                assert_eq!(
                    s.ci95_total_mbps, g.3,
                    "{label}/{} CI drifted ({context})",
                    g.1
                );
                assert_eq!(s.mean_dof, g.4, "{label}/{} DoF drifted ({context})", g.1);
                assert_eq!(
                    s.mean_per_flow_mbps.as_slice(),
                    g.5,
                    "{label}/{} per-flow drifted ({context})",
                    g.1
                );
            }
        }
    }
}

/// Every shipped environment is selectable by name and satisfies the
/// engine's determinism contract there: a sweep at 2 threads equals
/// the serial sweep exactly.
#[test]
fn every_environment_passes_parallel_determinism() {
    for name in BUILTIN_ENVIRONMENT_NAMES {
        let spec_with = |threads: usize| {
            SweepSpec::new(Scenario::three_pairs())
                .rounds(4)
                .environment_named(name)
                .expect("builtin environment")
                .seed_count(3)
                .policy(NPlus)
                .policy(Dot11n)
                .threads(threads)
                .run()
        };
        let base = spec_with(1);
        assert_eq!(base.len(), 2, "{name}");
        for s in &base {
            assert!(
                s.mean_total_mbps.is_finite() && s.mean_total_mbps > 0.0,
                "{name}/{} produced no goodput",
                s.policy
            );
        }
        let threaded = spec_with(2);
        for (a, b) in base.iter().zip(&threaded) {
            assert_eq!(a.policy, b.policy, "{name} (2 threads)");
            assert_eq!(
                a.mean_total_mbps, b.mean_total_mbps,
                "{name}/{} mean total (2 threads)",
                a.policy
            );
            assert_eq!(
                a.ci95_total_mbps, b.ci95_total_mbps,
                "{name}/{} CI (2 threads)",
                a.policy
            );
            assert_eq!(
                a.mean_per_flow_mbps, b.mean_per_flow_mbps,
                "{name}/{} per-flow (2 threads)",
                a.policy
            );
            assert_eq!(
                a.mean_dof, b.mean_dof,
                "{name}/{} DoF (2 threads)",
                a.policy
            );
            assert_eq!(
                a.mean_fairness.to_bits(),
                b.mean_fairness.to_bits(),
                "{name}/{} fairness (2 threads)",
                a.policy
            );
        }
    }
}

/// The environments genuinely differ: same scenario, same seeds, four
/// distinct worlds (no two environments share a mean total).
#[test]
fn shipped_environments_are_distinct_worlds() {
    let mut totals: Vec<(String, f64)> = Vec::new();
    for name in BUILTIN_ENVIRONMENT_NAMES {
        let stats = SweepSpec::new(Scenario::three_pairs())
            .rounds(8)
            .seed_count(3)
            .policy(NPlus)
            .environment_named(name)
            .expect("builtin environment")
            .run();
        totals.push((name.to_string(), stats[0].mean_total_mbps));
    }
    for i in 0..totals.len() {
        for j in (i + 1)..totals.len() {
            assert_ne!(
                totals[i].1, totals[j].1,
                "{} and {} drew identical worlds",
                totals[i].0, totals[j].0
            );
        }
    }
}

/// `build_scenario_in` (the testkit's environment-aware builder) draws
/// through the same hooks as the engine: in the paper's world it
/// reproduces `build_scenario` exactly, in every other world it builds
/// a placeable topology, and an outsized scenario surfaces
/// `TooManyNodes` instead of panicking.
#[test]
fn build_scenario_in_matches_build_scenario_and_reports_oversize() {
    use nplus_testkit::scenario::{build_scenario, build_scenario_in};

    for seed in [3u64, 17] {
        let classic = build_scenario(Scenario::three_pairs(), seed);
        let via_env = build_scenario_in(&SIGCOMM11_INDOOR, Scenario::three_pairs(), seed)
            .expect("three_pairs fits the indoor map");
        assert_eq!(
            classic.topology.placements.len(),
            via_env.topology.placements.len()
        );
        for (a, b) in classic
            .topology
            .placements
            .iter()
            .zip(&via_env.topology.placements)
        {
            assert_eq!(a.pos.x, b.pos.x, "seed {seed}: placement diverged");
            assert_eq!(a.pos.y, b.pos.y, "seed {seed}: placement diverged");
        }
    }

    for name in BUILTIN_ENVIRONMENT_NAMES {
        let env = environment_from_name(name).expect("builtin environment");
        let built = build_scenario_in(env, Scenario::ap_downlink(), 9)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(built.topology.nodes.len(), built.scenario.antennas.len());

        let oversized = Scenario {
            antennas: vec![1; env.capacity() + 1],
            flows: vec![],
        };
        let err = build_scenario_in(env, oversized, 9).unwrap_err();
        assert!(
            matches!(
                err,
                EnvironmentError::TooManyNodes { requested, .. } if requested == env.capacity() + 1
            ),
            "{name}: unexpected error {err}"
        );
    }
}
