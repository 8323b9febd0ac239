//! Seed-for-seed bitwise identity of every propagation world across
//! redesigns of the environment layer.
//!
//! The paper-world goldens below were recorded by running the
//! **pre-environment implementation** (the hard-wired testbed draw,
//! path loss, LOS/NLOS profiles and uniform oscillator draw of the old
//! topology builder) at the exact seeds listed, printed with Rust's
//! shortest-round-trip float formatting — so parsing the literals
//! reproduces the original `f64` bits exactly and every comparison
//! below is `==`, no tolerance anywhere. The per-world goldens pin all
//! five built-in worlds the same way, through digests of their
//! topology draws and sweep statistics. If routing a world through its
//! `Environment` value perturbs even the last mantissa bit of a
//! placement, oscillator offset, channel tap or sweep statistic, this
//! suite fails.

use nplus::prelude::*;
use nplus_medium::topology::build_environment_topology;
use nplus_testkit::Fnv;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Golden topology draws from the pre-environment builder (testbed
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
            h.get(0, 0).re,
            re,
            "seed {seed} link {i}->{j} Re h00 drifted ({context})"
        );
        assert_eq!(
            h.get(0, 0).im,
            im,
            "seed {seed} link {i}->{j} Im h00 drifted ({context})"
        );
    }
}

/// The [`SIGCOMM11_INDOOR`] environment reproduces the pre-environment
/// placements, oscillator offsets and channel responses bit-for-bit.
#[test]
fn sigcomm11_environment_reproduces_pre_refactor_topologies_bitwise() {
    let antennas = vec![1usize, 2, 3];
    let tb = SIGCOMM11_INDOOR
        .testbed(antennas.len())
        .expect("fits the paper map");
    for &(seed, _, _) in &TOPOLOGY_GOLDENS {
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
                golden_spec().environment(SIGCOMM11_INDOOR),
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

/// The environments genuinely differ: same scenario, same seeds, five
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

/// Every world places a scenario on its smallest fitting map
/// (`Environment::testbed`) through the engine's topology builder, and
/// an outsized scenario surfaces `TooManyNodes` instead of panicking.
#[test]
fn every_world_places_ap_downlink_on_its_testbed_and_reports_oversize() {
    for name in BUILTIN_ENVIRONMENT_NAMES {
        let env = environment_from_name(name).expect("builtin environment");
        let antennas = Scenario::ap_downlink().antennas;
        let topology = env
            .testbed(antennas.len())
            .and_then(|tb| {
                let mut rng = StdRng::seed_from_u64(9);
                build_environment_topology(env, &tb, &antennas, 10e6, 9, &mut rng)
            })
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(topology.nodes.len(), antennas.len());

        let err = env.testbed(env.capacity() + 1).unwrap_err();
        assert!(
            matches!(
                err,
                EnvironmentError::TooManyNodes { requested, .. } if requested == env.capacity() + 1
            ),
            "{name}: unexpected error {err}"
        );
    }
}

/// Per built-in world, `three_pairs` drawn at seeds 5 and 12 on the
/// world's own map: `(seed, links wired, digest)`. The digest folds each
/// node's placement and oscillator-offset bits, each wired link's
/// endpoints, amplitude and first `(0, 0)` tap, and the next draw of the
/// placement RNG, so a change in the count or order of draws shows too.
#[allow(clippy::type_complexity)]
const WORLD_TOPOLOGY_GOLDENS: [(&str, [(u64, usize, u64); 2]); 5] = [
    (
        "sigcomm11",
        [
            (5, 15, 0x80cd_3002_736d_935b),
            (12, 15, 0x7e92_19f6_bbba_40a9),
        ],
    ),
    (
        "outdoor",
        [
            (5, 15, 0xbe21_2087_7443_5c4c),
            (12, 15, 0xfbae_f1b5_e39a_fc0a),
        ],
    ),
    (
        "rich_scatter",
        [
            (5, 15, 0xd731_8fbc_ecf9_069d),
            (12, 15, 0xcec3_3279_2e5b_bd54),
        ],
    ),
    (
        "degraded_hardware",
        [
            (5, 15, 0x80cd_3002_736d_935b),
            (12, 15, 0x7e92_19f6_bbba_40a9),
        ],
    ),
    (
        "multi_cell",
        [
            (5, 14, 0xbffa_8f21_3cf7_28cb),
            (12, 15, 0xe94c_7268_e297_7d48),
        ],
    ),
];

fn world_topology(name: &str, seed: u64) -> (u64, usize, u64) {
    let env = environment_from_name(name).expect("builtin environment");
    let antennas = Scenario::three_pairs().antennas;
    let testbed = env.testbed(antennas.len()).expect("three_pairs fits");
    let mut rng = StdRng::seed_from_u64(seed);
    let topo = build_environment_topology(env, &testbed, &antennas, 10e6, seed, &mut rng)
        .expect("three_pairs fits");
    let mut digest = Fnv::new();
    for (i, place) in topo.placements.iter().enumerate() {
        digest.f64(place.pos.x);
        digest.f64(place.pos.y);
        digest.u64(u64::from(place.nlos));
        digest.f64(topo.medium.node(topo.nodes[i]).oscillator_offset_hz);
    }
    let mut links = 0;
    for i in 0..antennas.len() {
        for j in (i + 1)..antennas.len() {
            if let Some(link) = topo.medium.link(topo.nodes[i], topo.nodes[j]) {
                links += 1;
                let tap = link.pair(0, 0).taps[0];
                for word in [i as u64, j as u64] {
                    digest.u64(word);
                }
                for x in [link.amplitude(), tap.re, tap.im] {
                    digest.f64(x);
                }
            }
        }
    }
    digest.u64(rng.next_u64());
    (seed, links, digest.0)
}

/// Every built-in world draws exactly the topologies it drew when these
/// goldens were recorded.
#[test]
fn every_world_reproduces_its_topology_draws() {
    let got: Vec<_> = WORLD_TOPOLOGY_GOLDENS
        .iter()
        .map(|&(name, goldens)| (name, goldens.map(|(seed, _, _)| world_topology(name, seed))))
        .collect();
    assert_eq!(got, WORLD_TOPOLOGY_GOLDENS, "world topology draws drifted");
}

/// Per built-in world, `three_pairs` swept over 6 rounds and seeds
/// `0..3` under every registered policy: the mean totals in registry
/// order, and a digest over every statistic of every policy (run
/// count, mean total, CI, DoF, fairness and per-flow means).
const WORLD_SWEEP_GOLDENS: [(&str, [f64; 5], u64); 5] = [
    (
        "sigcomm11",
        [
            8.552999827581756,
            8.552999827581756,
            17.819822657018154,
            17.819822657018154,
            26.95861649007429,
        ],
        0xe001_e2ab_c96a_0f9a,
    ),
    (
        "outdoor",
        [
            8.495078588156796,
            8.495078588156796,
            15.055427442689151,
            13.75995070489782,
            23.835956733857667,
        ],
        0x8385_b164_7852_b2a0,
    ),
    (
        "rich_scatter",
        [
            9.151673427956581,
            9.151673427956581,
            13.39456214809018,
            13.39456214809018,
            16.842709006430965,
        ],
        0x568d_2275_997f_09f1,
    ),
    (
        "degraded_hardware",
        [
            8.552999827581756,
            8.552999827581756,
            17.2717376479558,
            17.568176277079377,
            26.95861649007429,
        ],
        0xb3bd_317b_41a3_2bf4,
    ),
    (
        "multi_cell",
        [
            14.385526640281801,
            14.385526640281801,
            21.229078909558144,
            21.229078909558144,
            26.047962853389134,
        ],
        0xb607_e3d8_b003_5e3d,
    ),
];

fn world_sweep(name: &str) -> (&str, [f64; 5], u64) {
    let mut spec = SweepSpec::new(Scenario::three_pairs())
        .environment_named(name)
        .expect("builtin environment")
        .rounds(6)
        .seed_count(3);
    for policy in BUILTIN_POLICY_NAMES {
        spec = spec.policy_named(policy).expect("builtin policy");
    }
    let stats = spec.run();
    let mut totals = [0.0; 5];
    let mut digest = Fnv::new();
    for (total, s) in totals.iter_mut().zip(&stats) {
        *total = s.mean_total_mbps;
        digest.u64(s.n_runs as u64);
        for x in [
            s.mean_total_mbps,
            s.ci95_total_mbps,
            s.mean_dof,
            s.mean_fairness,
        ] {
            digest.f64(x);
        }
        for &x in &s.mean_per_flow_mbps {
            digest.f64(x);
        }
    }
    (name, totals, digest.0)
}

/// Every built-in world reproduces its recorded sweep statistics, bit
/// for bit, under all five policies.
#[test]
fn every_world_reproduces_its_sweep_statistics() {
    let got: Vec<_> = WORLD_SWEEP_GOLDENS
        .iter()
        .map(|&(name, _, _)| world_sweep(name))
        .collect();
    assert_eq!(got, WORLD_SWEEP_GOLDENS, "world sweep statistics drifted");
}

/// A custom world cannot reuse a built-in's cache key. The indoor world
/// with Gaussian oscillators (the `environments` example's custom
/// world) keeps the name `"sigcomm11"` but draws different topologies,
/// so `canonical()` refuses it while `run()` still runs it. A value
/// equal to [`SIGCOMM11_INDOOR`] keys exactly like the registry name.
#[test]
fn custom_world_cannot_reuse_a_builtin_key() {
    let spec = || {
        SweepSpec::new(Scenario::three_pairs())
            .rounds(12)
            .seed_count(10)
            .policy(NPlus)
    };
    let gaussian = Environment {
        oscillator: OscillatorDraw::Gaussian { sigma_hz: 1_000.0 },
        ..SIGCOMM11_INDOOR
    };
    let custom = spec().environment(gaussian);
    assert!(
        matches!(custom.canonical(), Err(SweepError::NotCanonical(_))),
        "a custom world took a canonical key"
    );
    let stock = spec().run();
    let ran = custom.run();
    assert_ne!(ran[0].mean_total_mbps, stock[0].mean_total_mbps);

    let by_name = spec()
        .environment_named("sigcomm11")
        .expect("builtin")
        .canonical()
        .expect("registry world is canonical");
    let by_value = spec()
        .environment(SIGCOMM11_INDOOR)
        .canonical()
        .expect("registry world is canonical");
    assert_eq!(by_value.key(), by_name.key());
    assert_eq!(by_value.key_hex(), "3bd2494333043a937fbed63a5dffe7cc");
}
