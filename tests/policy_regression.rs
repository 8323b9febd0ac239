//! Seed-for-seed bitwise identity between the enum-era engine and the
//! `MacPolicy` redesign.
//!
//! Every golden number below was recorded by running the **pre-refactor
//! implementation** (the `Protocol` match arms hard-coded in
//! `SimEngine::run`, `SimConfig::power_control` as a bool) at the exact
//! seeds listed, printed with Rust's shortest-round-trip float
//! formatting — so parsing the literals reproduces the original `f64`
//! bits exactly and every comparison below is `==`, no tolerance
//! anywhere. If a change to the policy/engine layering perturbs even
//! the last mantissa bit of any protocol's results, this suite fails.

use nplus::observer::NullObserver;
use nplus::policy::{Beamforming, Dot11n, GreedyJoin, MacPolicy, NPlus};
use nplus::sim::{Scenario, SimConfig, SimEngine, SweepSpec, SweepStats};
use nplus_medium::topology::{build_topology, TopologyConfig};
use nplus_testkit::generator::ScenarioGenerator;
use nplus_testkit::scenario::build_scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Golden sweep statistics from the enum-era engine: scenario label,
/// policy name, mean total Mb/s, 95% CI half-width, mean DoF, mean
/// per-flow Mb/s. Recorded with a serial sweep (testbed=fitting,
/// rounds=6, seeds=0..4, protocols=[NPlus, Dot11n, Beamforming]) — and
/// verified at recording time to equal the same sweep at 2 threads
/// exactly.
#[allow(clippy::type_complexity)]
const SWEEP_GOLDENS: [(&str, &str, f64, f64, f64, &[f64]); 15] = [
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
    (
        "gen_pairs3",
        "nplus",
        13.74841949320337,
        9.082935193380289,
        1.619149993797759,
        &[2.9989815025598254, 7.482906080288387, 3.2665319103551584],
    ),
    (
        "gen_pairs3",
        "dot11n",
        7.980252844881979,
        5.342429083263083,
        1.233373190086971,
        &[3.895902029304552, 1.7935316534556522, 2.290819162121774],
    ),
    (
        "gen_pairs3",
        "beamforming",
        7.980252844881979,
        5.342429083263083,
        1.233373190086971,
        &[3.895902029304552, 1.7935316534556522, 2.290819162121774],
    ),
    (
        "gen_hidden2",
        "nplus",
        12.712597889314297,
        9.434947985681951,
        2.9970087436723425,
        &[8.268702940108533, 4.443894949205765],
    ),
    (
        "gen_hidden2",
        "dot11n",
        12.207399625995702,
        9.061073200196448,
        2.7729538048686986,
        &[6.075881353294216, 6.131518272701487],
    ),
    (
        "gen_hidden2",
        "beamforming",
        12.207399625995702,
        9.061073200196448,
        2.7729538048686986,
        &[6.075881353294216, 6.131518272701487],
    ),
    (
        "gen_asym2",
        "nplus",
        9.053726588944919,
        3.0277271188117814,
        1.0,
        &[4.9426401583128285, 4.111086430632091],
    ),
    (
        "gen_asym2",
        "dot11n",
        7.766149068099314,
        4.048493638725454,
        1.0,
        &[3.690095378623087, 4.076053689476227],
    ),
    (
        "gen_asym2",
        "beamforming",
        7.766149068099314,
        4.048493638725454,
        1.0,
        &[3.690095378623087, 4.076053689476227],
    ),
];

fn golden_scenario(label: &str) -> Scenario {
    match label {
        "three_pairs" => Scenario::three_pairs(),
        "ap_downlink" => Scenario::ap_downlink(),
        "gen_pairs3" => ScenarioGenerator::new(7).n_pairs(3),
        "gen_hidden2" => ScenarioGenerator::new(9).hidden_terminal(2),
        "gen_asym2" => ScenarioGenerator::new(5).asymmetric_antenna(2),
        other => panic!("unknown golden scenario {other}"),
    }
}

fn assert_stats_match_goldens(label: &str, stats: &[SweepStats], context: &str) {
    let expected: Vec<_> = SWEEP_GOLDENS.iter().filter(|g| g.0 == label).collect();
    assert_eq!(stats.len(), expected.len(), "{label} ({context})");
    for (s, g) in stats.iter().zip(expected) {
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

/// The policy redesign's acceptance criterion: `NPlus`, `Dot11n` and
/// `Beamforming` as `MacPolicy` implementations reproduce the enum-era
/// sweep statistics bit-for-bit at every recorded seed — serially and
/// at 2 worker threads.
#[test]
fn enum_era_results_survive_the_policy_redesign_bitwise() {
    for label in [
        "three_pairs",
        "ap_downlink",
        "gen_pairs3",
        "gen_hidden2",
        "gen_asym2",
    ] {
        let spec = SweepSpec::new(golden_scenario(label))
            .rounds(6)
            .seed_count(4)
            .policy(NPlus)
            .policy(Dot11n)
            .policy(Beamforming);
        assert_stats_match_goldens(label, &spec.run(), "serial");
        assert_stats_match_goldens(label, &spec.threads(2).run(), "threads 2");
    }
}

/// Golden `power_control = false` runs from the enum-era engine
/// (three_pairs, rounds = 10, sim seed `placement ^ 0x55`): placement
/// seed, total Mb/s, mean DoF, per-flow Mb/s. `GreedyJoin` must
/// reproduce each bit-for-bit — it is the same code path with the §4
/// branch decided by the policy instead of the removed config bool.
const GREEDY_GOLDENS: [(u64, f64, f64, &[f64]); 6] = [
    (
        0,
        16.885538039753257,
        1.8571428571428572,
        &[4.145305003427005, 12.065798492117889, 0.6744345442083619],
    ),
    (
        1,
        22.43207126948775,
        2.688584474885845,
        &[1.78173719376392, 2.818708240534521, 17.83162583518931],
    ),
    (
        2,
        13.614185797229451,
        1.6287015945330297,
        &[0.19414193339804142, 13.42004386383141, 0.0],
    ),
    (
        3,
        14.736655199200976,
        2.37874251497006,
        &[5.326822772167351, 0.8895794029519476, 8.520253024081677],
    ),
    (4, 9.673704414587332, 3.0, &[0.0, 0.0, 9.673704414587332]),
    (
        5,
        12.253835150963056,
        2.6070287539936103,
        &[1.9607843137254903, 2.9008939744924667, 7.392156862745098],
    ),
];

#[test]
fn greedy_join_reproduces_the_power_control_ablation_bitwise() {
    for (seed, total, dof, per_flow) in GREEDY_GOLDENS {
        let built = build_scenario(Scenario::three_pairs(), seed);
        let cfg = SimConfig {
            rounds: 10,
            ..SimConfig::default()
        };
        let r = built.run(&GreedyJoin, &cfg, seed ^ 0x55);
        assert_eq!(r.total_mbps, total, "seed {seed} total");
        assert_eq!(r.mean_dof, dof, "seed {seed} DoF");
        assert_eq!(r.per_flow_mbps.as_slice(), per_flow, "seed {seed} per-flow");
    }
}

/// Golden single-run results (three_pairs on placement 11, rounds = 8,
/// run RNG seed 5) straight through `SimEngine::run` — the one-run
/// entry point itself, not just the sweep wrappers.
#[test]
fn simulate_entry_point_matches_enum_era_bitwise() {
    let goldens: [(&dyn MacPolicy, f64, f64, &[f64]); 3] = [
        (
            &NPlus,
            17.30373001776199,
            2.339578454332553,
            &[3.580817051509769, 5.371225577264654, 8.351687388987566],
        ),
        (
            &Dot11n,
            13.64467005076142,
            2.1379310344827585,
            &[3.411167512690355, 3.411167512690355, 6.82233502538071],
        ),
        (
            &Beamforming,
            13.64467005076142,
            2.1379310344827585,
            &[3.411167512690355, 3.411167512690355, 6.82233502538071],
        ),
    ];
    let scenario = Scenario::three_pairs();
    let tb = nplus_channel::placement::Testbed::sigcomm11();
    let mut rng = StdRng::seed_from_u64(11);
    let topo = build_topology(
        &tb,
        &TopologyConfig::new(scenario.antennas.clone()),
        10e6,
        11,
        &mut rng,
    );
    let cfg = SimConfig {
        rounds: 8,
        ..SimConfig::default()
    };
    let engine = SimEngine::new(&topo, &scenario, &cfg);
    for (policy, total, dof, per_flow) in goldens {
        let r = engine.run(
            policy,
            &mut StdRng::seed_from_u64(5),
            &mut NullObserver,
            None,
        );
        let name = policy.name();
        assert_eq!(r.total_mbps, total, "{name} total");
        assert_eq!(r.mean_dof, dof, "{name} DoF");
        assert_eq!(r.per_flow_mbps.as_slice(), per_flow, "{name} per-flow");
    }
}
