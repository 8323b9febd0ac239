//! Seed-for-seed bitwise identity between the enum-era engine and the
//! policy-layer redesign.
//!
//! Every golden number below was recorded by running the **pre-refactor
//! implementation** (the `Protocol` match arms hard-coded in the
//! engine's run loop, `power_control` as a config bool) at the exact
//! seeds listed, printed with Rust's shortest-round-trip float
//! formatting — so parsing the literals reproduces the original `f64`
//! bits exactly and every comparison below is `==`, no tolerance
//! anywhere. If a change to the policy/engine layering perturbs even
//! the last mantissa bit of any protocol's results, this suite fails.
//!
//! The oracle goldens at the end follow the same rule and were recorded
//! before the engine began memoizing the oracle's schedule; they also
//! pin each run's whole observer event stream through a digest. The
//! contended goldens after them pin the other four policies' streams on
//! the same inputs.

use nplus::observer::{
    ContentionKind, ContentionRecord, JoinRecord, RoundObserver, RoundRecord, RunMeta,
};
use nplus::policy::{Beamforming, Dot11n, GreedyJoin, NPlus, Oracle, Policy};
use nplus::scenario::{parse_spec, ScenarioGenerator};
use nplus::sim::{aggregate_results, Flow, Scenario, SweepSpec, SweepStats};
use nplus_channel::environment::environment_from_name;
use nplus_testkit::{seed_runs, Fnv};

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
/// `Beamforming` as policy-layer rules reproduce the enum-era
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
    let spec = SweepSpec::new(Scenario::three_pairs())
        .rounds(10)
        .seeds(GREEDY_GOLDENS.map(|g| g.0))
        .run_seed_xor(0x55)
        .policy(GreedyJoin);
    for ((seed, total, dof, per_flow), runs) in GREEDY_GOLDENS.into_iter().zip(seed_runs(&spec)) {
        let r = &runs[0];
        assert_eq!(r.total_mbps, total, "seed {seed} total");
        assert_eq!(r.mean_dof, dof, "seed {seed} DoF");
        assert_eq!(r.per_flow_mbps.as_slice(), per_flow, "seed {seed} per-flow");
    }
}

/// Golden single-run results (three_pairs on placement 11, rounds = 8,
/// run RNG seed 5) through a one-seed `SweepSpec` — the one engine
/// entry point itself, not just the aggregate statistics.
#[test]
fn simulate_entry_point_matches_enum_era_bitwise() {
    let goldens: [(Policy, f64, f64, &[f64]); 3] = [
        (
            NPlus,
            17.30373001776199,
            2.339578454332553,
            &[3.580817051509769, 5.371225577264654, 8.351687388987566],
        ),
        (
            Dot11n,
            13.64467005076142,
            2.1379310344827585,
            &[3.411167512690355, 3.411167512690355, 6.82233502538071],
        ),
        (
            Beamforming,
            13.64467005076142,
            2.1379310344827585,
            &[3.411167512690355, 3.411167512690355, 6.82233502538071],
        ),
    ];
    let spec = SweepSpec::new(Scenario::three_pairs())
        .policy(NPlus)
        .policy(Dot11n)
        .policy(Beamforming)
        .rounds(8)
        .seeds([11])
        .run_seed_xor(11 ^ 5);
    let runs = seed_runs(&spec).remove(0);
    for ((policy, total, dof, per_flow), r) in goldens.into_iter().zip(&runs) {
        let name = policy.name();
        assert_eq!(r.total_mbps, total, "{name} total");
        assert_eq!(r.mean_dof, dof, "{name} DoF");
        assert_eq!(r.per_flow_mbps.as_slice(), per_flow, "{name} per-flow");
    }
}

/// FNV-1a over a run's whole observer event stream: every field of
/// every event, every `f64` through its bits, each event behind a tag
/// byte so no two streams can fold alike by shifting a boundary. The
/// identity's canonical key is left out — it labels the run rather than
/// describing it, and `canonical_keys_are_pinned` pins it on its own.
#[derive(Default)]
struct StreamDigest(Fnv);

impl RoundObserver for StreamDigest {
    fn on_run_start(&mut self, meta: &RunMeta) {
        self.0.bytes(b"S");
        self.0.bytes(meta.policy.as_bytes());
        self.0.u64(meta.n_flows as u64);
        self.0.u64(meta.rounds as u64);
        self.0.f64(meta.bandwidth_hz);
        if let Some(id) = &meta.identity {
            self.0.u64(id.seed);
            self.0.bytes(id.environment.as_bytes());
        }
    }

    fn on_contention(&mut self, ev: &ContentionRecord) {
        self.0.bytes(b"C");
        self.0.u64(ev.round as u64);
        self.0.bytes(match ev.kind {
            ContentionKind::Primary => b"p",
            ContentionKind::Join => b"j",
            ContentionKind::Scheduled => b"s",
        });
        self.0.u64(ev.n_contenders as u64);
        self.0.u64(ev.winner as u64);
        self.0.u64(ev.slots);
    }

    fn on_join(&mut self, ev: &JoinRecord) {
        self.0.bytes(b"J");
        self.0.u64(ev.round as u64);
        self.0.u64(ev.tx as u64);
        self.0.u64(ev.n_streams as u64);
        self.0.bytes(&[u8::from(ev.accepted)]);
    }

    fn on_round_end(&mut self, ev: &RoundRecord) {
        self.0.bytes(b"R");
        self.0.u64(ev.round as u64);
        self.0.u64(ev.body_symbols as u64);
        self.0.u64(ev.duration_samples);
        for b in ev.flow_bits {
            self.0.f64(*b);
        }
        for s in ev.streams {
            self.0.u64(s.flow as u64);
            self.0.u64(s.tx as u64);
            self.0.u64(s.rate as u64);
            self.0.u64(s.active_symbols as u64);
        }
    }
}

/// The oracle golden inputs, one per line: scenario spec (the `sweep`
/// CLI grammar), environment, mobility, SINR grid, rounds and seed
/// count. Each input stresses one way a round's schedule state can
/// change: a steady state (`three_pairs`), an allocation that rotates
/// with the round (`ap_downlink`), queues that empty and refill (the
/// `load:` specs), channels that move (`waypoint`), a decimated SINR
/// grid, and a sparse multi-cell world.
const ORACLE_CASES: [&str; 8] = [
    "three_pairs sigcomm11 static full 12 3",
    "ap_downlink sigcomm11 static full 12 3",
    "load:poisson:0.5/three_pairs sigcomm11 static full 12 3",
    "load:bursty:3x2/ap_downlink sigcomm11 static full 12 3",
    "load:poisson:0.5/ap_downlink sigcomm11 static full 12 3",
    "three_pairs sigcomm11 waypoint:2x4 full 12 3",
    "random:7 sigcomm11 static decimated:4 12 3",
    "load:poisson:1.5/city:64 multi_cell static full 4 2",
];

/// Runs one [`ORACLE_CASES`] line under `policies` on `threads`
/// workers: per policy, in list order, its sweep statistics and one
/// [`StreamDigest`] per run in seed order.
fn run_case(case: &str, policies: &[Policy], threads: usize) -> Vec<(SweepStats, Vec<u64>)> {
    let f: Vec<&str> = case.split_whitespace().collect();
    let [spec, env, mobility, grid, rounds, seeds] = f[..] else {
        panic!("malformed golden case {case:?}");
    };
    let capacity = environment_from_name(env)
        .expect("builtin environment")
        .capacity();
    let parsed = parse_spec(spec, capacity).expect("golden spec parses");
    let mut sweep = SweepSpec::new(parsed.scenario)
        .environment_named(env)
        .expect("builtin environment")
        .rounds(rounds.parse().expect("golden rounds parse"))
        .mobility(mobility.parse().expect("golden mobility parses"))
        .sinr_grid(grid.parse().expect("golden grid parses"))
        .seed_count(seeds.parse().expect("golden seed count parses"))
        .threads(threads);
    for &policy in policies {
        sweep = sweep.policy(policy);
    }
    if let Some(traffic) = parsed.traffic {
        sweep = sweep.traffic(traffic);
    }
    let runs = sweep
        .try_run_observed(|_, _| StreamDigest::default())
        .expect("golden sweep runs");
    let results: Vec<_> = runs.iter().map(|(r, _)| r.clone()).collect();
    let n_flows = results[0].per_policy[0].per_flow_mbps.len();
    let stats = aggregate_results(n_flows, &sweep.policy_names(), &results);
    stats
        .into_iter()
        .enumerate()
        .map(|(p, s)| (s, runs.iter().map(|(_, obs)| obs[p].0 .0).collect()))
        .collect()
}

/// Oracle goldens, one per [`ORACLE_CASES`] entry in the same order:
/// mean total Mb/s, 95% CI half-width, mean DoF, mean Jain fairness,
/// mean per-flow Mb/s, and the per-run [`StreamDigest`]s in seed order.
/// Recorded, like the goldens above, with shortest-round-trip float
/// formatting before the engine memoized the oracle's schedule, so the
/// memo is proven to change no bit of any event. The bursty case never
/// drains a queue in 12 rounds (three arrivals per ON round outpace one
/// departure), so it pins the same stream as saturated `ap_downlink`;
/// the Poisson cases are the ones whose backlog moves the schedule.
#[allow(clippy::type_complexity)]
const ORACLE_GOLDENS: [(f64, f64, f64, f64, &[f64], &[u64]); 8] = [
    // three_pairs
    (
        26.95861649007429,
        21.4899796598746,
        2.0946666666666665,
        0.4503622071559204,
        &[4.579222993545245, 13.092436974789917, 9.286956521739132],
        &[0x15579b48ddd4b728, 0x7ca060c91b46aacf, 0x8f82b49b9936928e],
    ),
    // ap_downlink
    (
        14.342415896124336,
        1.4268705662295875,
        1.213768115942029,
        0.4415104208074258,
        &[11.064638118346558, 3.084967320261438, 0.19281045751633988],
        &[0xcfdfd7afe6a0fb9c, 0x4a28778217cc12a7, 0xc8a31cf5670072f2],
    ),
    // load:poisson:0.5/three_pairs
    (
        21.091472102700696,
        8.314052015023108,
        2.010190737990119,
        0.6315183909280536,
        &[5.818053472897744, 8.865135861476082, 6.4082827683268695],
        &[0x4eb7b4fd199da0f2, 0xb56c5a538cb54372, 0x6068917faa10abd1],
    ),
    // load:bursty:3x2/ap_downlink
    (
        14.342415896124336,
        1.4268705662295875,
        1.213768115942029,
        0.4415104208074258,
        &[11.064638118346558, 3.084967320261438, 0.19281045751633988],
        &[0xcfdfd7afe6a0fb9c, 0x4a28778217cc12a7, 0xc8a31cf5670072f2],
    ),
    // load:poisson:0.5/ap_downlink
    (
        15.645606672704423,
        3.290323305401395,
        1.4051417161763748,
        0.4253904501750969,
        &[10.232238629293592, 4.638498552430996, 0.7748694909798323],
        &[0x039bd5de9c51281a, 0xdda65cc47cff0590, 0xcf51fd1ef9ca49f0],
    ),
    // three_pairs waypoint:2x4
    (
        26.641446820650103,
        21.858629407819016,
        2.071333333333333,
        0.4761286638768299,
        &[5.233181074832234, 12.121309224078738, 9.286956521739132],
        &[0x15579b48ddd4b728, 0x7ca060c91b46aacf, 0x868837ec4cdec5a6],
    ),
    // random:7 decimated:4
    (
        15.43457671594122,
        14.790410171679103,
        2.0,
        0.5,
        &[8.846341421823576, 6.588235294117648],
        &[0x05e26d3a5ab48c9b, 0x84f7585a07baa2d0, 0xc9865e68f1e4ad15],
    ),
    // load:poisson:1.5/city:64 multi_cell
    (
        25.13410404624277,
        4.245126011560675,
        3.194531867139794,
        0.09162890883558114,
        &[
            0.0,
            0.0,
            1.7433330067600663,
            0.0,
            5.020789654158909,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            1.445086705202312,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            2.8328793964926025,
            4.77507592828451,
            0.0,
            3.3877926912902905,
            5.081689036935436,
            0.0,
            0.0,
            0.0,
            0.0,
            0.847457627118644,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
        ],
        &[0x6d4cb75409f1f1ee, 0xf39e3183ec20af36],
    ),
];

/// The oracle reproduces its recorded statistics and event streams bit
/// for bit on every [`ORACLE_CASES`] input, serially and at 2 threads.
#[test]
fn oracle_results_and_event_streams_are_pinned() {
    for (&label, golden) in ORACLE_CASES.iter().zip(&ORACLE_GOLDENS) {
        let &(total, ci, dof, fairness, per_flow, digests) = golden;
        for threads in [1, 2] {
            let (s, d) = run_case(label, &[Oracle], threads).remove(0);
            assert_eq!(s.policy, "oracle", "{label}");
            assert_eq!(s.n_runs, digests.len(), "{label}");
            assert_eq!(s.mean_total_mbps, total, "{label}: mean total drifted");
            assert_eq!(s.ci95_total_mbps, ci, "{label}: CI drifted");
            assert_eq!(s.mean_dof, dof, "{label}: DoF drifted");
            assert_eq!(s.mean_fairness, fairness, "{label}: fairness drifted");
            assert_eq!(
                s.mean_per_flow_mbps.as_slice(),
                per_flow,
                "{label}: per-flow drifted"
            );
            assert_eq!(
                d.as_slice(),
                digests,
                "{label}: event stream drifted ({threads} threads)"
            );
        }
    }
}

/// A hand-built scenario of 5–8-antenna nodes: 5→6, 6→7 and 8→8
/// pairs, plus an 8-antenna AP serving a 5- and a 7-antenna client. Its
/// receivers zero-force over every receive-space size from 5 to 8, and
/// under n+ it reaches accepted joins, refused joins and two-receiver
/// openings, so every planning and settlement path runs at these shapes.
fn wide_array_scenario() -> Scenario {
    Scenario {
        antennas: vec![5, 6, 6, 7, 8, 8, 8, 5, 7],
        flows: vec![
            Flow { tx: 0, rx: 1 },
            Flow { tx: 2, rx: 3 },
            Flow { tx: 4, rx: 5 },
            Flow { tx: 6, rx: 7 },
            Flow { tx: 6, rx: 8 },
        ],
    }
}

/// Wide-array goldens, one per policy in the sweep's order: mean
/// total Mb/s, mean DoF, and one [`StreamDigest`] folded over every run's
/// event stream in seed order. Recorded before per-bin kernels were
/// specialized by shape, so shapes beyond four antennas are pinned too.
const WIDE_ARRAY_GOLDENS: [(&str, f64, f64, u64); 5] = [
    (
        "nplus",
        13.320161136800882,
        5.816546184738956,
        0xf191_b5a7_537f_3344,
    ),
    (
        "dot11n",
        15.503738519990051,
        5.559960983557357,
        0x9e79_db26_a013_2242,
    ),
    (
        "beamforming",
        15.375039089486771,
        5.623686974789916,
        0x2134_8815_4386_ba75,
    ),
    (
        "greedy_join",
        13.320161136800882,
        5.816546184738956,
        0x5db4_70f1_f0a5_2ff5,
    ),
    (
        "oracle",
        26.68237582043594,
        7.333333333333333,
        0x75b9_29d9_d424_b8bc,
    ),
];

/// Every policy reproduces its recorded statistics and event streams on
/// [`wide_array_scenario`].
#[test]
fn wide_array_scenario_is_pinned_under_every_policy() {
    let mut sweep = SweepSpec::new(wide_array_scenario())
        .rounds(8)
        .seed_count(3);
    for policy in [NPlus, Dot11n, Beamforming, GreedyJoin, Oracle] {
        sweep = sweep.policy(policy);
    }
    let runs = sweep
        .try_run_observed(|_, _| StreamDigest::default())
        .expect("wide-array sweep runs");
    let results: Vec<_> = runs.iter().map(|(r, _)| r.clone()).collect();
    let stats = aggregate_results(5, &sweep.policy_names(), &results);
    let got: Vec<(&str, f64, f64, u64)> = stats
        .iter()
        .enumerate()
        .map(|(p, s)| {
            let mut folded = Fnv::new();
            for (_, observers) in &runs {
                folded.u64(observers[p].0 .0);
            }
            (s.policy.as_str(), s.mean_total_mbps, s.mean_dof, folded.0)
        })
        .collect();
    assert_eq!(got, WIDE_ARRAY_GOLDENS, "wide-array results drifted");
}

/// Decimated-grid goldens, one per (scenario, policy) in the sweep's
/// order: scenario, policy, mean total Mb/s, mean DoF, and the
/// [`StreamDigest`]s of every run folded in seed order, at
/// `decimated:4` in `sigcomm11` (12 rounds, 3 seeds). Every rate
/// decision and every settlement here runs on an interpolated SINR
/// track; `three_pairs` reaches joins, `ap_downlink` two-receiver
/// openings whose sibling streams leak residuals.
const DECIMATED_GOLDENS: [(&str, &str, f64, f64, u64); 10] = [
    (
        "three_pairs",
        "nplus",
        18.970228249431354,
        2.1653269585681314,
        0x946b_0b91_62a8_6c74,
    ),
    (
        "three_pairs",
        "dot11n",
        8.623627562785568,
        1.3594275397368356,
        0x85e5_3331_05e3_278a,
    ),
    (
        "three_pairs",
        "beamforming",
        8.623627562785568,
        1.3594275397368356,
        0x7e02_0db8_9b87_dcce,
    ),
    (
        "three_pairs",
        "greedy_join",
        18.970228249431354,
        2.1653269585681314,
        0xd727_6837_5b63_35d5,
    ),
    (
        "three_pairs",
        "oracle",
        26.95861649007429,
        2.0946666666666665,
        0x5c3d_656f_3300_6e3c,
    ),
    (
        "ap_downlink",
        "nplus",
        11.87678210864533,
        1.1121673003802282,
        0xdde8_0793_7bd2_2587,
    ),
    (
        "ap_downlink",
        "dot11n",
        12.010250052176326,
        1.306633187986381,
        0x4027_27ad_7e9b_eb1c,
    ),
    (
        "ap_downlink",
        "beamforming",
        11.075947916457473,
        1.0703637447823493,
        0x7f79_c2bd_e7ab_9fcf,
    ),
    (
        "ap_downlink",
        "greedy_join",
        11.87678210864533,
        1.1121673003802282,
        0xf139_afae_73fe_84a3,
    ),
    (
        "ap_downlink",
        "oracle",
        14.650895140664963,
        1.213768115942029,
        0xfeaf_9b69_5f92_5227,
    ),
];

/// Every policy reproduces its recorded statistics and event streams on
/// the decimated SINR grid.
#[test]
fn decimated_grid_is_pinned_under_every_policy() {
    let capacity = environment_from_name("sigcomm11")
        .expect("builtin environment")
        .capacity();
    let mut got = Vec::new();
    for label in ["three_pairs", "ap_downlink"] {
        let parsed = parse_spec(label, capacity).expect("golden spec parses");
        let n_flows = parsed.scenario.flows.len();
        let mut sweep = SweepSpec::new(parsed.scenario)
            .rounds(12)
            .sinr_grid("decimated:4".parse().expect("golden grid parses"))
            .seed_count(3);
        for policy in [NPlus, Dot11n, Beamforming, GreedyJoin, Oracle] {
            sweep = sweep.policy(policy);
        }
        let runs = sweep
            .try_run_observed(|_, _| StreamDigest::default())
            .expect("decimated sweep runs");
        let results: Vec<_> = runs.iter().map(|(r, _)| r.clone()).collect();
        let stats = aggregate_results(n_flows, &sweep.policy_names(), &results);
        for (p, s) in stats.iter().enumerate() {
            let mut folded = Fnv::new();
            for (_, observers) in &runs {
                folded.u64(observers[p].0 .0);
            }
            got.push((
                label,
                s.policy.clone(),
                s.mean_total_mbps,
                s.mean_dof,
                folded.0,
            ));
        }
    }
    let want: Vec<_> = DECIMATED_GOLDENS
        .iter()
        .map(|&(l, p, t, d, h)| (l, p.to_string(), t, d, h))
        .collect();
    assert_eq!(got, want, "decimated-grid results drifted");
}

/// FNV-1a over every field of one policy's sweep statistics, each
/// `f64` through its bits.
fn stats_digest(s: &SweepStats) -> u64 {
    let mut d = Fnv::new();
    d.bytes(s.policy.as_bytes());
    d.u64(s.n_runs as u64);
    let scalars = [
        s.mean_total_mbps,
        s.ci95_total_mbps,
        s.mean_dof,
        s.mean_fairness,
    ];
    for v in scalars.iter().chain(&s.mean_per_flow_mbps) {
        d.f64(*v);
    }
    d.0
}

/// The contended policies, in [`CONTENDED_GOLDENS`] row order.
const CONTENDED: [Policy; 4] = [NPlus, GreedyJoin, Dot11n, Beamforming];

/// Contended goldens, one block per [`ORACLE_CASES`] input in the same
/// order and one row per [`CONTENDED`] policy: the [`stats_digest`] of
/// its sweep statistics, and its per-run [`StreamDigest`]s in seed
/// order. Recorded before contended and scheduled rounds shared one
/// round pipeline. Across these inputs n+ and greedy join reach every
/// join outcome: accepted, plan failed, no airtime and empty
/// allocation.
#[allow(clippy::type_complexity)]
#[rustfmt::skip]
const CONTENDED_GOLDENS: [[(u64, &[u64]); 4]; 8] = [
    // three_pairs sigcomm11 static full 12 3
    [
        (0x9c7f0260f19b4fed, &[0x96d9a791052f1874, 0x863e5a0aebaf3bac, 0x10fe34834f9e0696]),
        (0xf3ce488d53a620e2, &[0x9e4f45f610d83801, 0xdf4611c570c38b31, 0x541cae865a61bf4f]),
        (0xc00a9f306fecbb64, &[0x94ad55a87868fcb7, 0x4fe835b1823726e9, 0xb7f46b89ddd2da19]),
        (0x50235e5e674d50a8, &[0x9e18eae0548ba7b9, 0xaa4743c00b01e7e3, 0x65f308743c1ae98b]),
    ],
    // ap_downlink sigcomm11 static full 12 3
    [
        (0x3d470e96b82fcc1d, &[0xad6909e2bea12e36, 0x76635018cb314f25, 0x2b622f5330cd2dbd]),
        (0xcf11d05001be0ba2, &[0x12a39e94f4f930df, 0x7fc7db52e66a9e9c, 0x86b7584844e17f20]),
        (0x308242291cf2afe8, &[0x0a9a33cf7fbb8618, 0x0323e02dde89772c, 0xc33ff498abe80319]),
        (0x717ef1acd0b86375, &[0x0dabde22af64b349, 0x892220737ae3b1d8, 0xf6d4328a9b0c34f5]),
    ],
    // load:poisson:0.5/three_pairs sigcomm11 static full 12 3
    [
        (0xe059214711265881, &[0x48c81eedfca4b9a8, 0xcc211fe094597974, 0x412446c573cae17c]),
        (0x32d02160e37056da, &[0x129e30a8352d888d, 0x2a82a379356df0d1, 0x2b33c24815f5ae71]),
        (0x4a2055c3a29d4d08, &[0x4c38fc84080eab11, 0xcf72fcc9888c67bc, 0x75656419a55f1523]),
        (0x9c7ce8b44257919c, &[0x3764f0b0ccea03a3, 0x43905d174189b26a, 0x6097616f06ad58ed]),
    ],
    // load:bursty:3x2/ap_downlink sigcomm11 static full 12 3
    [
        (0x930180d0ea719c0c, &[0x9d9dffb06623d7ea, 0x93432d46fbe10914, 0x24f23808aebc26b0]),
        (0x2cf2ec3337fa284b, &[0x287303f3e63aa5c7, 0x0da71ba786cf3dd1, 0x2c2de18e28b2bb55]),
        (0xe53e64e81dbbe8d0, &[0x3a83e5f34e92022b, 0xb407cef924c53194, 0x0ab81a9364eafbd7]),
        (0xbb2c424f868cd4d2, &[0x9e384f44b32fe89c, 0xe715127a8d16d00d, 0x281bbf9e4c9cdf0a]),
    ],
    // load:poisson:0.5/ap_downlink sigcomm11 static full 12 3
    [
        (0x44af7d1ff876c3d4, &[0x1bcb8ddfd478a82c, 0xd9fca4b84973bdf8, 0x097f745b97c7013d]),
        (0x2fb71bdfe5ca4b9a, &[0x8b4cfc0fa49e6c41, 0x01a1df3a5d41f3dd, 0xcabbe1260a14ba98]),
        (0x469f480a691cb4ed, &[0x4a131e04652ce7c0, 0xd21699c6f99ac299, 0xd145078a71a1ba23]),
        (0x03f6be03e3b1f347, &[0xb967f565c5833ccb, 0x98bf89406ceec1f9, 0x683ee31548cdb58c]),
    ],
    // three_pairs sigcomm11 waypoint:2x4 full 12 3
    [
        (0x30b2bd7e901dc5dd, &[0xe476a811e976e046, 0x1a536ff0a8daf460, 0x71a2299fcaf72bf5]),
        (0xe34de419db534b4a, &[0xe8cb17f0413a6a2f, 0xb0ab935b4f03de51, 0xa448b8bfac3c93ec]),
        (0x1b415e651d82cc23, &[0xe205f94c7a5b7c1f, 0xff0a0ba70bf3a0b9, 0x1be544fa8551faeb]),
        (0x8c7016aea151dfdf, &[0xa96db6d09034b7a1, 0xb80a1f034cbf6f53, 0x1b486c5711f4caf1]),
    ],
    // random:7 sigcomm11 static decimated:4 12 3
    [
        (0xfe05a91a1c2039fb, &[0x170cd2f2708979b5, 0x8d982a7fb5b2a5ea, 0x041a86aba8a09296]),
        (0xdc2a3a143d129f9c, &[0xb17736c7c59df28c, 0x752ac3d82428c953, 0x22d4c99c91faee9f]),
        (0xa89167e8617836d1, &[0x4b0c15866a1ab70d, 0x2027db47da43de23, 0x2ffb7aad1a50e53d]),
        (0x222a06bca0405fa5, &[0xf02e2824306f7bc3, 0x30e660e89703f855, 0xc78336b4d60c0cd3]),
    ],
    // load:poisson:1.5/city:64 multi_cell static full 4 2
    [
        (0x5595e080fb95ca28, &[0x03edca2dea7c04ed, 0x288e0298767c30c9]),
        (0x3fdbb619658c6a83, &[0x6eeea0236aa5880e, 0x93f1b608d6a54a3e]),
        (0xf11876ad61ba568e, &[0x753ff24bff78f9f9, 0x9188a3db1d88ce6c]),
        (0x1e87be46f8b64269, &[0xbacf1dd62c4a26db, 0x84bd84060eb47641]),
    ],
];

/// Every contended policy reproduces its recorded statistics and event
/// streams bit for bit on every [`ORACLE_CASES`] input, serially and at
/// 2 threads: queued traffic, mobility and a sparse world included.
#[test]
fn contended_results_and_event_streams_are_pinned() {
    for (&label, golden) in ORACLE_CASES.iter().zip(&CONTENDED_GOLDENS) {
        let want: Vec<(u64, Vec<u64>)> = golden.iter().map(|&(s, d)| (s, d.to_vec())).collect();
        for threads in [1, 2] {
            let got: Vec<(u64, Vec<u64>)> = run_case(label, &CONTENDED, threads)
                .iter()
                .map(|(s, d)| (stats_digest(s), d.clone()))
                .collect();
            assert_eq!(got, want, "{label}: results drifted ({threads} threads)");
        }
    }
}
