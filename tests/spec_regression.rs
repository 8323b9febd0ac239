//! The scenario grammar's output, pinned bit for bit.
//!
//! Every served result starts from `parse_spec`: the server's cache
//! keys, the `sweep` CLI and the load generator all resolve their specs
//! through it. This suite digests the antenna counts, the flows and the
//! traffic model it returns for every form of the grammar — the paper's
//! two fixed scenarios, each generated family at the ends of its size
//! range, the `random:` family draw at several environment capacities,
//! procedural cities and `load:` wrappers — so a change to the grammar,
//! the generator's families or their RNG draws fails here by name.

use nplus::scenario::parse_spec;
use nplus::sim::TrafficModel;
use nplus_testkit::Fnv;

/// Digest of everything `parse_spec(spec, capacity)` returns.
fn digest(spec: &str, capacity: usize) -> u64 {
    let parsed = parse_spec(spec, capacity).unwrap_or_else(|e| panic!("{spec}: {e}"));
    let mut h = Fnv::new();
    h.u64(parsed.scenario.antennas.len() as u64);
    for &a in &parsed.scenario.antennas {
        h.u64(a as u64);
    }
    h.u64(parsed.scenario.flows.len() as u64);
    for f in &parsed.scenario.flows {
        h.u64(f.tx as u64);
        h.u64(f.rx as u64);
    }
    match parsed.traffic {
        None => h.u64(0),
        Some(TrafficModel::Saturated) => h.u64(1),
        Some(TrafficModel::Poisson { mean_per_round }) => {
            h.u64(2);
            h.f64(mean_per_round);
        }
        Some(TrafficModel::Bursty {
            mean_on_rounds,
            mean_off_rounds,
        }) => {
            h.u64(3);
            h.f64(mean_on_rounds);
            h.f64(mean_off_rounds);
        }
    }
    h.0
}

/// `(spec, environment capacity, digest)`: the fixed scenarios, every
/// generated family at both ends of its size range, cities and `load:`
/// wrappers.
const GOLDENS: [(&str, usize, u64); 19] = [
    ("three_pairs", 40, 0x35c6_c2ce_6370_8841),
    ("ap_downlink", 40, 0xb549_bd9a_0fd9_36a5),
    ("pairs:1", 40, 0x5f19_704e_9701_94e7),
    ("pairs:8", 40, 0x25fd_85ea_a32d_2539),
    ("multi_ap:1x1", 40, 0x459c_ee5b_7cf7_3764),
    ("multi_ap:1x15", 40, 0x1d04_f131_144c_c2bd),
    ("multi_ap:8x1", 40, 0xdc50_f08c_df20_19be),
    ("hidden:2", 40, 0x6ff2_fca1_bd4a_e627),
    ("hidden:15", 40, 0x286f_6006_08fb_42bd),
    ("asym:1", 40, 0xb3a9_9924_d4a8_45e2),
    ("asym:8", 40, 0x586c_90cc_c752_8a9d),
    ("dense:4", 40, 0x3605_69c0_5b6c_d3e4),
    ("dense:32", 40, 0xf9ad_beeb_5a3a_2292),
    ("city:8", 1024, 0xa0ec_223e_1af4_928f),
    ("city:64", 1024, 0x29d7_ef42_6f3a_047d),
    ("city:1024", 1024, 0x483e_87f4_92e8_ce68),
    ("load:poisson:0.5/city:64", 1024, 0x6f86_1b03_5447_db8e),
    ("load:bursty:3x9/pairs:4", 40, 0xea01_a19d_6b76_cd41),
    ("load:saturated/random:3", 40, 0x5654_5b12_94a8_6e21),
];

/// `(capacity, digest over random:0 .. random:15)`. Seeds 9, 10 and 14
/// draw the dense family, which is what separates capacity 16 from 32;
/// above 32 the dense family is capped at `MAX_DENSE_NODES`, so the
/// draws (and digests) no longer move.
const RANDOM_GOLDENS: [(usize, u64); 5] = [
    (6, 0x6128_00c6_ec43_5d52),
    (16, 0x95fb_9ab1_8b25_548f),
    (32, 0xb55c_5fa6_f80f_4737),
    (40, 0xb55c_5fa6_f80f_4737),
    (1024, 0xb55c_5fa6_f80f_4737),
];

#[test]
fn every_spec_form_is_pinned() {
    for (spec, capacity, want) in GOLDENS {
        assert_eq!(
            digest(spec, capacity),
            want,
            "{spec} at capacity {capacity} parses to a different scenario"
        );
    }
}

#[test]
fn random_family_draws_are_pinned_per_capacity() {
    for (capacity, want) in RANDOM_GOLDENS {
        let mut h = Fnv::new();
        for seed in 0..16 {
            h.u64(digest(&format!("random:{seed}"), capacity));
        }
        assert_eq!(
            h.0, want,
            "random:0..16 at capacity {capacity} drew different scenarios"
        );
    }
}
