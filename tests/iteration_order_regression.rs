//! Iteration-order regression pins (DESIGN.md §11 satellite).
//!
//! The determinism contract bans *observable* unordered-map iteration,
//! and PR 9 reworks the two remaining sites — [`Medium::links`] and
//! `ChannelCache::links` — onto sorted key lists. These tests pin the
//! full sweep statistics of a city-scale sparse sweep and a
//! mobility-bearing sweep (the two paths that consume those iterators)
//! to digests captured *before* the rework, proving the sorted storage
//! is bit-for-bit identical to the historical HashMap order, not merely
//! self-consistent.
//!
//! The digest folds every statistic through `f64::to_bits`, so no
//! tolerance can hide a divergence and NaN fairness still pins.

use nplus::prelude::*;
use nplus::scenario::parse_spec;
use nplus_testkit::Fnv;

/// FNV-1a over the bit patterns of every field of every stat.
fn digest(stats: &[SweepStats]) -> u64 {
    let mut h = Fnv::new();
    for s in stats {
        h.bytes(s.policy.as_bytes());
        h.u64(s.n_runs as u64);
        h.f64(s.mean_total_mbps);
        h.f64(s.ci95_total_mbps);
        h.f64(s.mean_dof);
        h.f64(s.mean_fairness);
        for &f in &s.mean_per_flow_mbps {
            h.f64(f);
        }
    }
    h.0
}

/// 256-node procedural city on the sparse multi-cell world: the sweep
/// builds a sparse `Medium`, walks `Medium::links()` into the
/// `ChannelCache`, and runs both protocols over it. Digest captured on
/// the pre-rework HashMap storage.
#[test]
fn city_sweep_statistics_are_pinned() {
    let multi_cell = environment_from_name("multi_cell").expect("builtin environment");
    let city = parse_spec("city:256", multi_cell.capacity())
        .expect("city:256 fits the multi_cell world")
        .scenario;
    let stats = SweepSpec::new(city)
        .rounds(2)
        .seed_count(2)
        .policy(Dot11n)
        .policy(NPlus)
        .environment_named("multi_cell")
        .unwrap()
        .threads(1)
        .run();
    assert_eq!(
        digest(&stats),
        0x22de_8138_c9a2_bcd8,
        "city sweep statistics changed bit-for-bit (digest {:#x})",
        digest(&stats)
    );
}

/// Waypoint mobility consumes `ChannelCache::links()` every epoch to
/// find the moved node's incident links and rescale their tables.
/// Digest captured on the pre-rework HashMap key order.
#[test]
fn mobility_sweep_statistics_are_pinned() {
    let stats = SweepSpec::new(Scenario::three_pairs())
        .rounds(8)
        .seed_count(3)
        .policy(Dot11n)
        .policy(NPlus)
        .mobility(MobilityModel::Waypoint {
            step_m: 2.0,
            epoch_rounds: 2,
        })
        .threads(1)
        .run();
    assert_eq!(
        digest(&stats),
        0xcd9c_fb43_2930_7244,
        "mobility sweep statistics changed bit-for-bit (digest {:#x})",
        digest(&stats)
    );
}
