//! Fig. 13 — Throughput gain with different numbers of transmit and
//! receive antennas (the AP scenario of Fig. 4).
//!
//! Reproduces the paper's §6.4 experiment: c1 (1 ant) → AP1 (2 ant)
//! uplink while AP2 (3 ant) → c2, c3 (2 ant each) downlink; CDFs of the
//! ratio of n+'s throughput to 802.11n's (panel a) and to multi-user
//! beamforming's (panel b), total and per link. Paper headlines:
//!   * total gain 2.4× over 802.11n, 1.8× over beamforming;
//!   * AP2's clients gain 3.5–3.6× / 2.5–2.6×;
//!   * c1 loses ~3.2%.
//!
//! Run with: `cargo run --release --bin fig13_hetero`

use nplus::sim::{Scenario, SweepSpec};
use nplus_bench::support::{mean, print_cdf, seed_runs};

fn main() {
    let n_placements: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    // No policies named: the spec runs the default comparison trio.
    let spec = SweepSpec::new(Scenario::ap_downlink())
        .rounds(25)
        .seed_count(n_placements)
        .run_seed_xor(0xBEEF);

    println!("== Fig. 13: AP scenario, {n_placements} random placements ==");
    // results[policy][flow or 3=total] -> per-placement Mb/s, policies
    // in the default order: 802.11n, beamforming, n+.
    let mut results = vec![vec![Vec::new(); 4]; 3];
    for runs in seed_runs(&spec) {
        for (p, r) in runs.iter().enumerate() {
            for f in 0..3 {
                results[p][f].push(r.per_flow_mbps[f]);
            }
            results[p][3].push(r.total_mbps);
        }
    }

    let labels = ["c1-AP1", "AP2-c2", "AP2-c3", "total"];
    for (panel, baseline) in [("a", 0usize), ("b", 1usize)] {
        let base_name = if baseline == 0 {
            "802.11n"
        } else {
            "beamforming"
        };
        println!("\n---- panel ({panel}): n+ / {base_name} gain CDFs ----");
        for item in [3usize, 0, 1, 2] {
            let mut gains: Vec<f64> = results[2][item]
                .iter()
                .zip(&results[baseline][item])
                .map(|(np, b)| np / b.max(1e-9))
                .collect();
            print_cdf(&format!("gain of {}", labels[item]), &mut gains);
        }
    }

    println!("\n== headline comparison (ratios of means) ==");
    let g = |item: usize, b: usize| mean(&results[2][item]) / mean(&results[b][item]).max(1e-9);
    println!("total  vs 802.11n:     {:.2}x   (paper: 2.4x)", g(3, 0));
    println!("total  vs beamforming: {:.2}x   (paper: 1.8x)", g(3, 1));
    println!("AP2-c2 vs 802.11n:     {:.2}x   (paper: 3.5x)", g(1, 0));
    println!("AP2-c3 vs 802.11n:     {:.2}x   (paper: 3.6x)", g(2, 0));
    println!("AP2-c2 vs beamforming: {:.2}x   (paper: 2.5x)", g(1, 1));
    println!(
        "c1-AP1 vs 802.11n:     {:.2}x   (paper: 0.97x — ~3.2% loss)",
        g(0, 0)
    );
}
