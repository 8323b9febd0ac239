//! Fig. 12 — Throughput Comparison (n+ versus 802.11n).
//!
//! Reproduces the paper's §6.3 experiment: the Fig. 3 scenario (pairs
//! with 1, 2 and 3 antennas) over random testbed placements; CDFs of the
//! total network throughput and each pair's throughput under both
//! protocols, plus the headline gains:
//!   * total network throughput ≈ 2× 802.11n;
//!   * 2-antenna pair gains ≈ 1.5×, 3-antenna pair ≈ 3.5×;
//!   * single-antenna pair loses ≤ 3%.
//!
//! Run with: `cargo run --release --bin fig12_throughput`

use nplus::policy::{Dot11n, NPlus};
use nplus::sim::{Scenario, SweepSpec};
use nplus_bench::support::{mean, print_cdf, seed_runs};

fn main() {
    let n_placements: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    let spec = SweepSpec::new(Scenario::three_pairs())
        .rounds(25)
        .seed_count(n_placements)
        .run_seed_xor(0xC0FFEE)
        .policy(Dot11n)
        .policy(NPlus);

    println!("== Fig. 12: three pairs (1/2/3 antennas), {n_placements} random placements ==");
    let mut totals = [Vec::new(), Vec::new()]; // [dot11n, nplus]
    let mut flows = [
        [Vec::new(), Vec::new(), Vec::new()],
        [Vec::new(), Vec::new(), Vec::new()],
    ];

    for runs in seed_runs(&spec) {
        for (p, r) in runs.iter().enumerate() {
            totals[p].push(r.total_mbps);
            for f in 0..3 {
                flows[p][f].push(r.per_flow_mbps[f]);
            }
        }
    }

    print_cdf(
        "(a) total network throughput, 802.11n [Mb/s]",
        &mut totals[0].clone(),
    );
    print_cdf(
        "(a) total network throughput, n+ [Mb/s]",
        &mut totals[1].clone(),
    );
    let names = [
        "(b) tx1-rx1 (1 ant)",
        "(c) tx2-rx2 (2 ant)",
        "(d) tx3-rx3 (3 ant)",
    ];
    for f in 0..3 {
        print_cdf(
            &format!("{} 802.11n [Mb/s]", names[f]),
            &mut flows[0][f].clone(),
        );
        print_cdf(&format!("{} n+ [Mb/s]", names[f]), &mut flows[1][f].clone());
    }

    println!("\n== headline comparison (means over placements) ==");
    let tot_gain = mean(&totals[1]) / mean(&totals[0]);
    println!(
        "total:  802.11n {:>6.2} Mb/s | n+ {:>6.2} Mb/s | gain {:.2}x   (paper: ~2x)",
        mean(&totals[0]),
        mean(&totals[1]),
        tot_gain
    );
    let paper = ["(paper: ~0.97x)", "(paper: ~1.5x)", "(paper: ~3.5x)"];
    for f in 0..3 {
        let g = mean(&flows[1][f]) / mean(&flows[0][f]).max(1e-9);
        println!(
            "{}: 802.11n {:>6.2} | n+ {:>6.2} | gain {:.2}x   {}",
            names[f],
            mean(&flows[0][f]),
            mean(&flows[1][f]),
            g,
            paper[f]
        );
    }
}
