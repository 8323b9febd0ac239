//! The paper's Fig. 4 scenario: different antenna counts at transmitter
//! and receiver.
//!
//! A single-antenna client c1 uploads to its 2-antenna AP (AP1) while a
//! 3-antenna AP (AP2) pushes traffic down to two 2-antenna clients. With
//! stock 802.11n, whoever wins the medium excludes everyone else. With
//! n+, AP2 joins c1's transmission and serves *both* clients at once —
//! its packets arrive at AP1 orthogonal to c1's signal and at each client
//! aligned with the interference it already sees (§2, Fig. 4).
//!
//! The whole Monte-Carlo comparison is one `SweepSpec`: the three
//! head-to-head protocols plus the omniscient-scheduler upper bound the
//! closed protocol enum could not express.
//!
//! Run with: `cargo run --release --example ap_downlink`

use nplus_sim::prelude::*;

fn main() {
    let scenario = Scenario::ap_downlink();
    let flow_names = ["c1->AP1", "AP2->c2", "AP2->c3"];

    println!("== Fig. 4 scenario: heterogeneous tx/rx antenna counts ==");
    println!("   c1 (1 ant) -> AP1 (2 ant);  AP2 (3 ant) -> c2, c3 (2 ant each)\n");

    // Average over several placements, as the paper's CDFs do (the
    // protocol gap on this scenario is small per placement; ~32 keeps
    // the means on the right side of the Monte-Carlo noise).
    let n_placements = 32;
    let stats = SweepSpec::new(scenario)
        .rounds(30)
        .seed_count(n_placements)
        .policy(Dot11n)
        .policy(Beamforming)
        .policy(NPlus)
        .policy(Oracle)
        .run();

    println!("averages over {n_placements} random placements:\n");
    println!(
        "{:<14}{:>10}{:>12}{:>12}{:>12}{:>10}",
        "policy", "total", flow_names[0], flow_names[1], flow_names[2], "fairness"
    );
    for s in &stats {
        println!(
            "{:<14}{:>8.1} M{:>10.2} M{:>10.2} M{:>10.2} M{:>10.2}",
            s.policy,
            s.mean_total_mbps,
            s.mean_per_flow_mbps[0],
            s.mean_per_flow_mbps[1],
            s.mean_per_flow_mbps[2],
            s.mean_fairness,
        );
    }

    let total = |name: &str| {
        stats
            .iter()
            .find(|s| s.policy == name)
            .map(|s| s.mean_total_mbps)
            .unwrap_or(f64::NAN)
    };
    println!(
        "\nn+ gain over 802.11n:      {:.2}x   (paper: 2.4x)",
        total("nplus") / total("dot11n")
    );
    println!(
        "n+ gain over beamforming:  {:.2}x   (paper: 1.8x)",
        total("nplus") / total("beamforming")
    );
    println!(
        "omniscient headroom:       {:.2}x over n+ (upper bound — perfect knowledge,\n                           exhaustive scheduling, zero contention)",
        total("oracle") / total("nplus")
    );
    let np = stats.iter().find(|s| s.policy == "nplus").unwrap();
    let dn = stats.iter().find(|s| s.policy == "dot11n").unwrap();
    println!(
        "AP2's clients gain         {:.1}x / {:.1}x over 802.11n (paper: 3.5-3.6x)",
        np.mean_per_flow_mbps[1] / dn.mean_per_flow_mbps[1].max(1e-9),
        np.mean_per_flow_mbps[2] / dn.mean_per_flow_mbps[2].max(1e-9)
    );
}
