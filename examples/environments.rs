//! One scenario, five worlds: runs the paper's Fig. 3 comparison in
//! every registered propagation environment.
//!
//! The paper evaluates in a single indoor office (Fig. 10). Each world
//! here is one `Environment` value, and the same protocols sweep
//! unchanged across an outdoor free-space field, a rich-scattering
//! all-NLOS world, the indoor map on degraded radios (where the §4
//! power-control threshold honestly tracks the worse cancellation
//! depth) and a sparse multi-cell city — and the n+ > 802.11n
//! concurrency win survives in all of them.
//!
//! ```console
//! $ cargo run --release --example environments
//! ```

use nplus_sim::prelude::*;

fn main() {
    println!("Fig. 3 scenario (1/2/3-antenna pairs), 10 placements x 12 rounds:\n");
    println!(
        "{:>18} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "environment", "dot11n", "nplus", "oracle", "gain", "L (dB)"
    );
    for name in BUILTIN_ENVIRONMENT_NAMES {
        let env = environment_from_name(name).expect("builtin environment");
        let stats = SweepSpec::new(Scenario::three_pairs())
            .rounds(12)
            .seed_count(10)
            .policy(Dot11n)
            .policy(NPlus)
            .policy(Oracle)
            .environment_named(name)
            .expect("builtin environment")
            .run();
        println!(
            "{:>18} {:>10.2} {:>10.2} {:>10.2} {:>7.2}x {:>8.1}",
            name,
            stats[0].mean_total_mbps,
            stats[1].mean_total_mbps,
            stats[2].mean_total_mbps,
            stats[1].mean_total_mbps / stats[0].mean_total_mbps,
            env.join_power_l_db(),
        );
    }

    // A custom world is a parameter change — here, the indoor map with
    // a genuinely Gaussian oscillator draw. It runs like any other world
    // but has no cache key: only the registry's own worlds do.
    let custom = Environment {
        oscillator: OscillatorDraw::Gaussian { sigma_hz: 1_000.0 },
        ..SIGCOMM11_INDOOR
    };
    let stats = SweepSpec::new(Scenario::three_pairs())
        .rounds(12)
        .seed_count(10)
        .policy(Dot11n)
        .policy(NPlus)
        .environment(custom)
        .run();
    println!(
        "\ncustom (Gaussian oscillators): dot11n {:.2} Mb/s, nplus {:.2} Mb/s",
        stats[0].mean_total_mbps, stats[1].mean_total_mbps
    );

    // A scenario that outsizes the world reports cleanly.
    let oversized = Scenario {
        antennas: vec![1; 41],
        flows: vec![Flow { tx: 0, rx: 1 }],
    };
    match SweepSpec::new(oversized).try_run() {
        Err(e) => println!("oversized scenario: {e}"),
        Ok(_) => unreachable!("41 nodes cannot fit the 40-slot maps"),
    }
}
