//! Ablations of n+'s design choices (DESIGN.md §5).
//!
//! 1. **Nulling-only versus nulling + alignment** for the third joiner —
//!    §2's analytical argument quantified: with nulling alone, the
//!    3-antenna pair can never join two ongoing transmissions.
//! 2. **Join-power threshold L sweep** — how the cancellation-depth
//!    budget trades the protected (single-antenna) flow's throughput
//!    against total network throughput.
//! 3. **Join power control on/off** — what the protected flow loses when
//!    joiners ignore the L rule entirely.
//!
//! Run with: `cargo run --release --bin ablate`

use nplus::policy::{GreedyJoin, NPlus, Policy};
use nplus::precoder::{compute_precoders, OwnReceiver, PrecoderError, ProtectedReceiver};
use nplus::sim::{Scenario, SweepSpec};
use nplus_bench::support::{mean, seed_runs};
use nplus_channel::fading::DelayProfile;
use nplus_channel::mimo::MimoLink;
use nplus_linalg::Subspace;
use nplus_phy::params::OfdmConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Ablation 1: how often can a 3-antenna node join two ongoing
/// transmissions (one 1-antenna, one 2-antenna receiver) with
/// nulling-only versus nulling+alignment?
fn ablate_alignment(rng: &mut StdRng) {
    println!("== ablation 1: nulling-only vs nulling+alignment for the third joiner ==\n");
    let cfg = OfdmConfig::usrp2();
    let trials = 300;
    let mut null_only_ok = 0usize;
    let mut with_align_ok = 0usize;
    for _ in 0..trials {
        let h_r1 =
            MimoLink::sample(3, 1, 8.0, &DelayProfile::los(), rng).channel_matrix(7, cfg.fft_len);
        let h_r2 =
            MimoLink::sample(3, 2, 8.0, &DelayProfile::los(), rng).channel_matrix(7, cfg.fft_len);
        let h_r3 =
            MimoLink::sample(3, 3, 12.0, &DelayProfile::nlos(), rng).channel_matrix(7, cfg.fft_len);
        let interference_dir = MimoLink::sample(1, 2, 5.0, &DelayProfile::los(), rng)
            .channel_matrix(7, cfg.fft_len)
            .col(0);
        let own = [OwnReceiver {
            channel: h_r3.clone(),
            n_streams: 1,
            unwanted: Subspace::zero(3),
        }];
        // Nulling-only: zero out at all three receive antennas.
        let r = compute_precoders(
            3,
            &[
                ProtectedReceiver::nulling(h_r1.clone()),
                ProtectedReceiver::nulling(h_r2.clone()),
            ],
            &own,
        );
        if r.is_ok() {
            null_only_ok += 1;
        } else {
            assert!(matches!(r, Err(PrecoderError::NoDegreesOfFreedom)));
        }
        // Nulling at rx1 + alignment at rx2.
        let u2 = Subspace::span(2, &[interference_dir]);
        if compute_precoders(
            3,
            &[
                ProtectedReceiver::nulling(h_r1),
                ProtectedReceiver::aligning(h_r2, u2),
            ],
            &own,
        )
        .is_ok()
        {
            with_align_ok += 1;
        }
    }
    println!("joins possible over {trials} random channel draws:");
    println!(
        "  nulling-only:        {:>4}   ({:.0}%) — §2: zero by construction",
        null_only_ok,
        100.0 * null_only_ok as f64 / trials as f64
    );
    println!(
        "  nulling + alignment: {:>4}   ({:.0}%)\n",
        with_align_ok,
        100.0 * with_align_ok as f64 / trials as f64
    );
}

/// Ablations 2 & 3: L sweep and power control on/off, on the Fig. 3
/// scenario.
fn ablate_threshold() {
    println!("== ablation 2/3: join-power threshold L ==\n");
    let placements = 12u64;
    println!(
        "{:>18} {:>14} {:>16} {:>14}",
        "L [dB]", "total [Mb/s]", "1-ant flow [Mb/s]", "mean DoF"
    );
    // Turning power control off is a *policy* ablation now: `GreedyJoin`
    // is n+ with the §4 decision bypassed at the policy layer (the old
    // `power_control = false` config knob, bit-for-bit).
    let rows: [(&str, f64, Policy); 5] = [
        ("15", 15.0, NPlus),
        ("21", 21.0, NPlus),
        ("27 (paper)", 27.0, NPlus),
        ("33", 33.0, NPlus),
        ("off (greedy_join)", 27.0, GreedyJoin),
    ];
    for (label, l_db, policy) in rows {
        let spec = SweepSpec::new(Scenario::three_pairs())
            .rounds(20)
            .join_power_l_db(l_db)
            .seed_count(placements)
            .run_seed_xor(0xA11)
            .policy(policy);
        let mut totals = Vec::new();
        let mut flow0 = Vec::new();
        let mut dof = Vec::new();
        for runs in seed_runs(&spec) {
            let r = &runs[0];
            totals.push(r.total_mbps);
            flow0.push(r.per_flow_mbps[0]);
            dof.push(r.mean_dof);
        }
        println!(
            "{label:>18} {:>14.2} {:>16.2} {:>14.2}",
            mean(&totals),
            mean(&flow0),
            mean(&dof)
        );
    }
    println!("\n(lower L throttles joiners harder; 'off' lets joiners interfere at full power)");
}

fn main() {
    let mut rng = StdRng::seed_from_u64(77);
    ablate_alignment(&mut rng);
    ablate_threshold();
}
