//! Fig. 11 — Performance of Nulling and Alignment.
//!
//! Reproduces both panels of the paper's Fig. 11: the SNR reduction of the
//! wanted stream caused by a concurrent (nulled or aligned) unwanted
//! stream, as a function of the unwanted stream's original SNR
//! (7.5–32.5 dB bins), grouped by the wanted stream's SNR (5–25 dB bins).
//!
//! Paper's findings to compare against:
//!   * reductions of 0.5–3 dB across the sweep;
//!   * below the L = 27 dB join threshold the average reduction is
//!     **0.8 dB for nulling** and **1.3 dB for alignment**;
//!   * alignment is worse than nulling because it composes two estimated
//!     quantities.
//!
//! Run with: `cargo run --release --bin fig11_nulling_alignment`

use nplus::precoder::{compute_precoders, residual_interference, OwnReceiver, ProtectedReceiver};
use nplus_bench::support::mean;
use nplus_channel::fading::DelayProfile;
use nplus_channel::impairments::HardwareProfile;
use nplus_channel::mimo::MimoLink;
use nplus_linalg::Subspace;
use nplus_phy::params::{occupied_subcarrier_indices, OfdmConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const UNWANTED_BINS: [(f64, f64); 5] = [
    (7.5, 12.5),
    (12.5, 17.5),
    (17.5, 22.5),
    (22.5, 27.5),
    (27.5, 32.5),
];
const WANTED_BINS: [(f64, f64); 4] = [(5.0, 10.0), (10.0, 15.0), (15.0, 20.0), (20.0, 25.0)];
const L_DB: f64 = 27.0;
const TRIALS_PER_CELL: usize = 60;

fn amplitude_for(snr_db: f64) -> f64 {
    10f64.powf(snr_db / 20.0)
}

/// One nulling trial (the paper's Fig. 2 measurement): returns the SNR
/// reduction (dB) of the wanted stream at rx1.
fn nulling_trial(wanted_snr_db: f64, unwanted_snr_db: f64, rng: &mut StdRng) -> f64 {
    let cfg = OfdmConfig::usrp2();
    let hw = HardwareProfile::default();
    let occ = occupied_subcarrier_indices();
    // Links: tx1 -> rx1 (wanted), tx2 -> rx1 (unwanted, to be nulled),
    // tx2 -> rx2 (tx2's own receiver).
    let l11 = MimoLink::sample(
        1,
        1,
        amplitude_for(wanted_snr_db),
        &DelayProfile::los(),
        rng,
    );
    let l21 = MimoLink::sample(
        2,
        1,
        amplitude_for(unwanted_snr_db),
        &DelayProfile::los(),
        rng,
    );
    let l22 = MimoLink::sample(2, 2, amplitude_for(25.0), &DelayProfile::nlos(), rng);

    let mut reductions = Vec::with_capacity(occ.len());
    for &k in &occ {
        let h21_true = l21.channel_matrix(k, cfg.fft_len);
        let h21_believed = hw.reciprocal_channel_knowledge(&h21_true, rng);
        let h22_believed =
            hw.reciprocal_channel_knowledge(&l22.channel_matrix(k, cfg.fft_len), rng);
        let Ok(p) = compute_precoders(
            2,
            &[ProtectedReceiver::nulling(h21_believed)],
            &[OwnReceiver {
                channel: h22_believed,
                n_streams: 1,
                unwanted: Subspace::zero(2),
            }],
        ) else {
            continue;
        };
        // Residual interference at rx1 against the true channel, plus the
        // transmit-EVM floor which no precoding can cancel.
        let mut resid = residual_interference(&h21_true, &Subspace::zero(1), &p.vectors[0]);
        let evm = hw.tx_evm_amplitude().powi(2);
        resid += h21_true.frobenius_norm().powi(2) / 2.0 * evm;
        let wanted_pow = l11.channel_matrix(k, cfg.fft_len).get(0, 0).norm_sqr();
        // SNR before: wanted/1; after: wanted/(1+resid).
        let reduction_db = 10.0 * (1.0 + resid).log10();
        let _ = wanted_pow;
        reductions.push(reduction_db);
    }
    mean(&reductions)
}

/// One alignment trial (the paper's Fig. 3 measurement at rx2): tx3
/// aligns with tx1's interference at the 2-antenna rx2.
fn alignment_trial(wanted_snr_db: f64, unwanted_snr_db: f64, rng: &mut StdRng) -> f64 {
    let cfg = OfdmConfig::usrp2();
    let hw = HardwareProfile::default();
    let occ = occupied_subcarrier_indices();
    // tx2 -> rx2 wanted; tx1 -> rx2 existing interference; tx3 (3 ant)
    // aligns at rx2 and nulls at rx1 (1 ant).
    let l_t2_r2 = MimoLink::sample(
        2,
        2,
        amplitude_for(wanted_snr_db),
        &DelayProfile::los(),
        rng,
    );
    let l_t1_r2 = MimoLink::sample(1, 2, amplitude_for(15.0), &DelayProfile::los(), rng);
    let l_t3_r2 = MimoLink::sample(
        3,
        2,
        amplitude_for(unwanted_snr_db),
        &DelayProfile::los(),
        rng,
    );
    let l_t3_r1 = MimoLink::sample(3, 1, amplitude_for(15.0), &DelayProfile::los(), rng);
    let l_t3_r3 = MimoLink::sample(3, 3, amplitude_for(25.0), &DelayProfile::nlos(), rng);

    let mut reductions = Vec::with_capacity(occ.len());
    for &k in &occ {
        // rx2's unwanted space: the direction tx1's interference arrives
        // from (estimated essentially exactly from tx1's preamble).
        let h_t1_r2 = l_t1_r2.channel_matrix(k, cfg.fft_len);
        let unwanted_rx2 = Subspace::span(2, &[h_t1_r2.col(0)]);

        let h_t3_r2_true = l_t3_r2.channel_matrix(k, cfg.fft_len);
        let h_t3_r2_believed = hw.reciprocal_channel_knowledge(&h_t3_r2_true, rng);
        let h_t3_r1_believed =
            hw.reciprocal_channel_knowledge(&l_t3_r1.channel_matrix(k, cfg.fft_len), rng);
        let h_t3_r3_believed =
            hw.reciprocal_channel_knowledge(&l_t3_r3.channel_matrix(k, cfg.fft_len), rng);

        let Ok(p) = compute_precoders(
            3,
            &[
                ProtectedReceiver::nulling(h_t3_r1_believed),
                ProtectedReceiver::aligning(h_t3_r2_believed, unwanted_rx2.clone()),
            ],
            &[OwnReceiver {
                channel: h_t3_r3_believed,
                n_streams: 1,
                unwanted: Subspace::zero(3),
            }],
        ) else {
            continue;
        };
        // The wanted stream at rx2 is decoded by projecting orthogonal to
        // the unwanted space; only tx3's leakage outside it hurts.
        let mut resid = residual_interference(&h_t3_r2_true, &unwanted_rx2, &p.vectors[0]);
        let evm = hw.tx_evm_amplitude().powi(2);
        resid += h_t3_r2_true.frobenius_norm().powi(2) / 3.0 * evm;
        let _ = &l_t2_r2;
        let reduction_db = 10.0 * (1.0 + resid).log10();
        reductions.push(reduction_db);
    }
    mean(&reductions)
}

fn run_panel(
    name: &str,
    trial: impl Fn(f64, f64, &mut StdRng) -> f64,
    rng: &mut StdRng,
) -> Vec<Vec<f64>> {
    println!("\n== Fig. 11({name}) SNR reduction of the wanted stream [dB] ==");
    print!("{:>22}", "unwanted SNR bin:");
    for (lo, hi) in UNWANTED_BINS {
        print!("{:>12}", format!("{lo}-{hi}"));
    }
    println!("{:>12}", "(> L: avoided)");
    let mut table = Vec::new();
    for (wlo, whi) in WANTED_BINS {
        let mut row = Vec::new();
        print!("{:>22}", format!("wanted {wlo}-{whi} dB"));
        for (ulo, uhi) in UNWANTED_BINS {
            let mut vals = Vec::with_capacity(TRIALS_PER_CELL);
            for _ in 0..TRIALS_PER_CELL {
                let w = wlo + rng.gen::<f64>() * (whi - wlo);
                let u = ulo + rng.gen::<f64>() * (uhi - ulo);
                vals.push(trial(w, u, rng));
            }
            let m = mean(&vals);
            row.push(m);
            let marker = if ulo >= L_DB { "*" } else { " " };
            print!("{:>11.2}{marker}", m);
        }
        println!();
        table.push(row);
    }
    println!("(*) bins above the L = {L_DB} dB join threshold are avoided by n+'s power control");
    table
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1101);
    let nulling = run_panel("a: nulling", nulling_trial, &mut rng);
    let alignment = run_panel("b: alignment", alignment_trial, &mut rng);

    // Paper headline numbers: average reduction below threshold.
    let below = |table: &Vec<Vec<f64>>| {
        let mut vals = Vec::new();
        for row in table {
            for (j, &v) in row.iter().enumerate() {
                if UNWANTED_BINS[j].0 < L_DB {
                    vals.push(v);
                }
            }
        }
        mean(&vals)
    };
    println!("\n== headline comparison ==");
    println!(
        "avg reduction below L: nulling   {:.2} dB   (paper: 0.8 dB)",
        below(&nulling)
    );
    println!(
        "avg reduction below L: alignment {:.2} dB   (paper: 1.3 dB)",
        below(&alignment)
    );
    let n = below(&nulling);
    let a = below(&alignment);
    println!(
        "alignment worse than nulling: {} (paper: yes — extra subspace estimate)",
        if a > n { "yes" } else { "NO (mismatch)" }
    );
}
