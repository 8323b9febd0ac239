//! Effective SNR (ESNR) and bitrate selection.
//!
//! Implements the metric of Halperin et al., *"Predictable 802.11 Packet
//! Delivery from Wireless Channel Measurements"* (SIGCOMM 2010), which the
//! paper adopts for per-packet bitrate selection (§3.4):
//!
//! 1. measure the post-projection SNR on every OFDM subcarrier;
//! 2. for a candidate modulation, map each subcarrier SNR to a bit error
//!    rate through the AWGN BER curve;
//! 3. average the BERs across subcarriers;
//! 4. invert the BER curve: the *effective SNR* is the flat-channel SNR
//!    that would produce the same average BER.
//!
//! Unlike average SNR, ESNR correctly penalizes frequency-selective fades:
//! one deeply faded subcarrier dominates the average BER.

use crate::modulation::Modulation;
use crate::rates::{RateIndex, RATE_TABLE};

/// Complementary error function, Abramowitz & Stegun 7.1.26-style rational
/// approximation refined for double precision (max relative error < 1.2e-7,
/// far below anything BER mapping can notice).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.5 * x);
    // Numerical Recipes' erfc approximation.

    t * (-x * x - 1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
        .exp()
}

/// Gaussian tail function `Q(x) = 0.5 * erfc(x / sqrt(2))`.
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Uncoded bit error rate of the modulation on an AWGN channel at the
/// given *symbol* SNR (linear, Es/N0). Standard Gray-coded expressions.
pub fn ber_awgn(m: Modulation, snr_linear: f64) -> f64 {
    let snr = snr_linear.max(0.0);
    let ber = match m {
        // BPSK: Q(sqrt(2 Eb/N0)); Es == Eb.
        Modulation::Bpsk => q_func((2.0 * snr).sqrt()),
        // Gray QPSK per-bit: Q(sqrt(Es/N0)).
        Modulation::Qpsk => q_func(snr.sqrt()),
        // Square M-QAM per-bit approximations (standard):
        // BER ≈ 4/log2(M) * (1 - 1/sqrt(M)) * Q( sqrt(3 Es / ((M-1) N0)) ).
        // For M=16 the leading 4/log2(M) coefficient is exactly 1.
        Modulation::Qam16 => (1.0 - 0.25) * q_func((3.0 * snr / 15.0).sqrt()),
        Modulation::Qam64 => (4.0 / 6.0) * (1.0 - 1.0 / 8.0) * q_func((3.0 * snr / 63.0).sqrt()),
    };
    ber.clamp(0.0, 0.5)
}

/// Inverts [`ber_awgn`] by bisection: the SNR (linear) at which the
/// modulation reaches `target_ber`. BER is monotone decreasing in SNR, so
/// bisection over a wide bracket is robust.
pub fn snr_for_ber(m: Modulation, target_ber: f64) -> f64 {
    let target = target_ber.clamp(1e-12, 0.5);
    let mut lo = 1e-6; // -60 dB
    let mut hi = 1e8; // +80 dB
    if ber_awgn(m, lo) < target {
        return lo;
    }
    for _ in 0..200 {
        let mid = (lo * hi).sqrt(); // geometric bisection for dB-scale
                                    // Once the midpoint collapses onto an endpoint the iteration is
                                    // at its fixed point: every further pass recomputes the same
                                    // `mid` and reassigns the same endpoint (`sqrt(x*x) == x` holds
                                    // exactly in this bracket), so the final answer is already
                                    // determined — apply this pass's assignment and stop. Bitwise
                                    // identical to running out the full 200 passes.
        let converged = mid == lo || mid == hi;
        if ber_awgn(m, mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
        if converged {
            break;
        }
    }
    (lo * hi).sqrt()
}

/// Computes the effective SNR (linear) of a set of per-subcarrier SNRs for
/// the given modulation.
pub fn effective_snr(m: Modulation, subcarrier_snrs: &[f64]) -> f64 {
    assert!(!subcarrier_snrs.is_empty(), "no subcarrier SNRs given");
    let mean_ber =
        subcarrier_snrs.iter().map(|&s| ber_awgn(m, s)).sum::<f64>() / subcarrier_snrs.len() as f64;
    if mean_ber <= 1e-12 {
        // The BER curve has saturated (error-free for this modulation);
        // the inversion is meaningless below the floor, so report the
        // arithmetic mean SNR — the channel is effectively flat-good.
        return subcarrier_snrs.iter().sum::<f64>() / subcarrier_snrs.len() as f64;
    }
    snr_for_ber(m, mean_ber)
}

/// Effective SNR in dB (a zero ESNR is clamped to −3000 dB rather than
/// `-inf`).
pub fn effective_snr_db(m: Modulation, subcarrier_snrs: &[f64]) -> f64 {
    10.0 * effective_snr(m, subcarrier_snrs).max(1e-300).log10()
}

/// Minimum ESNR (dB) at which each [`RATE_TABLE`] entry delivers roughly a
/// 90%+ packet success rate for ~1500-byte packets.
///
/// Derived from the coded-performance curves in Halperin et al. (Fig. 5)
/// — within ~1 dB of the 802.11a receiver sensitivity ladder.
pub const RATE_ESNR_THRESHOLDS_DB: [f64; 8] = [
    2.0,  // BPSK 1/2
    4.5,  // BPSK 3/4
    5.0,  // QPSK 1/2
    7.5,  // QPSK 3/4
    10.5, // 16QAM 1/2
    14.0, // 16QAM 3/4
    18.5, // 64QAM 2/3
    20.0, // 64QAM 3/4
];

/// Picks the fastest rate whose ESNR threshold the channel satisfies.
///
/// `subcarrier_snrs` are the post-projection per-subcarrier SNRs (linear)
/// measured from the light-weight RTS. Returns `None` when the track is
/// empty or even the most robust rate is below threshold (the receiver
/// should then refuse the exchange).
pub fn select_rate(subcarrier_snrs: &[f64]) -> Option<RateIndex> {
    if subcarrier_snrs.is_empty() {
        return None;
    }
    let mut best = None;
    // The 8 rate entries share 4 modulations, and the ESNR is a pure
    // function of (modulation, SNR track) — evaluate each modulation's
    // BER fold and inversion once and reuse it for both coding rates.
    let mut esnr_db_by_mod: [Option<f64>; 4] = [None; 4];
    for (idx, mcs) in RATE_TABLE.iter().enumerate() {
        let esnr_db = *esnr_db_by_mod[mcs.modulation as usize]
            .get_or_insert_with(|| effective_snr_db(mcs.modulation, subcarrier_snrs));
        if esnr_db >= RATE_ESNR_THRESHOLDS_DB[idx] {
            best = Some(idx);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erfc_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(2.0) - 0.004_677_7).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
    }

    #[test]
    fn q_func_known_values() {
        assert!((q_func(0.0) - 0.5).abs() < 2e-8);
        assert!((q_func(1.0) - 0.158_655).abs() < 1e-5);
        assert!((q_func(3.0) - 0.001_349_9).abs() < 1e-6);
    }

    #[test]
    fn ber_decreases_with_snr() {
        for m in [
            Modulation::Bpsk,
            Modulation::Qpsk,
            Modulation::Qam16,
            Modulation::Qam64,
        ] {
            let mut last = 0.6;
            for snr_db in [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0] {
                let ber = ber_awgn(m, 10f64.powf(snr_db / 10.0));
                assert!(ber <= last, "{m} BER not monotone at {snr_db} dB");
                last = ber;
            }
        }
    }

    #[test]
    fn ber_ordering_by_modulation() {
        // At the same SNR, denser constellations must have higher BER.
        let snr = 10f64.powf(1.2); // 12 dB
        let b = ber_awgn(Modulation::Bpsk, snr);
        let q = ber_awgn(Modulation::Qpsk, snr);
        let q16 = ber_awgn(Modulation::Qam16, snr);
        let q64 = ber_awgn(Modulation::Qam64, snr);
        assert!(b <= q && q <= q16 && q16 <= q64);
    }

    #[test]
    fn bpsk_ber_at_known_point() {
        // BPSK at Eb/N0 = 9.6 dB has BER ~ 1e-5 (textbook value).
        let snr = 10f64.powf(0.96);
        let ber = ber_awgn(Modulation::Bpsk, snr);
        assert!(ber > 1e-6 && ber < 1e-4, "got {ber}");
    }

    #[test]
    fn snr_for_ber_inverts() {
        for m in [Modulation::Bpsk, Modulation::Qam16, Modulation::Qam64] {
            for target in [1e-2, 1e-3, 1e-5] {
                let snr = snr_for_ber(m, target);
                let ber = ber_awgn(m, snr);
                assert!(
                    (ber.log10() - target.log10()).abs() < 0.01,
                    "{m}: target {target}, got {ber}"
                );
            }
        }
    }

    #[test]
    fn esnr_of_flat_channel_is_the_snr() {
        let snr = 10f64.powf(1.5); // 15 dB flat
        let snrs = vec![snr; 52];
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16] {
            let esnr = effective_snr(m, &snrs);
            assert!(
                (10.0 * (esnr / snr).log10()).abs() < 0.05,
                "{m}: esnr {esnr} vs {snr}"
            );
        }
    }

    #[test]
    fn esnr_penalizes_selective_fades() {
        // 51 strong subcarriers + 1 deeply faded one: the ESNR must drop
        // well below the arithmetic-mean SNR.
        let mut snrs = vec![10f64.powf(2.0); 51]; // 20 dB
        snrs.push(10f64.powf(-0.5)); // -5 dB fade
        let mean: f64 = snrs.iter().sum::<f64>() / snrs.len() as f64;
        let esnr = effective_snr(Modulation::Qam16, &snrs);
        assert!(
            esnr < 0.7 * mean,
            "esnr {esnr} should be well below mean {mean}"
        );
    }

    #[test]
    fn rate_selection_tracks_snr() {
        // Flat channels at increasing SNR must select non-decreasing rates.
        let mut last: Option<RateIndex> = None;
        for snr_db in [0.0, 3.0, 6.0, 9.0, 12.0, 16.0, 20.0, 24.0, 28.0] {
            let snrs = vec![10f64.powf(snr_db / 10.0); 52];
            let r = select_rate(&snrs);
            if let (Some(prev), Some(cur)) = (last, r) {
                assert!(
                    cur >= prev,
                    "rate dropped from {prev} to {cur} at {snr_db} dB"
                );
            }
            if r.is_some() {
                last = r;
            }
        }
        // At 28 dB the fastest rate must be selected.
        let snrs = vec![10f64.powf(2.8); 52];
        assert_eq!(select_rate(&snrs), Some(7));
        // Below -5 dB nothing decodes.
        let snrs = vec![10f64.powf(-0.8); 52];
        assert_eq!(select_rate(&snrs), None);
    }
}
