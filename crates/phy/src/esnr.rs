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
/// bisection over a wide bracket is robust. This is the one bisection
/// loop behind [`effective_snr`] and [`esnr_band`].
///
/// It runs to convergence, unless the bracket first clears the linear
/// band `[below, above)`: then it returns the bracket's lower end once
/// that end is at least `above`, or its upper end once that end is
/// below `below`. An unbounded band (`0.0`, `INFINITY`) never stops it
/// early.
///
/// The early answer is on the same side of the band as the converged
/// one, because the brackets are nested. For `1e-6 ≤ lo ≤ hi ≤ 1e8`,
/// `sqrt(fl(lo·hi))` lies in `[lo, hi]`: rounding is monotone and
/// `sqrt(fl(x·x)) == x`. So every midpoint, and the final
/// `(lo·hi).sqrt()`, stays inside every earlier bracket.
fn snr_for_ber(m: Modulation, target_ber: f64, below: f64, above: f64) -> f64 {
    let target = target_ber.clamp(1e-12, 0.5);
    let mut lo = 1e-6; // -60 dB
    let mut hi = 1e8; // +80 dB
    if ber_awgn(m, lo) < target {
        return lo;
    }
    for _ in 0..200 {
        if lo >= above {
            return lo;
        }
        if hi < below {
            return hi;
        }
        // Geometric bisection, for the dB scale. Once the midpoint
        // collapses onto an endpoint the iteration is at its fixed
        // point: every further pass recomputes the same `mid` and
        // reassigns the same endpoint, so the final answer is already
        // determined — apply this pass's assignment and stop. Bitwise
        // identical to running out the full 200 passes.
        let mid = (lo * hi).sqrt();
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

/// [`effective_snr`] with the inversion stopped once its bracket clears
/// the linear band `[below, above)` (see [`snr_for_ber`]).
fn esnr_bisect(m: Modulation, subcarrier_snrs: &[f64], below: f64, above: f64) -> f64 {
    assert!(!subcarrier_snrs.is_empty(), "no subcarrier SNRs given");
    let mean_ber =
        subcarrier_snrs.iter().map(|&s| ber_awgn(m, s)).sum::<f64>() / subcarrier_snrs.len() as f64;
    if mean_ber <= 1e-12 {
        // The BER curve has saturated (error-free for this modulation);
        // the inversion is meaningless below the floor, so report the
        // arithmetic mean SNR — the channel is effectively flat-good.
        return subcarrier_snrs.iter().sum::<f64>() / subcarrier_snrs.len() as f64;
    }
    snr_for_ber(m, mean_ber, below, above)
}

/// Computes the effective SNR (linear) of a set of per-subcarrier SNRs for
/// the given modulation.
pub fn effective_snr(m: Modulation, subcarrier_snrs: &[f64]) -> f64 {
    esnr_bisect(m, subcarrier_snrs, 0.0, f64::INFINITY)
}

/// Effective SNR in dB (a zero ESNR is clamped to −3000 dB rather than
/// `-inf`).
pub fn effective_snr_db(m: Modulation, subcarrier_snrs: &[f64]) -> f64 {
    to_db(effective_snr(m, subcarrier_snrs))
}

fn to_db(snr: f64) -> f64 {
    10.0 * snr.max(1e-300).log10()
}

/// Where an [`effective_snr_db`] lies against a band `[lo_db, hi_db)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EsnrBand {
    /// Below `lo_db`.
    Below,
    /// At or above `hi_db`.
    Above,
    /// Inside the band: the exact [`effective_snr_db`], bit for bit.
    Within(f64),
}

/// Margin (dB) by which a bracket must clear a band edge before
/// [`esnr_band`] stops the inversion: ~10⁴× the `powf`/`log10` error
/// over the bracket's [−60, 80] dB.
const BAND_MARGIN_DB: f64 = 1e-6;

/// Places the effective SNR against `[lo_db, hi_db)` without finishing
/// the inversion when it need not: the bisection stops as soon as its
/// bracket lies wholly `BAND_MARGIN_DB` above `hi_db` or below `lo_db`.
/// The answer is always that of comparing [`effective_snr_db`] with the
/// band edges, and a [`EsnrBand::Within`] value is its exact bits.
pub fn esnr_band(m: Modulation, subcarrier_snrs: &[f64], lo_db: f64, hi_db: f64) -> EsnrBand {
    let below = 10f64.powf((lo_db - BAND_MARGIN_DB) / 10.0);
    let above = 10f64.powf((hi_db + BAND_MARGIN_DB) / 10.0);
    let esnr_db = to_db(esnr_bisect(m, subcarrier_snrs, below, above));
    if esnr_db >= hi_db {
        EsnrBand::Above
    } else if esnr_db >= lo_db {
        EsnrBand::Within(esnr_db)
    } else {
        EsnrBand::Below
    }
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
///
/// [`RATE_TABLE`] pairs each modulation's two code rates, slower first,
/// so the scan runs fastest modulation first and asks each one a single
/// question: where its ESNR lies against the band of its two
/// thresholds. The first rate that holds is the answer. ESNR is not
/// monotone across modulations on frequency-selective tracks, so a
/// modulation that fails says nothing about the ones below it.
pub fn select_rate(subcarrier_snrs: &[f64]) -> Option<RateIndex> {
    if subcarrier_snrs.is_empty() {
        return None;
    }
    (0..RATE_TABLE.len()).step_by(2).rev().find_map(|slow| {
        let fast = slow + 1;
        let (lo_db, hi_db) = (RATE_ESNR_THRESHOLDS_DB[slow], RATE_ESNR_THRESHOLDS_DB[fast]);
        match esnr_band(RATE_TABLE[slow].modulation, subcarrier_snrs, lo_db, hi_db) {
            EsnrBand::Above => Some(fast),
            EsnrBand::Within(_) => Some(slow),
            EsnrBand::Below => None,
        }
    })
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
                let snr = snr_for_ber(m, target, 0.0, f64::INFINITY);
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
    fn rate_table_pairs_each_modulation_slower_first() {
        for slow in (0..RATE_TABLE.len()).step_by(2) {
            assert_eq!(RATE_TABLE[slow].modulation, RATE_TABLE[slow + 1].modulation);
            assert!(RATE_ESNR_THRESHOLDS_DB[slow] < RATE_ESNR_THRESHOLDS_DB[slow + 1]);
        }
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
