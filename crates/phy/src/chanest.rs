//! Channel estimation from the long training field.
//!
//! Every node in n+ — receivers of a transmission *and* overhearing
//! contenders — estimates the per-subcarrier channel of each transmit
//! antenna from that antenna's LTF slot in the MIMO preamble
//! (see [`crate::preamble::mimo_preamble`]). Contenders use these
//! estimates for multi-dimensional carrier sense and, through
//! reciprocity, for nulling/alignment precoding.

use crate::fft::fft;
use crate::params::OfdmConfig;
use crate::preamble::ltf_freq;
use nplus_linalg::Complex64;

/// Per-subcarrier channel estimate of one transmit-antenna → one
/// receive-antenna link, in natural FFT order. Unoccupied bins are zero.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelEstimate {
    /// Channel coefficients, one per FFT bin.
    pub h: Vec<Complex64>,
}

/// Estimates the channel from one received LTF (160 samples at the
/// standard geometry, aligned to the start of the LTF including its
/// double guard interval).
///
/// The two repeated long symbols are averaged before division by the known
/// sequence, halving the estimation noise power — exactly what commodity
/// 802.11 receivers do.
// nplus:allow(VIS001): a stage of the sample-level PHY chain that tests/phy_chain.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn estimate_from_ltf(rx: &[Complex64], cfg: &OfdmConfig) -> ChannelEstimate {
    let gi = 2 * cfg.cp_len;
    let n = cfg.fft_len;
    assert!(
        rx.len() >= gi + 2 * n,
        "LTF capture too short: {} < {}",
        rx.len(),
        gi + 2 * n
    );
    let sym1 = fft(&rx[gi..gi + n]);
    let sym2 = fft(&rx[gi + n..gi + 2 * n]);
    let known = ltf_freq(n);
    // Average power normalization: the transmitted LTF was scaled to unit
    // time-domain power; invert that scaling so H reflects the medium.
    // ltf_time normalizes by sqrt(mean power); mean power of the raw ifft
    // is 52 / n^2, so the applied gain was n / sqrt(52).
    let tx_gain = n as f64 / (52.0f64).sqrt();
    let mut h = vec![Complex64::ZERO; n];
    for k in 0..n {
        if known[k].abs() > 1e-12 {
            let avg = (sym1[k] + sym2[k]).scale(0.5);
            h[k] = avg / (known[k].scale(tx_gain));
        }
    }
    ChannelEstimate { h }
}

/// Estimates the full MIMO channel from a received preamble capture.
///
/// `rx` holds the samples of **one receive antenna**, aligned to the start
/// of the preamble of an `n_tx`-antenna transmitter. Returns one
/// [`ChannelEstimate`] per transmit antenna.
pub fn estimate_mimo_from_preamble(
    rx: &[Complex64],
    n_tx: usize,
    cfg: &OfdmConfig,
) -> Vec<ChannelEstimate> {
    let stf_len = cfg.fft_len / 4 * 10;
    let ltf_len = 2 * cfg.cp_len + 2 * cfg.fft_len;
    assert!(
        rx.len() >= stf_len + n_tx * ltf_len,
        "preamble capture too short"
    );
    (0..n_tx)
        .map(|ant| {
            let start = stf_len + ant * ltf_len;
            estimate_from_ltf(&rx[start..start + ltf_len], cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::ifft;
    use crate::params::occupied_subcarrier_indices;
    use crate::preamble::{ltf_time, mimo_preamble, preamble_len};
    use nplus_linalg::c64;

    fn cfg() -> OfdmConfig {
        OfdmConfig::usrp2()
    }

    /// Applies a per-subcarrier channel to a time-domain stream,
    /// symbol-agnostically via circular convolution per 64-sample block.
    /// For preamble tests we apply it in the frequency domain per LTF.
    fn apply_flat_gain(samples: &[Complex64], gain: Complex64) -> Vec<Complex64> {
        samples.iter().map(|&z| z * gain).collect()
    }

    #[test]
    fn flat_channel_estimated_exactly() {
        let c = cfg();
        let gain = c64(0.8, -0.6); // |gain|^2 = 1
        let rx = apply_flat_gain(&ltf_time(&c), gain);
        let est = estimate_from_ltf(&rx, &c);
        let occ = occupied_subcarrier_indices();
        for &k in &occ {
            assert!(
                est.h[k].approx_eq(gain, 1e-9),
                "bin {k}: {:?} vs {gain:?}",
                est.h[k]
            );
        }
        let mean_power = occ.iter().map(|&k| est.h[k].norm_sqr()).sum::<f64>() / occ.len() as f64;
        assert!((mean_power - 1.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_selective_channel_estimated() {
        let c = cfg();
        // Build a 3-tap channel and apply it by frequency-domain
        // multiplication of each long symbol (valid because of the GI).
        let taps = [c64(1.0, 0.0), c64(0.4, -0.2), c64(0.0, 0.15)];
        let mut hfreq = vec![Complex64::ZERO; c.fft_len];
        for k in 0..c.fft_len {
            let mut acc = Complex64::ZERO;
            for (d, &t) in taps.iter().enumerate() {
                let ang = -2.0 * std::f64::consts::PI * (k * d) as f64 / c.fft_len as f64;
                acc += t * Complex64::cis(ang);
            }
            hfreq[k] = acc;
        }
        let ltf = ltf_time(&c);
        // Frequency-domain application block by block (GI then two syms).
        let gi = 2 * c.cp_len;
        let mut rx = vec![Complex64::ZERO; ltf.len()];
        for (start, len) in [(gi, c.fft_len), (gi + c.fft_len, c.fft_len)] {
            let mut f = fft(&ltf[start..start + len]);
            for k in 0..c.fft_len {
                f[k] *= hfreq[k];
            }
            let t = ifft(&f);
            rx[start..start + len].copy_from_slice(&t);
        }
        // Reconstruct the GI as the cyclic tail of symbol 1.
        for i in 0..gi {
            rx[i] = rx[gi + c.fft_len - gi + i];
        }
        let est = estimate_from_ltf(&rx, &c);
        for &k in &occupied_subcarrier_indices() {
            assert!(
                est.h[k].approx_eq(hfreq[k], 1e-9),
                "bin {k}: {:?} vs {:?}",
                est.h[k],
                hfreq[k]
            );
        }
    }

    #[test]
    fn mimo_preamble_estimates_each_antenna() {
        let c = cfg();
        let n_tx = 3;
        let streams = mimo_preamble(&c, n_tx);
        // Each tx antenna has its own flat gain to this rx antenna.
        let gains = [c64(1.0, 0.0), c64(0.3, 0.6), c64(-0.5, 0.2)];
        let len = preamble_len(&c, n_tx);
        let mut rx = vec![Complex64::ZERO; len];
        for (ant, stream) in streams.iter().enumerate() {
            for (i, &s) in stream.iter().enumerate() {
                rx[i] += s * gains[ant];
            }
        }
        let ests = estimate_mimo_from_preamble(&rx, n_tx, &c);
        assert_eq!(ests.len(), n_tx);
        for (ant, est) in ests.iter().enumerate() {
            for &k in &occupied_subcarrier_indices() {
                assert!(
                    est.h[k].approx_eq(gains[ant], 1e-9),
                    "antenna {ant} bin {k}: {:?} vs {:?}",
                    est.h[k],
                    gains[ant]
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_capture_rejected() {
        let c = cfg();
        let rx = vec![Complex64::ZERO; 10];
        let _ = estimate_from_ltf(&rx, &c);
    }
}
