//! 802.11 OFDM preambles: short and long training fields.
//!
//! The short training field (STF) drives packet detection and coarse
//! synchronization — its 16-sample periodicity is what 802.11 carrier
//! sense cross-correlates against (§6.1 of the paper evaluates exactly
//! this statistic, with and without projection). The long training field
//! (LTF) drives channel estimation.
//!
//! For MIMO transmitters, each antenna sends the LTF in its own time slot
//! (time-orthogonal sounding, as in 802.11n's staggered HT-LTFs). This is
//! what lets every overhearing node estimate the per-antenna channel
//! vectors it needs for nulling, alignment, and multi-dimensional carrier
//! sense — including channels of transmissions it is not a party to.

use crate::fft::ifft;
use crate::params::OfdmConfig;
use nplus_linalg::{c64, Complex64};

/// The 802.11a STF frequency-domain sequence, subcarriers −26..=26
/// (53 entries, DC in the middle), before the `sqrt(13/6)` scaling.
const STF_SEQ: [(f64, f64); 53] = {
    const P: (f64, f64) = (1.0, 1.0);
    const N: (f64, f64) = (-1.0, -1.0);
    const Z: (f64, f64) = (0.0, 0.0);
    [
        Z, Z, P, Z, Z, Z, N, Z, Z, Z, P, Z, Z, Z, N, Z, Z, Z, N, Z, Z, Z, P, Z, Z,
        Z, // -26..-1
        Z, // DC
        Z, Z, Z, N, Z, Z, Z, N, Z, Z, Z, P, Z, Z, Z, P, Z, Z, Z, P, Z, Z, Z, P, Z, Z, // 1..26
    ]
};

/// The 802.11a LTF frequency-domain sequence, subcarriers −26..=26.
const LTF_SEQ: [f64; 53] = [
    1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 1.0,
    1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, // -26..-1
    0.0, // DC
    1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0, -1.0,
    -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0, 1.0, // 1..26
];

/// Maps a logical subcarrier index −26..=26 to the natural FFT bin 0..64.
fn fft_bin(logical: i32, fft_len: usize) -> usize {
    if logical >= 0 {
        logical as usize
    } else {
        (fft_len as i32 + logical) as usize
    }
}

/// STF in natural FFT order (length `fft_len`), scaled for unit average
/// time-domain power.
pub(crate) fn stf_freq(fft_len: usize) -> Vec<Complex64> {
    let mut f = vec![Complex64::ZERO; fft_len];
    let scale = (13.0f64 / 6.0).sqrt();
    for (i, &(re, im)) in STF_SEQ.iter().enumerate() {
        let logical = i as i32 - 26;
        f[fft_bin(logical, fft_len)] = c64(re, im).scale(scale);
    }
    f
}

/// LTF in natural FFT order (length `fft_len`).
pub(crate) fn ltf_freq(fft_len: usize) -> Vec<Complex64> {
    let mut f = vec![Complex64::ZERO; fft_len];
    for (i, &v) in LTF_SEQ.iter().enumerate() {
        let logical = i as i32 - 26;
        f[fft_bin(logical, fft_len)] = c64(v, 0.0);
    }
    f
}

/// One 16-sample period of the time-domain STF (for the standard 64-point
/// FFT; scales with `cfg.fft_len`).
pub(crate) fn stf_period(cfg: &OfdmConfig) -> Vec<Complex64> {
    let t = ifft(&stf_freq(cfg.fft_len));
    // The STF occupies every 4th subcarrier, so the time signal has
    // period fft_len / 4.
    t[..cfg.fft_len / 4].to_vec()
}

/// The full time-domain STF: 10 repetitions of the short period
/// (160 samples at the standard geometry), normalized to unit average
/// power.
pub fn stf_time(cfg: &OfdmConfig) -> Vec<Complex64> {
    let period = stf_period(cfg);
    let mut out = Vec::with_capacity(period.len() * 10);
    for _ in 0..10 {
        out.extend_from_slice(&period);
    }
    normalize_power(&mut out);
    out
}

/// The full time-domain LTF: a double-length guard interval followed by
/// two repetitions of the 64-sample long symbol (160 samples total at the
/// standard geometry), normalized to unit average power.
// nplus:allow(VIS001): a stage of the sample-level PHY chain that tests/phy_chain.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn ltf_time(cfg: &OfdmConfig) -> Vec<Complex64> {
    let sym = ifft(&ltf_freq(cfg.fft_len));
    let gi = 2 * cfg.cp_len;
    let mut out = Vec::with_capacity(gi + 2 * cfg.fft_len);
    out.extend_from_slice(&sym[cfg.fft_len - gi..]);
    out.extend_from_slice(&sym);
    out.extend_from_slice(&sym);
    normalize_power(&mut out);
    out
}

fn normalize_power(samples: &mut [Complex64]) {
    let p: f64 = samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64;
    if p > 1e-300 {
        let k = 1.0 / p.sqrt();
        for z in samples.iter_mut() {
            *z = z.scale(k);
        }
    }
}

/// The per-antenna preamble of an `n_antennas` transmitter:
/// STF sent from antenna 0, followed by one LTF slot per antenna
/// (time-orthogonal sounding). Returns one sample stream per antenna, all
/// of equal length.
///
/// Layout (standard geometry): `[STF 160][LTF_0 160][LTF_1 160]...`
/// where antenna `i` is silent outside its own LTF slot but during the
/// STF slot if `i != 0`.
pub fn mimo_preamble(cfg: &OfdmConfig, n_antennas: usize) -> Vec<Vec<Complex64>> {
    assert!(n_antennas >= 1);
    let stf = stf_time(cfg);
    let ltf = ltf_time(cfg);
    let total = stf.len() + n_antennas * ltf.len();
    let mut streams = vec![vec![Complex64::ZERO; total]; n_antennas];
    streams[0][..stf.len()].copy_from_slice(&stf);
    for (i, stream) in streams.iter_mut().enumerate() {
        let start = stf.len() + i * ltf.len();
        stream[start..start + ltf.len()].copy_from_slice(&ltf);
    }
    streams
}

/// Total preamble length in samples for an `n_antennas` transmitter.
// nplus:allow(VIS001): sizes captures in the sample-level chain that tests/end_to_end.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn preamble_len(cfg: &OfdmConfig, n_antennas: usize) -> usize {
    stf_time(cfg).len() + n_antennas * ltf_time(cfg).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::normalized_cross_correlation;

    fn cfg() -> OfdmConfig {
        OfdmConfig::usrp2()
    }

    #[test]
    fn stf_has_16_sample_periodicity() {
        let stf = stf_time(&cfg());
        assert_eq!(stf.len(), 160);
        for i in 0..stf.len() - 16 {
            assert!(
                stf[i].approx_eq(stf[i + 16], 1e-9),
                "STF not periodic at sample {i}"
            );
        }
    }

    #[test]
    fn stf_unit_power() {
        let stf = stf_time(&cfg());
        let p: f64 = stf.iter().map(|z| z.norm_sqr()).sum::<f64>() / stf.len() as f64;
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ltf_repeats_long_symbol() {
        let c = cfg();
        let ltf = ltf_time(&c);
        assert_eq!(ltf.len(), 160);
        // The two long symbols (after the 32-sample GI) are identical.
        for i in 0..c.fft_len {
            assert!(ltf[32 + i].approx_eq(ltf[32 + 64 + i], 1e-9));
        }
        // The GI is the cyclic tail of the long symbol.
        for i in 0..32 {
            assert!(ltf[i].approx_eq(ltf[i + 64], 1e-9));
        }
    }

    #[test]
    fn ltf_occupies_52_subcarriers() {
        let f = ltf_freq(64);
        let occupied = f.iter().filter(|z| z.abs() > 1e-12).count();
        assert_eq!(occupied, 52);
        assert_eq!(f[0], Complex64::ZERO, "DC must be empty");
    }

    #[test]
    fn stf_correlates_with_itself() {
        let stf = stf_time(&cfg());
        let period = &stf[..16];
        let corr = normalized_cross_correlation(&stf, period);
        // Every 16-sample lag is a perfect match.
        for lag in (0..corr.len()).step_by(16) {
            assert!((corr[lag] - 1.0).abs() < 1e-9, "lag {lag}: {}", corr[lag]);
        }
    }

    #[test]
    fn stf_does_not_correlate_with_ltf() {
        let c = cfg();
        let ltf = ltf_time(&c);
        let stf = stf_time(&c);
        let corr = normalized_cross_correlation(&ltf, &stf[..32]);
        for v in corr {
            assert!(v < 0.75, "STF matched inside LTF: {v}");
        }
    }

    #[test]
    fn mimo_preamble_slots_are_orthogonal_in_time() {
        let c = cfg();
        let streams = mimo_preamble(&c, 3);
        assert_eq!(streams.len(), 3);
        let len = preamble_len(&c, 3);
        for s in &streams {
            assert_eq!(s.len(), len);
        }
        // At any sample inside an LTF slot, only the owning antenna is live.
        for ant in 0..3 {
            let start = stf_time(&c).len() + ant * ltf_time(&c).len();
            for t in start..start + 160 {
                for (other, s) in streams.iter().enumerate() {
                    if other != ant {
                        assert!(
                            s[t].abs() < 1e-12,
                            "antenna {other} active during antenna {ant}'s LTF"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn preamble_len_scales_with_antennas() {
        let c = cfg();
        assert_eq!(preamble_len(&c, 1), 320);
        assert_eq!(preamble_len(&c, 2), 480);
        assert_eq!(preamble_len(&c, 3), 640);
    }
}
