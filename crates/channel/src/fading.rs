//! Small-scale fading: Rayleigh tapped-delay-line channels.
//!
//! Each antenna-pair link is a short FIR filter whose taps are complex
//! Gaussian (Rayleigh envelope) with an exponentially decaying power
//! profile. The taps generate both the time-domain behaviour (multipath,
//! inter-symbol interference absorbed by the OFDM cyclic prefix) and the
//! per-subcarrier frequency response used by the precoder — derived from
//! the *same* taps, so the simulation is self-consistent across domains.

use crate::pathloss::sample_normal;
use nplus_linalg::{c64, Complex64};
use rand::Rng;

/// Power-delay profile of the small-scale channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayProfile {
    /// Number of taps (at one tap per sample period).
    pub n_taps: usize,
    /// Exponential decay rate per tap, in dB.
    pub decay_db_per_tap: f64,
    /// Rician K-factor (linear) applied to the first tap; 0 = pure
    /// Rayleigh (NLOS), larger = stronger line-of-sight component.
    pub rician_k: f64,
}

impl DelayProfile {
    /// LOS profile: short delay spread, strong direct path.
    pub const fn los() -> Self {
        DelayProfile {
            n_taps: 4,
            decay_db_per_tap: 4.0,
            rician_k: 4.0,
        }
    }

    /// NLOS profile: longer delay spread, no direct path.
    pub const fn nlos() -> Self {
        DelayProfile {
            n_taps: 8,
            decay_db_per_tap: 2.0,
            rician_k: 0.0,
        }
    }

    /// Relative power of each tap, normalized to sum to 1.
    pub(crate) fn tap_powers(&self) -> Vec<f64> {
        let raw: Vec<f64> = (0..self.n_taps)
            .map(|d| 10f64.powf(-(self.decay_db_per_tap * d as f64) / 10.0))
            .collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|p| p / sum).collect()
    }
}

/// A sampled tapped-delay-line channel for one tx-antenna → rx-antenna
/// pair, with unit average energy (`sum E[|tap|^2] = 1`); large-scale gain
/// is applied separately by the link budget.
#[derive(Debug, Clone, PartialEq)]
pub struct FadingChannel {
    /// FIR taps at sample spacing.
    pub taps: Vec<Complex64>,
}

impl FadingChannel {
    /// Draws a channel realization from the profile.
    pub fn sample<R: Rng>(profile: &DelayProfile, rng: &mut R) -> Self {
        let powers = profile.tap_powers();
        let k = profile.rician_k;
        let taps = powers
            .iter()
            .enumerate()
            .map(|(d, &p)| {
                if d == 0 && k > 0.0 {
                    // Rician first tap: deterministic LOS component with a
                    // random phase plus a scattered component.
                    let los_pow = p * k / (k + 1.0);
                    let scat_pow = p / (k + 1.0);
                    let phase = rng.gen::<f64>() * 2.0 * std::f64::consts::PI;
                    let los = Complex64::from_polar(los_pow.sqrt(), phase);
                    let scat =
                        c64(sample_normal(rng), sample_normal(rng)).scale((scat_pow / 2.0).sqrt());
                    los + scat
                } else {
                    c64(sample_normal(rng), sample_normal(rng)).scale((p / 2.0).sqrt())
                }
            })
            .collect();
        FadingChannel { taps }
    }

    /// An ideal single-tap unit channel (for tests).
    #[cfg(test)]
    pub(crate) fn identity() -> Self {
        FadingChannel {
            taps: vec![Complex64::ONE],
        }
    }

    /// Frequency response at FFT bin `k` of an `n_fft`-point grid.
    pub fn freq_response_at(&self, k: usize, n_fft: usize) -> Complex64 {
        let mut acc = Complex64::ZERO;
        for (d, &t) in self.taps.iter().enumerate() {
            let ang = -2.0 * std::f64::consts::PI * (k * d) as f64 / n_fft as f64;
            acc += t * Complex64::cis(ang);
        }
        acc
    }

    /// Convolves a transmit sample stream with the channel (linear
    /// convolution, output length `input.len() + taps.len() - 1`).
    // nplus:allow(VIS001): a stage of the sample-level PHY chain that tests/phy_chain.rs drives; the planned phy_check bin (ROADMAP.md) will call it
    pub fn convolve(&self, input: &[Complex64]) -> Vec<Complex64> {
        let n = input.len();
        let t = self.taps.len();
        if n == 0 {
            return Vec::new();
        }
        let mut out = vec![Complex64::ZERO; n + t - 1];
        for (i, &x) in input.iter().enumerate() {
            if x == Complex64::ZERO {
                continue;
            }
            for (d, &h) in self.taps.iter().enumerate() {
                out[i + d] += x * h;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn tap_powers_normalized() {
        for p in [DelayProfile::los(), DelayProfile::nlos()] {
            let sum: f64 = p.tap_powers().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tap_powers_decay() {
        let powers = DelayProfile::nlos().tap_powers();
        for w in powers.windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn average_energy_is_unity() {
        let mut rng = StdRng::seed_from_u64(21);
        for profile in [DelayProfile::los(), DelayProfile::nlos()] {
            let n = 4000;
            let mean: f64 = (0..n)
                .map(|_| {
                    let taps = FadingChannel::sample(&profile, &mut rng).taps;
                    taps.iter().map(|t| t.norm_sqr()).sum::<f64>()
                })
                .sum::<f64>()
                / n as f64;
            assert!((mean - 1.0).abs() < 0.05, "mean energy {mean}");
        }
    }

    #[test]
    fn nlos_magnitudes_are_rayleigh_like() {
        // For a pure Rayleigh tap, E[|h|^4] / E[|h|^2]^2 = 2.
        let mut rng = StdRng::seed_from_u64(5);
        let profile = DelayProfile {
            n_taps: 1,
            decay_db_per_tap: 0.0,
            rician_k: 0.0,
        };
        let n = 20000;
        let (mut m2, mut m4) = (0.0, 0.0);
        for _ in 0..n {
            let h = FadingChannel::sample(&profile, &mut rng).taps[0];
            let p = h.norm_sqr();
            m2 += p;
            m4 += p * p;
        }
        m2 /= n as f64;
        m4 /= n as f64;
        let kurt = m4 / (m2 * m2);
        assert!((kurt - 2.0).abs() < 0.1, "kurtosis {kurt}");
    }

    #[test]
    fn los_has_less_fading_variance_than_nlos() {
        let mut rng = StdRng::seed_from_u64(9);
        let var_of = |profile: &DelayProfile, rng: &mut StdRng| {
            let n = 4000;
            let e: Vec<f64> = (0..n)
                .map(|_| {
                    FadingChannel::sample(profile, rng)
                        .freq_response_at(10, 64)
                        .norm_sqr()
                })
                .collect();
            let mean = e.iter().sum::<f64>() / n as f64;
            e.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64 / (mean * mean)
        };
        let v_los = var_of(&DelayProfile::los(), &mut rng);
        let v_nlos = var_of(&DelayProfile::nlos(), &mut rng);
        assert!(
            v_los < v_nlos,
            "LOS normalized variance {v_los} !< NLOS {v_nlos}"
        );
    }

    #[test]
    fn freq_response_matches_convolution_of_tone() {
        // Convolving a complex exponential with the FIR must scale it by
        // the frequency response (steady-state part).
        let mut rng = StdRng::seed_from_u64(2);
        let ch = FadingChannel::sample(&DelayProfile::nlos(), &mut rng);
        let n_fft = 64;
        let k = 9;
        let tone: Vec<Complex64> = (0..128)
            .map(|t| Complex64::cis(2.0 * std::f64::consts::PI * (k * t) as f64 / n_fft as f64))
            .collect();
        let out = ch.convolve(&tone);
        let h = ch.freq_response_at(k, n_fft);
        // Check steady-state samples (skip the first taps-1 transient).
        for t in ch.taps.len()..100 {
            let expect = tone[t] * h;
            assert!(
                out[t].approx_eq(expect, 1e-9),
                "sample {t}: {:?} vs {expect:?}",
                out[t]
            );
        }
    }

    #[test]
    fn convolution_length_and_linearity() {
        let ch = FadingChannel {
            taps: vec![c64(1.0, 0.0), c64(0.5, -0.5)],
        };
        let a = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let out = ch.convolve(&a);
        assert_eq!(out.len(), 3);
        assert!(out[0].approx_eq(c64(1.0, 0.0), 1e-12));
        assert!(out[1].approx_eq(c64(0.5, 0.5), 1e-12)); // 1*(0.5-0.5i)... + i*1
        assert!(out[2].approx_eq(c64(0.5, 0.5), 1e-12)); // i*(0.5-0.5i)
    }

    #[test]
    fn identity_channel_is_transparent() {
        let ch = FadingChannel::identity();
        let x = vec![c64(0.3, -0.7), c64(1.0, 1.0)];
        assert_eq!(ch.convolve(&x), x);
        for k in 0..64 {
            assert!(ch.freq_response_at(k, 64).approx_eq(Complex64::ONE, 1e-12));
        }
    }
}
