//! Additive white Gaussian noise.
//!
//! The medium simulator works in noise-normalized units: every receive
//! antenna adds complex Gaussian noise of unit power, and link amplitudes
//! are scaled so `|h|²` equals the linear SNR. This keeps SNR bookkeeping
//! trivial across the workspace.

use crate::pathloss::sample_normal;
use nplus_linalg::{c64, Complex64};
use rand::Rng;

/// Draws one complex Gaussian noise sample with total power `power`
/// (i.e. variance `power/2` per real dimension).
pub fn noise_sample<R: Rng>(power: f64, rng: &mut R) -> Complex64 {
    let s = (power / 2.0).sqrt();
    c64(sample_normal(rng), sample_normal(rng)).scale(s)
}

/// Adds complex AWGN of the given power to a stream in place.
// nplus:allow(VIS001): the receiver noise of the sample-level PHY chain that tests/phy_chain.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn add_noise<R: Rng>(stream: &mut [Complex64], power: f64, rng: &mut R) {
    if power <= 0.0 {
        return;
    }
    for z in stream.iter_mut() {
        *z += noise_sample(power, rng);
    }
}

/// Measured SNR (dB) of `signal_plus_noise` given a reference noise power.
pub fn snr_db(signal_power: f64, noise_power: f64) -> f64 {
    10.0 * (signal_power.max(1e-300) / noise_power.max(1e-300)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noise_stream(n: usize, power: f64, rng: &mut StdRng) -> Vec<Complex64> {
        let mut s = vec![Complex64::ZERO; n];
        add_noise(&mut s, power, rng);
        s
    }

    #[test]
    fn noise_power_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(10);
        for &p in &[0.1, 1.0, 4.0] {
            let s = noise_stream(40_000, p, &mut rng);
            let measured = s.iter().map(|z| z.norm_sqr()).sum::<f64>() / s.len() as f64;
            assert!(
                (measured / p - 1.0).abs() < 0.05,
                "target {p}, measured {measured}"
            );
        }
    }

    #[test]
    fn noise_is_zero_mean_and_circular() {
        let mut rng = StdRng::seed_from_u64(12);
        let s = noise_stream(40_000, 1.0, &mut rng);
        let mean: Complex64 = s
            .iter()
            .copied()
            .sum::<Complex64>()
            .scale(1.0 / s.len() as f64);
        assert!(mean.abs() < 0.02, "mean {mean:?}");
        // Circular symmetry: E[z^2] ≈ 0 (unlike E[|z|^2] = 1).
        let pseudo: Complex64 = s
            .iter()
            .map(|z| *z * *z)
            .sum::<Complex64>()
            .scale(1.0 / s.len() as f64);
        assert!(pseudo.abs() < 0.03, "pseudo-variance {pseudo:?}");
    }

    #[test]
    fn zero_power_adds_nothing() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut s = vec![c64(1.0, 2.0); 8];
        add_noise(&mut s, 0.0, &mut rng);
        for z in s {
            assert!(z.approx_eq(c64(1.0, 2.0), 1e-15));
        }
    }

    #[test]
    fn snr_db_examples() {
        assert!((snr_db(100.0, 1.0) - 20.0).abs() < 1e-9);
        assert!((snr_db(1.0, 1.0)).abs() < 1e-9);
        assert!((snr_db(0.5, 1.0) + 3.0103).abs() < 1e-3);
    }
}
