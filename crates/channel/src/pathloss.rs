//! Large-scale path loss and shadowing.
//!
//! A standard indoor log-distance model calibrated so that the paper's
//! 20-location testbed (the map
//! [`SIGCOMM11_INDOOR`](crate::environment::SIGCOMM11_INDOOR) places
//! on) produces link SNRs spanning roughly 5–35 dB at 2.4 GHz — the
//! range over which the paper's Fig. 11 sweeps the "original SNR of
//! the unwanted signal" (7.5–32.5 dB bins).

use rand::Rng;

/// Log-distance path-loss model with log-normal shadowing.
#[derive(Debug, Clone, Copy, PartialEq)]
// nplus:allow(VIS001): the type of the public field `Environment::path_loss`
pub struct PathLossModel {
    /// Reference loss at 1 m (dB). ~40 dB at 2.4 GHz.
    pub pl0_db: f64,
    /// Path-loss exponent for line-of-sight links.
    pub exponent_los: f64,
    /// Path-loss exponent for non-line-of-sight links.
    pub exponent_nlos: f64,
    /// Extra per-wall penetration loss for NLOS links (dB).
    pub wall_loss_db: f64,
    /// Log-normal shadowing standard deviation (dB).
    pub shadowing_sigma_db: f64,
}

impl Default for PathLossModel {
    fn default() -> Self {
        Self::indoor()
    }
}

impl PathLossModel {
    /// The paper's indoor office model (the crate-wide default).
    ///
    /// Calibrated against the Fig. 10-style testbed geometry so that
    /// pairwise link SNRs under the default LinkBudget span ~3.5–36 dB
    /// with a ~20 dB median — the operating range the paper's Fig. 11
    /// sweeps (7.5–32.5 dB unwanted-signal bins). pl0 folds in antenna
    /// and front-end inefficiencies of the USRP2-class radios. `const`
    /// so environments can hold it in statics.
    pub(crate) const fn indoor() -> Self {
        PathLossModel {
            pl0_db: 68.0,
            exponent_los: 2.0,
            exponent_nlos: 2.8,
            wall_loss_db: 5.0,
            shadowing_sigma_db: 3.0,
        }
    }
}

impl PathLossModel {
    /// Deterministic (median) path loss in dB at `distance_m` meters.
    pub(crate) fn median_loss_db(&self, distance_m: f64, nlos: bool) -> f64 {
        let d = distance_m.max(1.0);
        let exp = if nlos {
            self.exponent_nlos
        } else {
            self.exponent_los
        };
        let wall = if nlos { self.wall_loss_db } else { 0.0 };
        self.pl0_db + 10.0 * exp * d.log10() + wall
    }

    /// Path loss with a shadowing draw (dB).
    pub fn sample_loss_db<R: Rng>(&self, distance_m: f64, nlos: bool, rng: &mut R) -> f64 {
        self.median_loss_db(distance_m, nlos) + sample_normal(rng) * self.shadowing_sigma_db
    }
}

/// Link power budget: converts transmit power and path loss to the mean
/// received SNR given a noise floor.
#[derive(Debug, Clone, Copy, PartialEq)]
// nplus:allow(VIS001): the type of the public field `Environment::budget`
pub struct LinkBudget {
    /// Transmit power (dBm). Typical WLAN/USRP2 operating point.
    pub tx_power_dbm: f64,
    /// Receiver noise floor (dBm) over the channel bandwidth.
    pub noise_floor_dbm: f64,
}

impl Default for LinkBudget {
    fn default() -> Self {
        Self::usrp2()
    }
}

impl LinkBudget {
    /// The paper's USRP2-class budget (the crate-wide default): 12 dBm
    /// transmit, kTB at 10 MHz ≈ −104 dBm plus a 6 dB noise figure.
    /// `const` so environments can hold it in statics.
    pub(crate) const fn usrp2() -> Self {
        LinkBudget {
            tx_power_dbm: 12.0,
            noise_floor_dbm: -98.0,
        }
    }

    /// Mean received SNR (dB) across a link with the given path loss.
    pub(crate) fn snr_db(&self, path_loss_db: f64) -> f64 {
        self.tx_power_dbm - path_loss_db - self.noise_floor_dbm
    }

    /// Amplitude scale factor corresponding to a path loss in dB, such
    /// that a unit-power transmit waveform arrives with linear power
    /// `10^(-loss/10)` *relative to the noise floor taken as 0 dB*.
    ///
    /// The medium simulator works in noise-floor-normalized units: the
    /// AWGN added at every receiver has unit variance, and signal
    /// amplitudes are scaled so that `|h|^2 = SNR_linear`.
    pub fn amplitude_scale(&self, path_loss_db: f64) -> f64 {
        let snr_db = self.snr_db(path_loss_db);
        10f64.powf(snr_db / 20.0)
    }
}

/// The one consumption rule of a standard normal: pulls `u64` pairs
/// until the pair's first uniform `u1` is positive, and returns the
/// accepted `(u1, u2)`. [`sample_normal`] and [`skip_normal`] both go
/// through it, so skipping a normal leaves the RNG exactly where drawing
/// it would.
#[inline(always)]
fn accepted_uniform_pair<R: Rng>(rng: &mut R) -> (f64, f64) {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (u1, u2);
        }
    }
}

/// Draws one standard normal sample (Box–Muller). Embedded here so the
/// crate does not need `rand_distr`. Mean 0, standard deviation 1.
pub(crate) fn sample_normal<R: Rng>(rng: &mut R) -> f64 {
    let (u1, u2) = accepted_uniform_pair(rng);
    let r = (-2.0 * u1.ln()).sqrt();
    r * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Advances `rng` past one [`sample_normal`] draw without computing it:
/// the same `u64`s are consumed, and no `ln`, `sqrt` or `cos` is paid.
pub(crate) fn skip_normal<R: Rng>(rng: &mut R) {
    accepted_uniform_pair(rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn loss_grows_with_distance() {
        let m = PathLossModel::default();
        let mut last = 0.0;
        for d in [1.0, 2.0, 5.0, 10.0, 20.0] {
            let l = m.median_loss_db(d, false);
            assert!(l > last);
            last = l;
        }
    }

    #[test]
    fn nlos_lossier_than_los() {
        let m = PathLossModel::default();
        for d in [2.0, 8.0, 15.0] {
            assert!(m.median_loss_db(d, true) > m.median_loss_db(d, false) + 5.0);
        }
    }

    #[test]
    fn below_one_meter_clamps() {
        let m = PathLossModel::default();
        assert_eq!(m.median_loss_db(0.1, false), m.median_loss_db(1.0, false));
    }

    #[test]
    fn testbed_snr_range_matches_paper() {
        // Across the default testbed geometry, link SNRs should span
        // roughly the 5–35 dB range the paper's experiments sweep.
        use crate::placement::Testbed;
        let tb = Testbed::sigcomm11();
        let m = PathLossModel::default();
        let b = LinkBudget::default();
        let mut min_snr = f64::INFINITY;
        let mut max_snr = f64::NEG_INFINITY;
        let locs = tb.locations();
        for i in 0..locs.len() {
            for j in (i + 1)..locs.len() {
                let d = locs[i].pos.distance(&locs[j].pos);
                let nlos = tb.link_is_nlos(&locs[i], &locs[j]);
                let snr = b.snr_db(m.median_loss_db(d, nlos));
                min_snr = min_snr.min(snr);
                max_snr = max_snr.max(snr);
            }
        }
        assert!(
            min_snr > 0.0 && min_snr < 15.0,
            "weakest link {min_snr:.1} dB out of range"
        );
        assert!(
            max_snr > 28.0 && max_snr < 45.0,
            "strongest link {max_snr:.1} dB out of range"
        );
    }

    #[test]
    fn shadowing_has_spread() {
        let m = PathLossModel::default();
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..500)
            .map(|_| m.sample_loss_db(5.0, false, &mut rng))
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        let median = m.median_loss_db(5.0, false);
        assert!(
            (mean - median).abs() < 0.5,
            "mean {mean} vs median {median}"
        );
        assert!((var.sqrt() - 3.0).abs() < 0.5, "sigma {}", var.sqrt());
    }

    #[test]
    fn normal_sampler_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// Replays a fixed `u64` script and counts what it hands out.
    struct Scripted {
        words: Vec<u64>,
        next: usize,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let w = self.words[self.next];
            self.next += 1;
            w
        }
    }

    #[test]
    fn skip_normal_consumes_what_sample_normal_consumes() {
        // `x >> 11 == 0` makes `u1` exactly 0: the pair is rejected and
        // a second pair is pulled, by both paths alike.
        let script = vec![0x7ff, 0x1234_5678, u64::MAX / 3, u64::MAX / 5, 42];
        let mut drawn = Scripted {
            words: script.clone(),
            next: 0,
        };
        let mut skipped = Scripted {
            words: script,
            next: 0,
        };
        assert!(sample_normal(&mut drawn).is_finite());
        skip_normal(&mut skipped);
        assert_eq!((drawn.next, skipped.next), (4, 4));

        // The accepting branch, along a real stream.
        for seed in 0..64 {
            let mut drawn = StdRng::seed_from_u64(seed);
            let mut skipped = StdRng::seed_from_u64(seed);
            for _ in 0..=seed {
                sample_normal(&mut drawn);
                skip_normal(&mut skipped);
            }
            assert_eq!(drawn.next_u64(), skipped.next_u64(), "seed {seed}");
        }
    }

    #[test]
    fn amplitude_scale_squares_to_snr() {
        let b = LinkBudget::default();
        let loss = 80.0;
        let snr_lin = 10f64.powf(b.snr_db(loss) / 10.0);
        let amp = b.amplitude_scale(loss);
        assert!((amp * amp - snr_lin).abs() / snr_lin < 1e-9);
    }
}
