//! Hardware impairment model.
//!
//! On real radios, nulling and alignment never cancel interference
//! perfectly (paper §4, §6.2): the transmitter's knowledge of the channel
//! is imperfect and the transmit chain itself is noisy. The paper measures
//! a cancellation depth of 25–27 dB and residual SNR losses of 0.8 dB
//! (nulling) / 1.3 dB (alignment). This module models the three physical
//! sources of that residual:
//!
//! 1. **Channel estimation noise** — estimates from a preamble at SNR γ
//!    carry error variance ∝ 1/γ per subcarrier.
//! 2. **Reciprocity calibration error** — the forward channel is inferred
//!    from the reverse one; hardware Tx/Rx chain asymmetry is calibrated
//!    offline (per \[4,14\] in the paper) but a small multiplicative
//!    residual remains.
//! 3. **Transmit EVM** — amplifier/DAC non-linearities add a noise floor
//!    proportional to the transmitted power, independent of precoding.
//!
//! The alignment path additionally estimates the receiver's unwanted
//! subspace, which is why alignment shows a larger residual than nulling —
//! our model reproduces this because the alignment constraint composes
//! *two* estimated quantities (`U^⊥` and `H`).

use crate::pathloss::{sample_normal, skip_normal};
use nplus_linalg::{c64, CMatrix, Complex64};
use rand::Rng;

/// Radio hardware quality knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareProfile {
    /// Transmit error-vector magnitude floor, dB relative to the signal
    /// (−32 dB is typical of WLAN-class radios and yields the paper's
    /// 25–27 dB cancellation depth together with estimation error).
    pub tx_evm_db: f64,
    /// Std-dev of the residual multiplicative reciprocity calibration
    /// error per antenna pair (complex, relative).
    pub calibration_error_std: f64,
    /// Effective SNR (dB) of the preamble-based channel estimator; the
    /// per-subcarrier estimate carries complex Gaussian error with power
    /// `|h|^2 / 10^(est_snr/10)`.
    pub estimation_snr_db: f64,
}

impl Default for HardwareProfile {
    fn default() -> Self {
        Self::wlan_class()
    }
}

impl HardwareProfile {
    /// The paper's USRP2/WLAN-class radio quality (the crate-wide
    /// default): together with estimation error it yields the measured
    /// 25–27 dB cancellation depth. `const` so environments can hold
    /// it in statics.
    pub(crate) const fn wlan_class() -> Self {
        HardwareProfile {
            tx_evm_db: -32.0,
            calibration_error_std: 0.02,
            estimation_snr_db: 30.0,
        }
    }

    /// A worn/stressed radio: 10 dB worse EVM floor, 3× the calibration
    /// residual, 10 dB worse estimator — dropping
    /// `expected_cancellation_depth_db`
    /// to ~17 dB. The `degraded_hardware` environment uses it to stress
    /// the §4 cancellation-depth assumption `L`.
    pub(crate) const fn degraded() -> Self {
        HardwareProfile {
            tx_evm_db: -22.0,
            calibration_error_std: 0.06,
            estimation_snr_db: 20.0,
        }
    }

    /// Linear amplitude of the transmit EVM floor.
    pub fn tx_evm_amplitude(&self) -> f64 {
        10f64.powf(self.tx_evm_db / 20.0)
    }

    /// Perturbs a reverse-channel-derived estimate with the calibration
    /// residual: a per-entry multiplicative complex error
    /// `(1 + ε)`, `ε ~ CN(0, calibration_error_std²)`.
    pub fn apply_calibration_error<R: Rng>(&self, h: &CMatrix, rng: &mut R) -> CMatrix {
        let mut out = h.clone();
        self.apply_calibration_error_in_place(&mut out, rng);
        out
    }

    /// What a joining transmitter believes the *forward* channel to a
    /// receiver is, given the true forward matrix: reciprocity reading
    /// (estimation noise on the reverse direction) plus calibration
    /// residual. This composed error is what bounds nulling depth.
    /// Allocating wrapper over
    /// [`HardwareProfile::reciprocal_channel_knowledge_into`].
    pub fn reciprocal_channel_knowledge<R: Rng>(&self, h_true: &CMatrix, rng: &mut R) -> CMatrix {
        let mut out = CMatrix::default();
        self.reciprocal_channel_knowledge_into(h_true, rng, &mut out);
        out
    }

    /// Writes the corrupted estimate of `h` into `out` (buffers reused),
    /// drawing two normals per entry in row-major order.
    pub(crate) fn corrupt_estimate_into<R: Rng>(
        &self,
        h: &CMatrix,
        rng: &mut R,
        out: &mut CMatrix,
    ) {
        let err_amp = 10f64.powf(-self.estimation_snr_db / 20.0);
        out.assign_from(h);
        for i in 0..h.rows() {
            for j in 0..h.cols() {
                let scale = h.get(i, j).abs() * err_amp / 2f64.sqrt();
                let e = c64(sample_normal(rng), sample_normal(rng)).scale(scale);
                out.set(i, j, out.get(i, j) + e);
            }
        }
    }

    /// In-place form of [`HardwareProfile::apply_calibration_error`].
    /// A zero residual draws nothing.
    pub(crate) fn apply_calibration_error_in_place<R: Rng>(&self, h: &mut CMatrix, rng: &mut R) {
        if self.calibration_error_std == 0.0 {
            return;
        }
        let s = self.calibration_error_std / 2f64.sqrt();
        for i in 0..h.rows() {
            for j in 0..h.cols() {
                let eps = c64(sample_normal(rng), sample_normal(rng)).scale(s);
                h.set(i, j, h.get(i, j) * (Complex64::ONE + eps));
            }
        }
    }

    /// [`HardwareProfile::reciprocal_channel_knowledge`] into a reusable
    /// buffer: estimation noise, then the calibration residual.
    pub fn reciprocal_channel_knowledge_into<R: Rng>(
        &self,
        h_true: &CMatrix,
        rng: &mut R,
        out: &mut CMatrix,
    ) {
        self.corrupt_estimate_into(h_true, rng, out);
        self.apply_calibration_error_in_place(out, rng);
    }

    /// Advances `rng` past exactly the draws
    /// [`HardwareProfile::reciprocal_channel_knowledge_into`] makes for a
    /// matrix of `entries` entries, computing none of them: two normals
    /// per entry for estimation, plus two for calibration unless the
    /// residual is zero. Consumption is a concatenation of normal draws,
    /// so their order does not matter. For a believed channel whose
    /// values nothing reads.
    pub fn skip_channel_knowledge<R: Rng>(&self, entries: usize, rng: &mut R) {
        let per_entry = if self.calibration_error_std == 0.0 {
            2
        } else {
            4
        };
        for _ in 0..entries * per_entry {
            skip_normal(rng);
        }
    }

    /// The expected cancellation depth (dB) this profile can achieve:
    /// interference is suppressed until limited by the *sum* of the
    /// estimation error power and EVM floor. Used by n+'s join-power
    /// control as the protocol's `L` parameter when derived from hardware
    /// (the paper measures L ≈ 25–27 dB).
    pub(crate) fn expected_cancellation_depth_db(&self) -> f64 {
        let est = 10f64.powf(-self.estimation_snr_db / 10.0);
        let cal = self.calibration_error_std.powi(2);
        let evm = 10f64.powf(self.tx_evm_db / 10.0);
        -10.0 * (est + cal + evm).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn corrupt(p: &HardwareProfile, h: &CMatrix, rng: &mut StdRng) -> CMatrix {
        let mut out = CMatrix::default();
        p.corrupt_estimate_into(h, rng, &mut out);
        out
    }

    /// `‖a − b‖_F²`.
    fn distance_sqr(a: &CMatrix, b: &CMatrix) -> f64 {
        let mut d = a.clone();
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                d.set(i, j, a.get(i, j) - b.get(i, j));
            }
        }
        d.frobenius_norm().powi(2)
    }

    fn random_h(rng: &mut StdRng) -> CMatrix {
        let data: Vec<Complex64> = (0..6)
            .map(|_| c64(sample_normal(rng), sample_normal(rng)))
            .collect();
        CMatrix::from_vec(2, 3, data)
    }

    #[test]
    fn default_profile_gives_paper_cancellation_depth() {
        let p = HardwareProfile::default();
        let depth = p.expected_cancellation_depth_db();
        assert!(
            (24.0..=28.0).contains(&depth),
            "cancellation depth {depth:.1} dB outside the paper's 25–27 dB band"
        );
    }

    #[test]
    fn ideal_hardware_is_transparent() {
        let ideal = HardwareProfile {
            tx_evm_db: -300.0,
            calibration_error_std: 0.0,
            estimation_snr_db: 300.0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let h = random_h(&mut rng);
        let est = ideal.reciprocal_channel_knowledge(&h, &mut rng);
        assert!(est.approx_eq(&h, 1e-12));
    }

    #[test]
    fn estimate_error_magnitude_tracks_snr() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = HardwareProfile {
            estimation_snr_db: 20.0,
            ..HardwareProfile::default()
        };
        let n = 2000;
        let mut rel_err = 0.0;
        for _ in 0..n {
            let h = random_h(&mut rng);
            let est = corrupt(&p, &h, &mut rng);
            rel_err += distance_sqr(&est, &h) / h.frobenius_norm().powi(2);
        }
        rel_err /= n as f64;
        let expect = 10f64.powf(-2.0); // -20 dB
        assert!(
            (rel_err / expect - 1.0).abs() < 0.15,
            "relative error power {rel_err:.5} vs {expect:.5}"
        );
    }

    #[test]
    fn calibration_error_is_multiplicative() {
        let mut rng = StdRng::seed_from_u64(4);
        let p = HardwareProfile {
            calibration_error_std: 0.1,
            ..HardwareProfile::default()
        };
        // A zero channel stays zero under multiplicative error.
        let zero = CMatrix::zeros(2, 2);
        let out = p.apply_calibration_error(&zero, &mut rng);
        assert!(out.approx_eq(&zero, 1e-12));
    }

    #[test]
    fn soa_impairments_match_interleaved_bitwise() {
        let p = HardwareProfile::default();
        let mut rng_a = StdRng::seed_from_u64(77);
        let h = random_h(&mut rng_a);
        // Same seed, allocating and pooled forms: the RNG streams must
        // stay in lockstep.
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        let expect = p.reciprocal_channel_knowledge(&h, &mut r1);
        let mut out = CMatrix::default();
        p.reciprocal_channel_knowledge_into(&h, &mut r2, &mut out);
        for i in 0..h.rows() {
            for j in 0..h.cols() {
                assert_eq!(out.get(i, j).re.to_bits(), expect.get(i, j).re.to_bits());
                assert_eq!(out.get(i, j).im.to_bits(), expect.get(i, j).im.to_bits());
            }
        }
        // After both paths the RNGs must agree on the next draw.
        assert_eq!(
            sample_normal(&mut r1).to_bits(),
            sample_normal(&mut r2).to_bits()
        );
        // Zero calibration residual must not consume RNG state.
        let quiet = HardwareProfile {
            calibration_error_std: 0.0,
            ..p
        };
        let mut r3 = StdRng::seed_from_u64(10);
        let mut r4 = StdRng::seed_from_u64(10);
        let mut copy = out.clone();
        quiet.apply_calibration_error_in_place(&mut copy, &mut r3);
        assert_eq!(
            sample_normal(&mut r3).to_bits(),
            sample_normal(&mut r4).to_bits()
        );
    }

    #[test]
    fn skip_channel_knowledge_consumes_what_the_draw_consumes() {
        let ideal = HardwareProfile {
            tx_evm_db: -300.0,
            calibration_error_std: 0.0,
            estimation_snr_db: 300.0,
        };
        let uncalibrated = HardwareProfile {
            calibration_error_std: 0.0,
            ..HardwareProfile::wlan_class()
        };
        let profiles = [
            HardwareProfile::wlan_class(),
            HardwareProfile::degraded(),
            ideal,
            uncalibrated,
        ];
        let mut src = StdRng::seed_from_u64(31);
        let mut out = CMatrix::default();
        for (pi, p) in profiles.iter().enumerate() {
            for rows in 1..=8 {
                for cols in 1..=8 {
                    let data: Vec<Complex64> = (0..rows * cols)
                        .map(|_| c64(sample_normal(&mut src), sample_normal(&mut src)))
                        .collect();
                    let h = CMatrix::from_vec(rows, cols, data);
                    let seed = (pi * 100 + rows * 10 + cols) as u64;
                    let mut drawn = StdRng::seed_from_u64(seed);
                    let mut skipped = StdRng::seed_from_u64(seed);
                    p.reciprocal_channel_knowledge_into(&h, &mut drawn, &mut out);
                    p.skip_channel_knowledge(rows * cols, &mut skipped);
                    assert_eq!(
                        drawn.next_u64(),
                        skipped.next_u64(),
                        "profile {pi}, {rows}x{cols}"
                    );
                }
            }
        }
    }

    #[test]
    fn composed_knowledge_error_larger_than_each_part() {
        let mut rng = StdRng::seed_from_u64(5);
        let p = HardwareProfile::default();
        let n = 3000;
        let (mut est_only, mut composed) = (0.0, 0.0);
        for _ in 0..n {
            let h = random_h(&mut rng);
            let e1 = corrupt(&p, &h, &mut rng);
            let e2 = p.reciprocal_channel_knowledge(&h, &mut rng);
            est_only += distance_sqr(&e1, &h);
            composed += distance_sqr(&e2, &h);
        }
        assert!(
            composed > est_only,
            "composed error {composed} not larger than estimation-only {est_only}"
        );
    }
}
