//! Multi-dimensional carrier sense (paper §3.2).
//!
//! A contender with `A` antennas receives samples in an `A`-dimensional
//! space. Ongoing transmissions occupy, on each OFDM subcarrier, the
//! subspace spanned by their (per-subcarrier) channel vectors. Projecting
//! the received signal onto the orthogonal complement of that subspace
//! removes the ongoing transmissions entirely, and standard 802.11 carrier
//! sense — power thresholding plus preamble cross-correlation — runs on
//! the projected signal as if the medium were idle.
//!
//! Implementation: the capture is cut into FFT-sized blocks; each block is
//! transformed, each subcarrier's `A`-vector is replaced by its
//! coordinates in the complement subspace (zero-padded back to `A`
//! entries), and the block is transformed back. Power sensing reads the
//! projected power directly; preamble correlation runs on the projected
//! time-domain stream.

use nplus_linalg::{CMatrix, CVector, Complex64, Subspace};
use nplus_phy::fft::{fft, ifft, normalized_cross_correlation};
use nplus_phy::params::{occupied_subcarrier_indices, OfdmConfig};

/// Per-subcarrier occupied-space tracker at one sensing node.
#[derive(Debug, Clone)]
pub struct MultiDimCarrierSense {
    /// Complement of the occupied space, per FFT bin.
    complements: Vec<Subspace>,
    n_antennas: usize,
    cfg: OfdmConfig,
}

impl MultiDimCarrierSense {
    /// Builds the sensor for a node with `n_antennas` antennas and no
    /// ongoing transmissions (complement = full space everywhere).
    #[cfg(test)]
    pub fn idle(n_antennas: usize, cfg: OfdmConfig) -> Self {
        MultiDimCarrierSense {
            complements: vec![Subspace::full(n_antennas); cfg.fft_len],
            n_antennas,
            cfg,
        }
    }

    /// Builds the sensor from the channels of ongoing transmissions.
    ///
    /// `ongoing[t]` is the per-bin channel matrix (`A × streams_t`) of
    /// ongoing transmission `t` as estimated from its preamble: each
    /// column is the effective channel vector of one stream.
    pub fn from_ongoing(n_antennas: usize, cfg: OfdmConfig, ongoing: &[Vec<CMatrix>]) -> Self {
        let mut complements = Vec::with_capacity(cfg.fft_len);
        for k in 0..cfg.fft_len {
            let mut dirs: Vec<CVector> = Vec::new();
            for tx in ongoing {
                let h = &tx[k];
                assert_eq!(h.rows(), n_antennas, "channel rows != sensing antennas");
                for c in 0..h.cols() {
                    dirs.push(h.col(c));
                }
            }
            let occupied = Subspace::span(n_antennas, &dirs);
            complements.push(occupied.complement());
        }
        MultiDimCarrierSense {
            complements,
            n_antennas,
            cfg,
        }
    }

    /// Number of degrees of freedom guaranteed unoccupied: the *minimum*
    /// complement dimension across occupied subcarriers. Generically all
    /// bins agree, but when they differ (e.g. a frequency-selective
    /// channel whose stream directions collapse on some bins) a joiner
    /// must fit the worst bin — its streams occupy the same spatial slot
    /// on every subcarrier. The previous statistic took the *upper*
    /// median on even bin counts, which both over-reported the free
    /// space and was ill-defined as a "median".
    pub fn free_dof(&self) -> usize {
        occupied_subcarrier_indices()
            .iter()
            .map(|&k| self.complements[k].dim())
            .min()
            .unwrap_or(self.n_antennas)
    }

    /// Projects a multi-antenna capture onto the complement of the
    /// occupied space, returning the projected time-domain streams (same
    /// shape as the input, truncated to whole FFT blocks).
    pub(crate) fn project_capture(&self, capture: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
        assert_eq!(capture.len(), self.n_antennas, "capture antenna count");
        let n = self.cfg.fft_len;
        let len = capture[0].len() / n * n;
        let mut out = vec![vec![Complex64::ZERO; len]; self.n_antennas];
        let mut block_freq: Vec<Vec<Complex64>> = vec![Vec::new(); self.n_antennas];
        for b in (0..len).step_by(n) {
            // FFT each antenna's block.
            for (ant, stream) in capture.iter().enumerate() {
                block_freq[ant] = fft(&stream[b..b + n]);
            }
            // Project per bin.
            for k in 0..n {
                let v: CVector = (0..self.n_antennas).map(|ant| block_freq[ant][k]).collect();
                let projected = self.complements[k].project(&v);
                for ant in 0..self.n_antennas {
                    block_freq[ant][k] = projected[ant];
                }
            }
            // Back to time domain.
            for ant in 0..self.n_antennas {
                let t = ifft(&block_freq[ant]);
                out[ant][b..b + n].copy_from_slice(&t);
            }
        }
        out
    }

    /// Average power of the capture after projection — the §6.1 "power
    /// with projection" statistic. With only ongoing transmissions on the
    /// medium this sits at the noise floor; a new transmission raises it.
    pub fn sense_power(&self, capture: &[Vec<Complex64>]) -> f64 {
        let projected = self.project_capture(capture);
        let len = projected[0].len();
        if len == 0 {
            return 0.0;
        }
        let total: f64 = projected
            .iter()
            .flat_map(|s| s.iter())
            .map(|z| z.norm_sqr())
            .sum();
        total / (len as f64)
    }

    /// Raw (unprojected) power of the capture — the baseline 802.11
    /// sensing statistic, for comparison.
    pub fn raw_power(capture: &[Vec<Complex64>]) -> f64 {
        let len = capture.first().map_or(0, |s| s.len());
        if len == 0 {
            return 0.0;
        }
        let total: f64 = capture
            .iter()
            .flat_map(|s| s.iter())
            .map(|z| z.norm_sqr())
            .sum();
        total / (len as f64)
    }

    /// Cross-correlates the projected capture against a preamble template,
    /// returning the maximum normalized correlation across antennas and
    /// lags — the §6.1 "correlation with projection" statistic.
    pub fn detect_preamble(&self, capture: &[Vec<Complex64>], template: &[Complex64]) -> f64 {
        let projected = self.project_capture(capture);
        projected
            .iter()
            .flat_map(|s| normalized_cross_correlation(s, template))
            .fold(0.0, f64::max)
    }

    /// Cross-correlation without projection, for the ablation comparison.
    pub fn detect_preamble_raw(capture: &[Vec<Complex64>], template: &[Complex64]) -> f64 {
        capture
            .iter()
            .flat_map(|s| normalized_cross_correlation(s, template))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::c64;
    use nplus_phy::preamble::stf_time;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cfg() -> OfdmConfig {
        OfdmConfig::usrp2()
    }

    fn flat_channel_matrix(col: &[Complex64], n_fft: usize) -> Vec<CMatrix> {
        let m = CMatrix::from_cols(&[CVector::from_vec(col.to_vec())]);
        vec![m; n_fft]
    }

    /// §3.2's core claim: after projection, a signal arriving along the
    /// ongoing transmission's channel vanishes.
    #[test]
    fn projection_removes_ongoing_signal() {
        let c = cfg();
        let h1 = [c64(0.8, 0.1), c64(-0.3, 0.5), c64(0.2, -0.6)];
        let sensor =
            MultiDimCarrierSense::from_ongoing(3, c, &[flat_channel_matrix(&h1, c.fft_len)]);
        assert_eq!(sensor.free_dof(), 2);
        // tx1's signal: arbitrary waveform times h1 at each antenna.
        let mut rng = StdRng::seed_from_u64(1);
        let wave: Vec<Complex64> = (0..256)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let capture: Vec<Vec<Complex64>> = h1
            .iter()
            .map(|&h| wave.iter().map(|&w| w * h).collect())
            .collect();
        let raw = MultiDimCarrierSense::raw_power(&capture);
        let projected = sensor.sense_power(&capture);
        assert!(raw > 0.01, "raw power {raw}");
        assert!(
            projected < raw * 1e-18,
            "projected power {projected} vs raw {raw}"
        );
    }

    /// A second transmission along an independent channel survives
    /// projection with most of its power.
    #[test]
    fn projection_preserves_new_signal() {
        let c = cfg();
        let h1 = [c64(0.8, 0.1), c64(-0.3, 0.5), c64(0.2, -0.6)];
        let h2 = [c64(0.1, -0.7), c64(0.6, 0.2), c64(-0.4, 0.3)];
        let sensor =
            MultiDimCarrierSense::from_ongoing(3, c, &[flat_channel_matrix(&h1, c.fft_len)]);
        let mut rng = StdRng::seed_from_u64(2);
        let wave: Vec<Complex64> = (0..256)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let capture: Vec<Vec<Complex64>> = h2
            .iter()
            .map(|&h| wave.iter().map(|&w| w * h).collect())
            .collect();
        let raw = MultiDimCarrierSense::raw_power(&capture);
        let projected = sensor.sense_power(&capture);
        // The surviving fraction is sin²θ between h2 and h1 — nonzero
        // for independent directions (these fixed vectors sit ~0.16).
        assert!(projected > 0.1 * raw, "projected {projected} vs raw {raw}");
    }

    /// Fig. 9(a): a weak new transmission hidden under a strong ongoing
    /// one becomes clearly visible after projection.
    #[test]
    fn weak_joiner_visible_after_projection() {
        let c = cfg();
        let h1 = [c64(0.8, 0.1), c64(-0.3, 0.5), c64(0.2, -0.6)];
        let h2 = [c64(0.1, -0.7), c64(0.6, 0.2), c64(-0.4, 0.3)];
        let sensor =
            MultiDimCarrierSense::from_ongoing(3, c, &[flat_channel_matrix(&h1, c.fft_len)]);
        let mut rng = StdRng::seed_from_u64(3);
        let strong: Vec<Complex64> = (0..512)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(10.0))
            .collect();
        let weak: Vec<Complex64> = (0..512)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(0.5))
            .collect();
        // Phase 1: only tx1.
        let cap1: Vec<Vec<Complex64>> = h1
            .iter()
            .map(|&h| strong.iter().map(|&w| w * h).collect())
            .collect();
        // Phase 2: tx1 + tx2.
        let cap2: Vec<Vec<Complex64>> = h1
            .iter()
            .zip(&h2)
            .map(|(&ha, &hb)| {
                strong
                    .iter()
                    .zip(&weak)
                    .map(|(&s, &w)| s * ha + w * hb)
                    .collect()
            })
            .collect();
        // Raw power barely moves (weak tx2 under strong tx1)...
        let raw_jump =
            MultiDimCarrierSense::raw_power(&cap2) / MultiDimCarrierSense::raw_power(&cap1);
        // ...but projected power jumps by orders of magnitude.
        let p1 = sensor.sense_power(&cap1).max(1e-30);
        let p2 = sensor.sense_power(&cap2);
        let proj_jump = p2 / p1;
        assert!(raw_jump < 1.2, "raw jump {raw_jump}");
        assert!(proj_jump > 1e3, "projected jump {proj_jump}");
    }

    /// Fig. 9(b): preamble correlation after projection detects a weak
    /// preamble under strong interference; raw correlation misses it.
    #[test]
    fn preamble_detection_through_interference() {
        let c = cfg();
        let h1 = [c64(0.9, 0.0), c64(-0.2, 0.4), c64(0.3, -0.5)];
        let h2 = [c64(0.0, -0.6), c64(0.7, 0.1), c64(-0.3, 0.4)];
        let sensor =
            MultiDimCarrierSense::from_ongoing(3, c, &[flat_channel_matrix(&h1, c.fft_len)]);
        let stf = stf_time(&c);
        let mut rng = StdRng::seed_from_u64(4);
        let interference: Vec<Complex64> = (0..stf.len())
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(8.0))
            .collect();
        // Capture: strong tx1 interference + weak STF from tx2 + noise.
        let capture: Vec<Vec<Complex64>> = h1
            .iter()
            .zip(&h2)
            .map(|(&ha, &hb)| {
                interference
                    .iter()
                    .zip(&stf)
                    .map(|(&i, &s)| {
                        i * ha
                            + s.scale(0.7) * hb
                            + c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5).scale(0.3)
                    })
                    .collect()
            })
            .collect();
        let raw = MultiDimCarrierSense::detect_preamble_raw(&capture, &stf[..64]);
        let projected = sensor.detect_preamble(&capture, &stf[..64]);
        assert!(
            projected > raw + 0.15,
            "projection should sharpen detection: raw {raw}, projected {projected}"
        );
        assert!(
            projected > 0.5,
            "projected correlation too weak: {projected}"
        );
    }

    #[test]
    fn idle_sensor_is_transparent() {
        let c = cfg();
        let sensor = MultiDimCarrierSense::idle(2, c);
        assert_eq!(sensor.free_dof(), 2);
        let mut rng = StdRng::seed_from_u64(5);
        let capture: Vec<Vec<Complex64>> = (0..2)
            .map(|_| {
                (0..128)
                    .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
                    .collect()
            })
            .collect();
        let raw = MultiDimCarrierSense::raw_power(&capture);
        let proj = sensor.sense_power(&capture);
        assert!((raw - proj).abs() / raw < 1e-9);
    }

    #[test]
    fn two_ongoing_leave_one_dof() {
        let c = cfg();
        let h1 = [c64(0.8, 0.1), c64(-0.3, 0.5), c64(0.2, -0.6)];
        let h2 = [c64(0.1, -0.7), c64(0.6, 0.2), c64(-0.4, 0.3)];
        let sensor = MultiDimCarrierSense::from_ongoing(
            3,
            c,
            &[
                flat_channel_matrix(&h1, c.fft_len),
                flat_channel_matrix(&h2, c.fft_len),
            ],
        );
        assert_eq!(sensor.free_dof(), 1);
    }

    /// Regression: `free_dof` took the upper median across occupied
    /// bins, so a single worst bin with less free space was ignored —
    /// and on even bin counts the "median" was biased upward. With
    /// per-bin complements that genuinely differ, the statistic must be
    /// the conservative minimum.
    #[test]
    fn free_dof_is_minimum_across_differing_bins() {
        let c = cfg();
        let h1 = [c64(0.8, 0.1), c64(-0.3, 0.5), c64(0.2, -0.6)];
        let h2 = [c64(0.1, -0.7), c64(0.6, 0.2), c64(-0.4, 0.3)];
        let occ = occupied_subcarrier_indices();
        // One ongoing transmission whose stream count varies per bin:
        // two independent columns on the first occupied bin (1 free DoF
        // at a 3-antenna sensor), one column everywhere else (2 free).
        let one_col = CMatrix::from_cols(&[CVector::from_vec(h1.to_vec())]);
        let two_cols = CMatrix::from_cols(&[
            CVector::from_vec(h1.to_vec()),
            CVector::from_vec(h2.to_vec()),
        ]);
        let per_bin: Vec<CMatrix> = (0..c.fft_len)
            .map(|k| {
                if k == occ[0] {
                    two_cols.clone()
                } else {
                    one_col.clone()
                }
            })
            .collect();
        let sensor = MultiDimCarrierSense::from_ongoing(3, c, &[per_bin]);
        // The upper median over [1, 2, 2, …] was 2; the worst bin has 1.
        assert_eq!(sensor.free_dof(), 1);
        assert_eq!(sensor.n_antennas, 3);
    }
}
