//! MIMO link channels.
//!
//! A [`MimoLink`] bundles the `N_rx × M_tx` tapped-delay-line channels of
//! one transmitter→receiver link, together with the large-scale amplitude
//! from the link budget. It serves three consumers:
//!
//! * the **medium simulator** applies the link in the time domain
//!   ([`MimoLink::apply`]);
//! * the **precoder** reads per-subcarrier channel matrices
//!   ([`MimoLink::channel_matrix`]);
//! * **reciprocity** ([`MimoLink::reverse`]) derives the reverse channel
//!   from the same taps — electromagnetically exact, as the paper argues
//!   (§2); hardware asymmetry is layered on by
//!   [`crate::impairments::HardwareProfile`].

use crate::fading::{DelayProfile, FadingChannel};
use nplus_linalg::{CMatrix, Complex64};
use rand::Rng;

/// The small-scale + large-scale channel of one directed link.
#[derive(Debug, Clone)]
pub struct MimoLink {
    /// `fading[rx][tx]`: per antenna-pair FIR channels.
    fading: Vec<Vec<FadingChannel>>,
    /// Amplitude applied to every path (large-scale gain; in the medium's
    /// noise-normalized units, `amplitude^2` = mean per-antenna SNR).
    amplitude: f64,
    n_tx: usize,
    n_rx: usize,
}

impl MimoLink {
    /// Draws a link realization: independent fading per antenna pair
    /// (antenna spacing in rich scattering), one common large-scale gain.
    pub fn sample<R: Rng>(
        n_tx: usize,
        n_rx: usize,
        amplitude: f64,
        profile: &DelayProfile,
        rng: &mut R,
    ) -> Self {
        assert!(n_tx >= 1 && n_rx >= 1);
        let fading = (0..n_rx)
            .map(|_| {
                (0..n_tx)
                    .map(|_| FadingChannel::sample(profile, rng))
                    .collect()
            })
            .collect();
        MimoLink {
            fading,
            amplitude,
            n_tx,
            n_rx,
        }
    }

    /// An ideal flat link with the given amplitude.
    #[cfg(test)]
    pub(crate) fn flat(n_tx: usize, n_rx: usize, amplitude: f64) -> Self {
        let fading = (0..n_rx)
            .map(|_| (0..n_tx).map(|_| FadingChannel::identity()).collect())
            .collect();
        MimoLink {
            fading,
            amplitude,
            n_tx,
            n_rx,
        }
    }

    /// Number of transmit antennas.
    pub fn n_tx(&self) -> usize {
        self.n_tx
    }

    /// Number of receive antennas.
    pub fn n_rx(&self) -> usize {
        self.n_rx
    }

    /// Large-scale amplitude.
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// The FIR channel of one antenna pair (including amplitude).
    pub fn pair(&self, rx: usize, tx: usize) -> &FadingChannel {
        &self.fading[rx][tx]
    }

    /// The longest FIR among the antenna pairs (at least 1).
    pub fn max_taps(&self) -> usize {
        self.fading
            .iter()
            .flat_map(|row| row.iter().map(|f| f.taps.len()))
            .max()
            .unwrap_or(1)
    }

    /// The `N_rx × M_tx` channel matrix at FFT bin `k` of an `n_fft` grid
    /// (the `H` of the paper's Eqs. 5–7), including large-scale amplitude.
    pub fn channel_matrix(&self, k: usize, n_fft: usize) -> CMatrix {
        let mut h = CMatrix::zeros(self.n_rx, self.n_tx);
        for rx in 0..self.n_rx {
            for tx in 0..self.n_tx {
                h.set(
                    rx,
                    tx,
                    self.fading[rx][tx]
                        .freq_response_at(k, n_fft)
                        .scale(self.amplitude),
                );
            }
        }
        h
    }

    /// Channel matrices for every bin of an `n_fft` grid.
    pub fn channel_matrices(&self, n_fft: usize) -> Vec<CMatrix> {
        (0..n_fft).map(|k| self.channel_matrix(k, n_fft)).collect()
    }

    /// Applies the link in the time domain: convolves every transmit
    /// stream with its per-pair FIR and sums per receive antenna.
    ///
    /// `tx_streams[tx]` are per-antenna sample streams of equal length
    /// `L`; the output holds `n_rx` streams of length `L + taps − 1`.
    pub fn apply(&self, tx_streams: &[Vec<Complex64>]) -> Vec<Vec<Complex64>> {
        assert_eq!(tx_streams.len(), self.n_tx, "apply: stream count mismatch");
        let in_len = tx_streams.first().map_or(0, |s| s.len());
        let max_taps = self.max_taps();
        let out_len = if in_len == 0 {
            0
        } else {
            in_len + max_taps - 1
        };
        let mut out = vec![vec![Complex64::ZERO; out_len]; self.n_rx];
        for rx in 0..self.n_rx {
            for tx in 0..self.n_tx {
                let conv = self.fading[rx][tx].convolve(&tx_streams[tx]);
                for (i, &s) in conv.iter().enumerate() {
                    out[rx][i] += s.scale(self.amplitude);
                }
            }
        }
        out
    }

    /// The electromagnetically reciprocal reverse link: `H_rev = H^T`
    /// per subcarrier, i.e. the same FIR taps with tx/rx roles swapped
    /// and the same large-scale amplitude.
    pub fn reverse(&self) -> MimoLink {
        let mut fading = vec![Vec::with_capacity(self.n_rx); self.n_tx];
        for (tx, row) in fading.iter_mut().enumerate() {
            for rx in 0..self.n_rx {
                row.push(self.fading[rx][tx].clone());
            }
        }
        MimoLink {
            fading,
            amplitude: self.amplitude,
            n_tx: self.n_rx,
            n_rx: self.n_tx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::c64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn channel_matrix_shape_and_amplitude() {
        let link = MimoLink::flat(3, 2, 2.0);
        let h = link.channel_matrix(5, 64);
        assert_eq!(h.shape(), (2, 3));
        for i in 0..2 {
            for j in 0..3 {
                assert!(h.get(i, j).approx_eq(c64(2.0, 0.0), 1e-12));
            }
        }
    }

    #[test]
    fn reverse_is_transpose_per_subcarrier() {
        let mut rng = StdRng::seed_from_u64(4);
        let link = MimoLink::sample(3, 2, 1.5, &DelayProfile::nlos(), &mut rng);
        let rev = link.reverse();
        assert_eq!(rev.n_tx(), 2);
        assert_eq!(rev.n_rx(), 3);
        for k in [0usize, 7, 31, 63] {
            let h = link.channel_matrix(k, 64);
            let hr = rev.channel_matrix(k, 64);
            assert!(hr.approx_eq(&h.hermitian().conj(), 1e-12), "bin {k}");
        }
        // Reciprocity is an involution.
        let back = rev.reverse();
        for k in [3usize, 40] {
            assert!(back
                .channel_matrix(k, 64)
                .approx_eq(&link.channel_matrix(k, 64), 1e-12));
        }
    }

    #[test]
    fn apply_matches_channel_matrix_for_tones() {
        // Sending a subcarrier tone through the time-domain path must
        // reproduce the frequency-domain channel matrix in steady state.
        let mut rng = StdRng::seed_from_u64(8);
        let link = MimoLink::sample(2, 2, 0.7, &DelayProfile::los(), &mut rng);
        let n_fft = 64;
        let k = 12;
        let tone: Vec<Complex64> = (0..192)
            .map(|t| Complex64::cis(2.0 * std::f64::consts::PI * (k * t) as f64 / n_fft as f64))
            .collect();
        // Transmit the tone from antenna 0 only.
        let silent = vec![Complex64::ZERO; tone.len()];
        let rx = link.apply(&[tone.clone(), silent]);
        let h = link.channel_matrix(k, n_fft);
        for rx_ant in 0..2 {
            for t in 20..100 {
                let expect = tone[t] * h.get(rx_ant, 0);
                assert!(
                    rx[rx_ant][t].approx_eq(expect, 1e-9),
                    "rx {rx_ant} sample {t}"
                );
            }
        }
    }

    #[test]
    fn apply_superimposes_antennas() {
        let link = MimoLink::flat(2, 1, 1.0);
        let a = vec![c64(1.0, 0.0); 4];
        let b = vec![c64(0.0, 1.0); 4];
        let rx = link.apply(&[a, b]);
        for t in 0..4 {
            assert!(rx[0][t].approx_eq(c64(1.0, 1.0), 1e-12));
        }
    }

    #[test]
    fn with_amplitude_scales_everything() {
        let draw = |amp| {
            MimoLink::sample(
                2,
                2,
                amp,
                &DelayProfile::nlos(),
                &mut StdRng::seed_from_u64(19),
            )
        };
        let (link, half) = (draw(1.0), draw(0.5));
        let h1 = link.channel_matrix(10, 64);
        let h2 = half.channel_matrix(10, 64);
        assert!(h2.approx_eq(&h1.scale_re(0.5), 1e-12));
    }

    #[test]
    fn independent_fading_across_pairs() {
        let mut rng = StdRng::seed_from_u64(31);
        let link = MimoLink::sample(2, 2, 1.0, &DelayProfile::nlos(), &mut rng);
        let h = link.channel_matrix(0, 64);
        // All four entries should differ (independent draws).
        let entries = [h.get(0, 0), h.get(0, 1), h.get(1, 0), h.get(1, 1)];
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert!(
                    !entries[i].approx_eq(entries[j], 1e-9),
                    "entries {i} and {j} identical"
                );
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let link = MimoLink::flat(1, 1, 1.0);
        let rx = link.apply(&[Vec::new()]);
        assert!(rx[0].is_empty());
    }
}
