//! Link-level abstraction: zero-forcing decode SINRs through precoded
//! MIMO channels.
//!
//! The throughput experiments (Figs. 12–13) need per-stream decode
//! quality for every receiver under every combination of concurrent
//! precoded transmissions. Running the sample-level Viterbi chain for
//! every packet of every Monte-Carlo round would be both slow and
//! unnecessary — the standard link-to-system mapping is: compute the
//! post-zero-forcing SINR per subcarrier and stream, reduce to an
//! effective SNR, and map through the rate table. The sample-level path
//! (used by the Fig. 9/11 experiments and the examples) validates this
//! abstraction.
//!
//! The receiver's zero-forcing behaviour matches §3.3: it stacks its
//! wanted streams' effective channel vectors together with the directions
//! of the interference it knows about (the aligned/unwanted space) and
//! inverts. Residual interference that the transmitters failed to cancel
//! (hardware error) is *not* known to the receiver and degrades the SINR
//! — exactly the 0.8/1.3 dB effect of Fig. 11.

use nplus_linalg::{pinv_into, CMatrix, CVector, Complex64, PinvWorkspace};
use nplus_phy::rates::RateIndex;

/// The decode environment of one receiver on one subcarrier.
#[derive(Debug, Clone)]
pub struct SubcarrierObservation {
    /// Effective channel vector of each wanted stream (ambient = receive
    /// antennas): `H_own · v_i` for the receiver's streams.
    pub wanted: Vec<CVector>,
    /// Directions of interference the receiver knows and can project out:
    /// the aligned interference / its unwanted space basis.
    pub known_interference: Vec<CVector>,
    /// Leakage vectors of interference the receiver does *not* know:
    /// residual arrival vectors (already scaled by their stream power).
    pub residual_interference: Vec<CVector>,
    /// Receiver noise power (1.0 in the medium's normalized units).
    pub noise_power: f64,
}

/// Computes the post-ZF SINR (linear) of each wanted stream for one
/// subcarrier observation.
///
/// Returns one SINR per wanted stream; zero when the ZF matrix is
/// singular (wanted + known interference exceed the antenna budget or are
/// degenerate). Allocating wrapper over [`zf_sinr_slices_into`].
///
/// # Panics
/// When the wanted, known-interference and residual vectors do not all
/// have the same length (ragged columns).
pub fn zf_sinr(obs: &SubcarrierObservation) -> Vec<f64> {
    let mut out = Vec::new();
    zf_sinr_slices_into(
        &obs.wanted,
        &obs.known_interference,
        &obs.residual_interference,
        obs.noise_power,
        &mut ZfWorkspace::default(),
        &mut out,
    );
    out
}

/// Reusable buffers for [`zf_sinr_slices_into`] and [`ZfFilters::push`]
/// — one per engine, reused across every (round × receiver × subcarrier)
/// evaluation.
#[derive(Debug, Clone, Default)]
pub struct ZfWorkspace {
    a: CMatrix,
    pinv: PinvWorkspace,
    one: ZfFilters,
}

/// Slice form of [`zf_sinr`] into pooled buffers: one [`ZfFilters::push`]
/// (the ZF matrix assembled and inverted by the split-storage
/// pseudo-inverse kernel) and one [`ZfFilters::apply`] writing the SINRs
/// into `out`.
///
/// # Panics
/// As [`zf_sinr`], before any other check: a ragged input panics even
/// when the receiver is over-subscribed.
pub fn zf_sinr_slices_into(
    wanted: &[CVector],
    known_interference: &[CVector],
    residual_interference: &[CVector],
    noise_power: f64,
    ws: &mut ZfWorkspace,
    out: &mut Vec<f64>,
) {
    let all = || {
        wanted
            .iter()
            .chain(known_interference)
            .chain(residual_interference)
    };
    assert_same_length(all().next().map_or(0, CVector::len), all());
    let ZfWorkspace { a, pinv, one } = ws;
    one.clear();
    one.build(wanted, known_interference, a, pinv);
    one.apply(0, residual_interference, noise_power, out);
}

fn assert_same_length<'v>(n_ant: usize, columns: impl Iterator<Item = &'v CVector>) {
    for v in columns {
        assert_eq!(v.len(), n_ant, "ragged column lengths");
    }
}

/// The zero-forcing filters of one receiver, one per subcarrier, in flat
/// storage.
///
/// §3.3's receiver zero-forces over `[wanted | known interference]`.
/// Both are fixed once the receiver is registered, so the solve splits
/// in two: [`push`](ZfFilters::push) (*build*) inverts the matrix once
/// and keeps the wanted rows of its pseudo-inverse with each row's noise
/// gain `Σ_j |w_ij|²`; [`apply`](ZfFilters::apply) folds the residual
/// interference of a particular round through a stored filter. Build
/// then apply is [`zf_sinr_slices_into`] bit for bit, whatever the
/// residuals.
///
/// Every filter in one set has the same shape (wanted count and antenna
/// count, fixed by the first push after [`clear`](ZfFilters::clear)),
/// so the set is three flat buffers that a pooled owner reuses without
/// reallocating.
#[derive(Debug, Clone, Default)]
// nplus:allow(VIS001): the golden tests/kernel_regression.rs pins joint-ZF filters built with it
pub struct ZfFilters {
    n_wanted: usize,
    n_ant: usize,
    /// Per filter: `false` when the receiver cannot decode (over-
    /// subscribed or singular), so every wanted stream gets SINR zero.
    decodable: Vec<bool>,
    /// Wanted rows of each filter's pseudo-inverse, flat
    /// `[filter][row][antenna]`.
    rows: Vec<Complex64>,
    /// Noise gain of each wanted row, flat `[filter][row]`.
    noise_gain: Vec<f64>,
}

impl ZfFilters {
    /// Empties the set, keeping its buffers.
    pub fn clear(&mut self) {
        self.n_wanted = 0;
        self.n_ant = 0;
        self.decodable.clear();
        self.rows.clear();
        self.noise_gain.clear();
    }

    /// Reuses `self`'s buffers to become a copy of `src`.
    pub fn assign_from(&mut self, src: &ZfFilters) {
        self.n_wanted = src.n_wanted;
        self.n_ant = src.n_ant;
        self.decodable.clone_from(&src.decodable);
        self.rows.clone_from(&src.rows);
        self.noise_gain.clone_from(&src.noise_gain);
    }

    /// Builds the filter of one more subcarrier from the receiver's
    /// wanted columns and known-interference directions.
    ///
    /// # Panics
    /// When the columns have different lengths (checked first), or when
    /// their shape differs from the filters already in the set.
    pub fn push(
        &mut self,
        wanted: &[CVector],
        known_interference: &[CVector],
        ws: &mut ZfWorkspace,
    ) {
        self.build(wanted, known_interference, &mut ws.a, &mut ws.pinv);
    }

    fn build(
        &mut self,
        wanted: &[CVector],
        known_interference: &[CVector],
        a: &mut CMatrix,
        pinv: &mut PinvWorkspace,
    ) {
        let columns = || wanted.iter().chain(known_interference);
        let n_ant = columns().next().map_or(0, CVector::len);
        assert_same_length(n_ant, columns());
        let n_wanted = wanted.len();
        if self.decodable.is_empty() {
            self.n_wanted = n_wanted;
            self.n_ant = n_ant;
        } else {
            assert_eq!(
                (n_wanted, n_ant),
                (self.n_wanted, self.n_ant),
                "ZF filter shape changed within one set"
            );
        }
        let n_cols = n_wanted + known_interference.len();
        // Over-subscribed receive space: undecodable.
        let mut decodable = n_wanted > 0 && n_cols <= n_ant;
        if decodable {
            // Assemble the ZF matrix column by column (wanted, then known
            // interference).
            a.reset(n_ant, n_cols);
            for (j, v) in columns().enumerate() {
                for (i, z) in v.iter().enumerate() {
                    a.set(i, j, *z);
                }
            }
            decodable = pinv_into(a, pinv).is_ok();
        }
        self.decodable.push(decodable);
        let w = &pinv.out;
        for i in 0..n_wanted {
            if decodable {
                self.rows.extend((0..n_ant).map(|j| w.get(i, j)));
                self.noise_gain
                    .push((0..n_ant).map(|j| w.get(i, j).norm_sqr()).sum::<f64>());
            } else {
                self.rows.extend((0..n_ant).map(|_| Complex64::ZERO));
                self.noise_gain.push(0.0);
            }
        }
    }

    /// Post-ZF SINR of each wanted stream through filter `f` into `out`
    /// (zeros when that subcarrier is undecodable), with
    /// `residual_interference` the leaks the receiver does not know.
    ///
    /// # Panics
    /// When a residual's length differs from the filters' antenna count
    /// (checked first), or `f` is out of range.
    pub fn apply(
        &self,
        f: usize,
        residual_interference: &[CVector],
        noise_power: f64,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        let (n_wanted, n_ant) = (self.n_wanted, self.n_ant);
        if n_wanted == 0 {
            return;
        }
        assert_same_length(n_ant, residual_interference.iter());
        if !self.decodable[f] {
            out.resize(n_wanted, 0.0);
            return;
        }
        let rows = &self.rows[f * n_wanted * n_ant..(f + 1) * n_wanted * n_ant];
        let gains = &self.noise_gain[f * n_wanted..(f + 1) * n_wanted];
        for (w, &gain) in rows.chunks_exact(n_ant).zip(gains) {
            // ZF: row · wanted_i = 1 by construction; noise and residual
            // interference pass through the filter:
            // `row_i · conj(conj(r)) = Σ_j w_ij · r_j`.
            let noise = gain * noise_power;
            let mut resid = 0.0f64;
            for r in residual_interference {
                let mut acc = Complex64::ZERO;
                for j in 0..n_ant {
                    acc += w[j] * r[j];
                }
                resid += acc.norm_sqr();
            }
            out.push(1.0 / (noise + resid).max(1e-300));
        }
    }
}

/// Reduces per-subcarrier SINRs of one stream to a rate choice: the
/// §3.4 ESNR-threshold rule, [`nplus_phy::select_rate`], applied to the
/// stream's SINR track.
///
/// `per_subcarrier_sinr[k]` is the stream's SINR on occupied subcarrier
/// `k`. Returns `None` when even the most robust rate cannot be
/// sustained.
pub fn select_stream_rate(per_subcarrier_sinr: &[f64]) -> Option<RateIndex> {
    nplus_phy::select_rate(per_subcarrier_sinr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::c64;

    fn v(entries: &[(f64, f64)]) -> CVector {
        CVector::from_vec(entries.iter().map(|&(r, i)| c64(r, i)).collect())
    }

    #[test]
    fn clean_single_stream_snr() {
        // One wanted stream, no interference: SINR = |h|^2 / noise for a
        // matched filter... ZF with a single column is the matched filter:
        // w = h^H/|h|^2, noise out = sigma^2/|h|^2.
        let h = v(&[(3.0, 0.0), (4.0, 0.0)]); // |h|^2 = 25
        let obs = SubcarrierObservation {
            wanted: vec![h],
            known_interference: vec![],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        let sinr = zf_sinr(&obs);
        assert_eq!(sinr.len(), 1);
        assert!((sinr[0] - 25.0).abs() < 1e-9, "sinr {}", sinr[0]);
    }

    #[test]
    fn known_interference_costs_sin_theta() {
        // Fig. 7: decoding q orthogonal to p yields |q|² sin²θ.
        let q = v(&[(1.0, 0.0), (0.0, 0.0)]).scale_re(5.0);
        // Interference at 45 degrees.
        let p = v(&[(1.0, 0.0), (1.0, 0.0)]);
        let obs = SubcarrierObservation {
            wanted: vec![q.clone()],
            known_interference: vec![p],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        let sinr = zf_sinr(&obs)[0];
        // sin²(45°) = 0.5 → SINR = 25 · 0.5 = 12.5.
        assert!((sinr - 12.5).abs() < 1e-9, "sinr {sinr}");
    }

    #[test]
    fn residual_interference_lowers_sinr() {
        let h = v(&[(5.0, 0.0), (0.0, 0.0)]);
        let clean = SubcarrierObservation {
            wanted: vec![h.clone()],
            known_interference: vec![],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        let dirty = SubcarrierObservation {
            residual_interference: vec![v(&[(0.5, 0.0), (0.0, 0.0)])],
            ..clean.clone()
        };
        let s_clean = zf_sinr(&clean)[0];
        let s_dirty = zf_sinr(&dirty)[0];
        assert!(s_dirty < s_clean);
        // Residual of power 0.25 against noise 1: SINR = 25/1.25 = 20.
        assert!((s_dirty - 20.0).abs() < 1e-9, "sinr {s_dirty}");
    }

    #[test]
    fn orthogonal_interference_is_free() {
        let h = v(&[(5.0, 0.0), (0.0, 0.0)]);
        let orth = v(&[(0.0, 0.0), (1.0, 0.0)]);
        let obs = SubcarrierObservation {
            wanted: vec![h],
            known_interference: vec![orth],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        let sinr = zf_sinr(&obs)[0];
        assert!((sinr - 25.0).abs() < 1e-9, "sinr {sinr}");
    }

    #[test]
    fn oversubscribed_receiver_fails() {
        let obs = SubcarrierObservation {
            wanted: vec![v(&[(1.0, 0.0), (0.0, 0.0)])],
            known_interference: vec![v(&[(0.0, 0.0), (1.0, 0.0)]), v(&[(1.0, 0.0), (1.0, 0.0)])],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        assert_eq!(zf_sinr(&obs), vec![0.0]);
    }

    #[test]
    fn two_stream_mimo_decode() {
        // Orthogonal columns: each stream gets its full power.
        let h1 = v(&[(2.0, 0.0), (0.0, 0.0)]);
        let h2 = v(&[(0.0, 0.0), (3.0, 0.0)]);
        let obs = SubcarrierObservation {
            wanted: vec![h1, h2],
            known_interference: vec![],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        let sinr = zf_sinr(&obs);
        assert!((sinr[0] - 4.0).abs() < 1e-9);
        assert!((sinr[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn rate_selection_monotone_in_sinr() {
        let low = vec![10f64.powf(0.3); 52];
        let high = vec![10f64.powf(2.6); 52];
        let r_low = select_stream_rate(&low);
        let r_high = select_stream_rate(&high);
        assert!(r_high.unwrap() >= r_low.unwrap_or(0));
        assert_eq!(r_high, Some(7));
        let dead = vec![0.01; 52];
        assert_eq!(select_stream_rate(&dead), None);
    }

    /// A known-interference vector shorter than the wanted vectors is a
    /// caller bug, not a zero-padded column.
    #[test]
    #[should_panic(expected = "ragged column lengths")]
    fn ragged_columns_panic() {
        let obs = SubcarrierObservation {
            wanted: vec![v(&[(1.0, 0.0), (0.5, 0.0)])],
            known_interference: vec![v(&[(0.3, 0.0)])],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        zf_sinr(&obs);
    }

    /// The length check runs before the over-subscription shortcut, so
    /// a ragged input cannot pass as an undecodable one.
    #[test]
    #[should_panic(expected = "ragged column lengths")]
    fn ragged_oversubscribed_input_panics() {
        let obs = SubcarrierObservation {
            wanted: vec![v(&[(1.0, 0.0), (0.5, 0.0)])],
            known_interference: vec![v(&[(0.3, 0.0)]), v(&[(0.0, 0.0), (1.0, 0.0)])],
            residual_interference: vec![],
            noise_power: 1.0,
        };
        zf_sinr(&obs);
    }

    /// A residual longer than the receive space is not truncated.
    #[test]
    #[should_panic(expected = "ragged column lengths")]
    fn residual_of_wrong_length_panics() {
        let obs = SubcarrierObservation {
            wanted: vec![v(&[(1.0, 0.0), (0.5, 0.0)])],
            known_interference: vec![],
            residual_interference: vec![v(&[(0.1, 0.0), (0.0, 0.0), (0.2, 0.0)])],
            noise_power: 1.0,
        };
        zf_sinr(&obs);
    }

    #[test]
    fn esnr_reporting_finite() {
        let sinrs = vec![10.0; 52];
        let esnr = nplus_phy::effective_snr(nplus_phy::modulation::Modulation::Qpsk, &sinrs);
        let db = 10.0 * esnr.log10();
        assert!((db - 10.0).abs() < 0.5, "esnr {db}");
    }
}
