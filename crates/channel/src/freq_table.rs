//! Precomputed per-subcarrier frequency responses of a MIMO link.
//!
//! The protocol simulator evaluates the same pure channel matrices
//! thousands of times per run (round × stream × subcarrier × interferer).
//! [`FreqResponseTable`] performs that evaluation exactly once per
//! occupied subcarrier — a single pass over the FIR taps — and then
//! serves matrix lookups. The DFT twiddles
//! `e^{-j2πkd/N}` depend only on the bin, the delay and the grid size,
//! so a [`Twiddles`] table computes them once and every link of a
//! topology reads the prefix its taps need.
//!
//! The table is **bit-for-bit identical** to calling
//! [`MimoLink::channel_matrix`] per bin: each twiddle is the same
//! `Complex64::cis` of the same angle expression, and the accumulation
//! order per antenna pair is the same (`acc += tap[d] · e^{-j2πkd/N}` in
//! tap order, then one amplitude scale) — only the twiddle evaluation is
//! hoisted out of the pair and link loops. Seeded simulations therefore
//! produce identical results whether they read the table or recompute,
//! which `matches_channel_matrix_bitwise` below and
//! `nplus_medium::chancache`'s `matches_direct_channel_matrix` check.

use crate::mimo::MimoLink;
use nplus_linalg::{CMatrix, CMatrixRef, Complex64};

/// The DFT twiddles `e^{-j2πkd/N}` of a fixed bin list on an `n_fft`
/// grid, for every delay `d < n_taps` — computed once and shared by
/// every [`FreqResponseTable`] built from it.
#[derive(Debug, Clone)]
pub struct Twiddles {
    /// Number of requested FFT bins.
    n_bins: usize,
    n_taps: usize,
    /// Row-major `n_bins × n_taps`: entry `pos · n_taps + d` is the
    /// twiddle of the `pos`-th requested bin at delay `d`.
    values: Vec<Complex64>,
}

impl Twiddles {
    /// Evaluates the twiddles of every bin in `bins` on an `n_fft` grid
    /// for delays `0..n_taps`, enough for any link whose FIRs are at
    /// most `n_taps` long.
    pub fn new(bins: &[usize], n_fft: usize, n_taps: usize) -> Self {
        let mut values = Vec::with_capacity(bins.len() * n_taps);
        for &k in bins {
            for d in 0..n_taps {
                let ang = -2.0 * std::f64::consts::PI * (k * d) as f64 / n_fft as f64;
                values.push(Complex64::cis(ang));
            }
        }
        Twiddles {
            n_bins: bins.len(),
            n_taps,
            values,
        }
    }

    /// Longest FIR the table serves.
    pub(crate) fn n_taps(&self) -> usize {
        self.n_taps
    }

    /// The twiddles of the `pos`-th bin, indexed by delay.
    fn bin(&self, pos: usize) -> &[Complex64] {
        &self.values[pos * self.n_taps..(pos + 1) * self.n_taps]
    }
}

/// Frequency responses of one [`MimoLink`], evaluated once for a fixed
/// set of FFT bins (normally the occupied subcarriers).
///
/// All bins live in one split-storage buffer, bin-major: entry `(i, j)`
/// of the `pos`-th bin's `N_rx × M_tx` matrix sits at
/// `pos·N_rx·M_tx + i·M_tx + j`, which is the row-major layout of the
/// bins' matrices stacked into one `(n_bins·N_rx) × M_tx` [`CMatrix`].
/// A table therefore costs two allocations however many bins it holds.
/// The engine's precoder/ZF-SINR hot path reads each bin in place
/// through a borrowed [`CMatrixRef`]; the build writes each entry with
/// the same value [`MimoLink::channel_matrix`] computes.
#[derive(Debug, Clone)]
pub struct FreqResponseTable {
    /// Every bin's matrix, stacked in request order.
    stacked: CMatrix,
    /// Rows of one bin's matrix (`N_rx`, at least one).
    n_rx: usize,
}

impl FreqResponseTable {
    /// Evaluates the link's `N_rx × M_tx` matrices for every bin in
    /// `bins` on an `n_fft` grid, with twiddles of its own. Callers
    /// building many links on the same bins share one [`Twiddles`]
    /// through [`FreqResponseTable::with_twiddles`] instead.
    pub fn new(link: &MimoLink, bins: &[usize], n_fft: usize) -> Self {
        Self::with_twiddles(link, &Twiddles::new(bins, n_fft, link.max_taps()))
    }

    /// Evaluates the link's matrices on the bins and grid of
    /// `twiddles`, traversing the taps of every antenna pair once per
    /// bin (the per-pair arithmetic stays identical to
    /// [`MimoLink::channel_matrix`], so results match bitwise).
    ///
    /// # Panics
    /// If the link has a FIR longer than `twiddles.n_taps()`.
    pub fn with_twiddles(link: &MimoLink, twiddles: &Twiddles) -> Self {
        assert!(
            link.max_taps() <= twiddles.n_taps(),
            "twiddle table covers {} taps, link needs {}",
            twiddles.n_taps(),
            link.max_taps()
        );
        let (n_rx, n_tx) = (link.n_rx(), link.n_tx());
        let amplitude = link.amplitude();
        let mut stacked = CMatrix::zeros(twiddles.n_bins * n_rx, n_tx);
        for pos in 0..twiddles.n_bins {
            let tw = twiddles.bin(pos);
            for rx in 0..n_rx {
                for tx in 0..n_tx {
                    let mut acc = Complex64::ZERO;
                    for (&t, &w) in link.pair(rx, tx).taps.iter().zip(tw) {
                        acc += t * w;
                    }
                    stacked.set(pos * n_rx + rx, tx, acc.scale(amplitude));
                }
            }
        }
        FreqResponseTable { stacked, n_rx }
    }

    /// The channel matrix of the `pos`-th requested bin (position in the
    /// `bins` slice given to [`FreqResponseTable::new`], *not* the raw
    /// FFT bin index), borrowed from the table's buffer.
    #[inline]
    pub fn matrix(&self, pos: usize) -> CMatrixRef<'_> {
        self.stacked.row_block(pos * self.n_rx, self.n_rx)
    }

    /// Number of bins in the table.
    pub fn n_bins(&self) -> usize {
        self.stacked.rows() / self.n_rx
    }

    /// The same table with every matrix entry scaled by the real
    /// `factor` — the frequency-domain image of rescaling the link
    /// amplitude, used by slow mobility to re-derive the links incident
    /// to a moved node without re-drawing their taps.
    pub fn scaled(&self, factor: f64) -> Self {
        FreqResponseTable {
            stacked: self.stacked.scale_re(factor),
            n_rx: self.n_rx,
        }
    }
}

// Tables are read concurrently by parallel sweep workers (one channel
// cache per job, shared across that job's protocol runs); keep them
// `Send + Sync` by construction.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<FreqResponseTable>();
    assert_send_sync::<Twiddles>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fading::DelayProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matches_channel_matrix_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for (n_tx, n_rx, profile) in [
            (1, 1, DelayProfile::los()),
            (2, 3, DelayProfile::nlos()),
            (4, 4, DelayProfile::nlos()),
        ] {
            let link = MimoLink::sample(n_tx, n_rx, 1.7, &profile, &mut rng);
            let bins: Vec<usize> = (0..64).step_by(3).collect();
            let table = FreqResponseTable::new(&link, &bins, 64);
            for (pos, &k) in bins.iter().enumerate() {
                let direct = link.channel_matrix(k, 64);
                let cached = table.matrix(pos);
                for r in 0..n_rx {
                    for c in 0..n_tx {
                        // Bitwise equality, not approximate: the cached
                        // path must be indistinguishable from recompute.
                        assert_eq!(
                            cached.get(r, c).re.to_bits(),
                            direct.get(r, c).re.to_bits(),
                            "bin {k} entry ({r},{c}) re"
                        );
                        assert_eq!(
                            cached.get(r, c).im.to_bits(),
                            direct.get(r, c).im.to_bits(),
                            "bin {k} entry ({r},{c}) im"
                        );
                    }
                }
            }
        }
    }

    /// One twiddle table sized past every link's tap count serves LOS
    /// and NLOS links of every shape, each bit for bit equal to direct
    /// evaluation — the sharing `ChannelCache::build` relies on.
    #[test]
    fn shared_twiddles_are_exact_for_every_link_shape() {
        let mut rng = StdRng::seed_from_u64(29);
        let links: Vec<MimoLink> = [DelayProfile::los(), DelayProfile::nlos()]
            .iter()
            .flat_map(|profile| {
                [(1, 1), (2, 3), (4, 4)]
                    .map(|(n_tx, n_rx)| MimoLink::sample(n_tx, n_rx, 0.8, profile, &mut rng))
            })
            .collect();
        let n_taps = links.iter().map(MimoLink::max_taps).max().unwrap() + 3;
        let bins: Vec<usize> = (0..64).collect();
        let twiddles = Twiddles::new(&bins, 64, n_taps);
        for (i, link) in links.iter().enumerate() {
            assert!(link.max_taps() < n_taps);
            let table = FreqResponseTable::with_twiddles(link, &twiddles);
            for (pos, &k) in bins.iter().enumerate() {
                let direct = link.channel_matrix(k, 64);
                let cached = table.matrix(pos);
                assert_eq!(cached.shape(), direct.shape());
                for r in 0..direct.rows() {
                    for c in 0..direct.cols() {
                        let (a, b) = (cached.get(r, c), direct.get(r, c));
                        assert!(
                            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                            "link {i} bin {k} entry ({r},{c}): {a:?} vs {b:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "twiddle table covers")]
    fn short_twiddle_table_is_refused() {
        let mut rng = StdRng::seed_from_u64(2);
        let link = MimoLink::sample(2, 2, 1.0, &DelayProfile::nlos(), &mut rng);
        let twiddles = Twiddles::new(&[1, 2], 64, link.max_taps() - 1);
        let _ = FreqResponseTable::with_twiddles(&link, &twiddles);
    }

    #[test]
    fn covers_requested_bins_in_order() {
        let mut rng = StdRng::seed_from_u64(8);
        let link = MimoLink::sample(2, 3, 1.0, &DelayProfile::nlos(), &mut rng);
        let bins = vec![5usize, 1, 40];
        let table = FreqResponseTable::new(&link, &bins, 64);
        assert_eq!(table.n_bins(), 3);
        assert_eq!(table.stacked.shape(), (9, 2));
        for (pos, &k) in bins.iter().enumerate() {
            let direct = link.channel_matrix(k, 64);
            let cached = table.matrix(pos);
            assert_eq!(cached.shape(), (3, 2));
            for r in 0..3 {
                for c in 0..2 {
                    assert_eq!(cached.get(r, c), direct.get(r, c), "bin {k} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn respects_amplitude() {
        let draw = |amplitude| {
            let mut rng = StdRng::seed_from_u64(3);
            MimoLink::sample(2, 2, amplitude, &DelayProfile::nlos(), &mut rng)
        };
        let (link, half) = (draw(1.0), draw(0.5));
        let bins = vec![10usize];
        let t1 = FreqResponseTable::new(&link, &bins, 64);
        let t2 = FreqResponseTable::new(&half, &bins, 64);
        assert!(t2.stacked.approx_eq(&t1.stacked.scale_re(0.5), 1e-12));
    }
}
