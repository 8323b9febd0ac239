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
use nplus_linalg::{CMatrix, Complex64};
use std::sync::Arc;

/// The DFT twiddles `e^{-j2πkd/N}` of a fixed bin list on an `n_fft`
/// grid, for every delay `d < n_taps` — computed once and shared by
/// every [`FreqResponseTable`] built from it.
#[derive(Debug, Clone)]
pub struct Twiddles {
    /// The FFT bins, in request order (shared with the tables).
    bins: Arc<[usize]>,
    n_fft: usize,
    n_taps: usize,
    /// Row-major `bins.len() × n_taps`: entry `pos · n_taps + d` is the
    /// twiddle of bin `bins[pos]` at delay `d`.
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
            bins: bins.into(),
            n_fft,
            n_taps,
            values,
        }
    }

    /// Longest FIR the table serves.
    pub fn n_taps(&self) -> usize {
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
/// The engine's precoder/ZF-SINR hot path reads the matrices in place;
/// the build writes each entry with the same value
/// [`MimoLink::channel_matrix`] computes.
#[derive(Debug, Clone)]
pub struct FreqResponseTable {
    /// One `N_rx × M_tx` matrix per requested bin, in request order.
    matrices: Vec<CMatrix>,
    /// The FFT bins the table covers, in request order.
    bins: Arc<[usize]>,
    /// FFT grid size the bins index into.
    n_fft: usize,
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
        let matrices = (0..twiddles.bins.len())
            .map(|pos| {
                let tw = twiddles.bin(pos);
                let mut h = CMatrix::zeros(n_rx, n_tx);
                for rx in 0..n_rx {
                    for tx in 0..n_tx {
                        let mut acc = Complex64::ZERO;
                        for (&t, &w) in link.pair(rx, tx).taps.iter().zip(tw) {
                            acc += t * w;
                        }
                        h.set(rx, tx, acc.scale(amplitude));
                    }
                }
                h
            })
            .collect();
        FreqResponseTable {
            matrices,
            bins: Arc::clone(&twiddles.bins),
            n_fft: twiddles.n_fft,
        }
    }

    /// The channel matrix of the `pos`-th requested bin (position in the
    /// `bins` slice given to [`FreqResponseTable::new`], *not* the raw
    /// FFT bin index).
    pub fn matrix(&self, pos: usize) -> &CMatrix {
        &self.matrices[pos]
    }

    /// The FFT bins the table covers, in request order.
    pub fn bins(&self) -> &[usize] {
        &self.bins
    }

    /// Number of bins in the table.
    pub fn n_bins(&self) -> usize {
        self.bins.len()
    }

    /// FFT grid size the bins index into.
    pub fn n_fft(&self) -> usize {
        self.n_fft
    }

    /// The same table with every matrix entry scaled by the real
    /// `factor` — the frequency-domain image of rescaling the link
    /// amplitude, used by slow mobility to re-derive the links incident
    /// to a moved node without re-drawing their taps.
    pub fn scaled(&self, factor: f64) -> Self {
        FreqResponseTable {
            matrices: self.matrices.iter().map(|m| m.scale_re(factor)).collect(),
            bins: Arc::clone(&self.bins),
            n_fft: self.n_fft,
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
        let link = MimoLink::flat(2, 2, 1.0);
        let bins = vec![5usize, 1, 40];
        let table = FreqResponseTable::new(&link, &bins, 64);
        assert_eq!(table.bins(), &[5, 1, 40]);
        assert_eq!(table.n_bins(), 3);
        assert_eq!(table.n_fft(), 64);
        assert_eq!(table.matrices.len(), 3);
        assert_eq!(table.matrix(0).shape(), (2, 2));
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
        assert!(t2.matrix(0).approx_eq(&t1.matrix(0).scale_re(0.5), 1e-12));
    }
}
