//! Small deterministic fixture constructors shared across suites.

use nplus_channel::HardwareProfile;
use nplus_linalg::{c64, CMatrix, CVector, Complex64, Subspace};
use rand::Rng;

/// An idealized radio with no impairments — for verifying that the
/// precoder achieves numerically perfect nulls when given the truth.
pub const IDEAL_HARDWARE: HardwareProfile = HardwareProfile {
    tx_evm_db: -300.0,
    calibration_error_std: 0.0,
    estimation_snr_db: 300.0,
};

/// Random complex entries uniform in the unit square centred on 0.
pub fn random_complex<R: Rng>(rng: &mut R) -> Complex64 {
    c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5)
}

/// A `rows × cols` matrix of [`random_complex`] entries — the generic
/// full-rank-with-probability-1 channel draw the benches use.
pub fn random_matrix<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> CMatrix {
    let data: Vec<Complex64> = (0..rows * cols).map(|_| random_complex(rng)).collect();
    CMatrix::from_vec(rows, cols, data)
}

/// A random complex vector of dimension `n`.
pub fn random_vector<R: Rng>(n: usize, rng: &mut R) -> CVector {
    CVector::from_vec((0..n).map(|_| random_complex(rng)).collect())
}

/// A random direction of dimension `n` with norm bounded away from zero
/// (redrawn until non-degenerate), suitable for spanning subspaces.
pub fn random_direction<R: Rng>(n: usize, rng: &mut R) -> CVector {
    loop {
        let v = random_vector(n, rng);
        if v.norm() > 0.2 {
            return v;
        }
    }
}

/// A random 1-dimensional subspace of an `ambient`-dimensional space.
pub fn random_line<R: Rng>(ambient: usize, rng: &mut R) -> Subspace {
    Subspace::span(ambient, &[random_direction(ambient, rng)])
}

/// `n` random fair bits (0/1 bytes).
pub fn random_bits<R: Rng>(n: usize, rng: &mut R) -> Vec<u8> {
    (0..n).map(|_| rng.gen_range(0..2u8)).collect()
}

/// `n` random payload bytes.
pub fn random_payload<R: Rng>(n: usize, rng: &mut R) -> Vec<u8> {
    (0..n).map(|_| rng.gen()).collect()
}

/// A complex white waveform of the given length and per-sample power.
pub fn random_waveform<R: Rng>(len: usize, power: f64, rng: &mut R) -> Vec<Complex64> {
    // random_complex has E|z|^2 = 1/6; rescale to the requested power.
    let scale = (6.0 * power).sqrt();
    (0..len).map(|_| random_complex(rng).scale(scale)).collect()
}
