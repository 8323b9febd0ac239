//! Small deterministic fixture constructors shared across suites.

use nplus_channel::fading::DelayProfile;
use nplus_channel::mimo::MimoLink;
use nplus_channel::HardwareProfile;
use nplus_linalg::{c64, CMatrix, CVector, Complex64, Subspace};
use nplus_medium::medium::Medium;
use nplus_medium::NodeId;
use nplus_phy::params::OfdmConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Fig. 2: a single-antenna pair and a two-antenna pair on a
/// sample-level medium with strong links everywhere.
#[derive(Debug)]
pub struct TwoPairMedium {
    /// The sample-level medium holding all four nodes.
    pub medium: Medium,
    /// Single-antenna transmitter of pair 1.
    pub tx1: NodeId,
    /// Single-antenna receiver of pair 1.
    pub rx1: NodeId,
    /// Two-antenna transmitter of pair 2.
    pub tx2: NodeId,
    /// Two-antenna receiver of pair 2.
    pub rx2: NodeId,
}

impl TwoPairMedium {
    /// All four nodes in `[tx1, rx1, tx2, rx2]` order.
    pub fn nodes(&self) -> [NodeId; 4] {
        [self.tx1, self.rx1, self.tx2, self.rx2]
    }
}

/// Builds the Fig. 2 node set: tx1/rx1 single antenna, tx2/rx2 two
/// antennas, SNRs in the 12–28 dB range so decoding is clean.
pub fn two_pair_medium(seed: u64) -> TwoPairMedium {
    let cfg = OfdmConfig::usrp2();
    let mut medium = Medium::new(cfg.bandwidth_hz, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let tx1 = medium.add_node(1, 0.0);
    let rx1 = medium.add_node(1, 0.0);
    let tx2 = medium.add_node(2, 0.0);
    let rx2 = medium.add_node(2, 0.0);
    medium.set_link(
        tx1,
        rx1,
        MimoLink::sample(1, 1, 25.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx1,
        rx2,
        MimoLink::sample(1, 2, 18.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx2,
        rx1,
        MimoLink::sample(2, 1, 20.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx2,
        rx2,
        MimoLink::sample(2, 2, 28.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        tx1,
        tx2,
        MimoLink::sample(1, 2, 15.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        rx1,
        tx2,
        MimoLink::sample(1, 2, 15.0, &DelayProfile::los(), &mut rng),
    );
    medium.set_link(
        rx1,
        rx2,
        MimoLink::sample(1, 2, 12.0, &DelayProfile::los(), &mut rng),
    );
    // This final draw overwrites the first tx1→rx1 link on purpose: the
    // suites' seeds are tuned against this exact RNG consumption order.
    medium.set_link(
        tx1,
        rx1,
        MimoLink::sample(1, 1, 25.0, &DelayProfile::los(), &mut rng),
    );
    TwoPairMedium {
        medium,
        tx1,
        rx1,
        tx2,
        rx2,
    }
}
