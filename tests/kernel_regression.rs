//! Kernel regression pins: the linear-algebra, precoder, zero-forcing and
//! contention kernels folded into FNV-1a digests over seeded corpora.
//!
//! Each kernel has one implementation (the pooled split-storage kernels);
//! the allocating entry points exercised here are thin wrappers over it.
//! The digests were captured while the allocating entry points were still
//! a separate copy of the arithmetic, so they prove the wrappers are
//! bit-for-bit the old results, not merely self-consistent.
//!
//! Every output bit (`f64::to_bits`), every length and every error kind is
//! folded in, so no tolerance can hide a divergence.

use nplus::link::{zf_sinr, SubcarrierObservation};
use nplus::power_control::expected_interference_power;
use nplus::precoder::{compute_precoders, OwnReceiver, PrecoderError, ProtectedReceiver};
use nplus_channel::HardwareProfile;
use nplus_linalg::{
    c64, null_space_into, pinv, rank, CMatrix, CMatrixSoA, CVector, Complex64, LinalgError,
    NullspaceWorkspace, Subspace,
};
use nplus_mac::backoff::resolve_contention_in;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a accumulator.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usize(&mut self, n: usize) {
        self.bytes(&(n as u64).to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    fn c64(&mut self, z: Complex64) {
        self.f64(z.re);
        self.f64(z.im);
    }

    fn vector(&mut self, v: &CVector) {
        self.usize(v.len());
        for &z in v.iter() {
            self.c64(z);
        }
    }

    fn vectors(&mut self, vs: &[CVector]) {
        self.usize(vs.len());
        for v in vs {
            self.vector(v);
        }
    }

    fn matrix(&mut self, m: &CMatrix) {
        self.usize(m.rows());
        self.usize(m.cols());
        for &z in m.as_slice() {
            self.c64(z);
        }
    }
}

/// Deterministic xorshift entries in `[-1, 1)`, about one in seven an
/// exact zero so the zero-skip branches of the kernels run.
struct Corpus(u64);

impl Corpus {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn entry(&mut self) -> Complex64 {
        let r = self.next();
        if r.is_multiple_of(7) {
            Complex64::ZERO
        } else {
            c64(
                (r % 1000) as f64 / 500.0 - 1.0,
                (self.next() % 1000) as f64 / 500.0 - 1.0,
            )
        }
    }

    fn matrix(&mut self, rows: usize, cols: usize) -> CMatrix {
        let data = (0..rows * cols).map(|_| self.entry()).collect();
        CMatrix::from_vec(rows, cols, data)
    }
}

/// 400 matrices cycling through every shape in `0..=4 × 1..=5`.
fn matrix_corpus() -> Vec<CMatrix> {
    let mut corpus = Corpus(0x5EED_4E41);
    (0..400)
        .map(|i| corpus.matrix(i % 5, 1 + (i / 5) % 5))
        .collect()
}

fn linalg_error_tag(e: &LinalgError) -> usize {
    match e {
        LinalgError::Singular => 1,
        LinalgError::ShapeMismatch { .. } => 2,
    }
}

#[test]
fn null_space_is_pinned() {
    let mut h = Fnv::new();
    for a in matrix_corpus() {
        let mut basis = Vec::new();
        let dim = null_space_into(
            &CMatrixSoA::from_aos(&a),
            &mut NullspaceWorkspace::default(),
            &mut basis,
        );
        h.vectors(&basis[..dim]);
    }
    assert_eq!(h.0, 0x8421_5df2_4200_6f69, "null_space digest {:#x}", h.0);
}

#[test]
fn rank_is_pinned() {
    let mut h = Fnv::new();
    for a in matrix_corpus() {
        h.usize(rank(&a, None));
    }
    assert_eq!(h.0, 0x9ec1_19d2_2493_0286, "rank digest {:#x}", h.0);
}

/// Square and tall operands: a wide corpus matrix is transposed first.
#[test]
fn pinv_is_pinned() {
    let mut h = Fnv::new();
    let mut singular = 0;
    for a in matrix_corpus() {
        let a = if a.rows() < a.cols() {
            a.hermitian().conj()
        } else {
            a
        };
        match pinv(&a) {
            Ok(p) => h.matrix(&p),
            Err(e) => {
                singular += 1;
                h.usize(linalg_error_tag(&e));
            }
        }
    }
    assert!(singular > 0, "corpus must reach the singular branch");
    assert_eq!(h.0, 0x7408_cd85_0067_d04e, "pinv digest {:#x}", h.0);
}

/// The corpus rows span a subspace of `C^cols`; its complement and the
/// rejection of a probe vector are pinned.
#[test]
fn subspace_complement_and_reject_are_pinned() {
    let mut h = Fnv::new();
    let mut probes = Corpus(0x5EED_5B5B);
    for a in matrix_corpus() {
        let rows: Vec<CVector> = (0..a.rows()).map(|i| a.row(i)).collect();
        let s = Subspace::span(a.cols(), &rows);
        let c = s.complement();
        h.usize(c.ambient_dim());
        h.vectors(c.basis());
        let probe = probes.matrix(a.cols(), 1).col(0);
        h.vector(&s.reject(&probe));
    }
    assert_eq!(h.0, 0x01f5_61dd_8e51_a32c, "subspace digest {:#x}", h.0);
}

/// The believed-channel draw (estimation noise, then calibration
/// residual) under every hardware profile, and the §4 interference power
/// of the true and believed channels, over the matrix corpus. The two
/// zero-calibration profiles take the no-draw early return.
#[test]
fn channel_knowledge_and_interference_power_are_pinned() {
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
    let mut rng = StdRng::seed_from_u64(17);
    let mut h = Fnv::new();
    for a in matrix_corpus() {
        h.f64(expected_interference_power(&a));
        for p in &profiles {
            let believed = p.reciprocal_channel_knowledge(&a, &mut rng);
            h.matrix(&believed);
            h.f64(expected_interference_power(&believed));
        }
    }
    assert_eq!(
        h.0, 0xd7d8_8be9_cb6e_f82a,
        "channel knowledge digest {:#x}",
        h.0
    );
}

fn random_channel(rows: usize, cols: usize, rng: &mut StdRng) -> CMatrix {
    let data: Vec<Complex64> = (0..rows * cols)
        .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
        .collect();
    CMatrix::from_vec(rows, cols, data)
}

/// A random subspace of `C^n` of dimension `0..n`: zero (nulling) or
/// spanned by one random direction (alignment).
fn random_unwanted(n: usize, rng: &mut StdRng) -> Subspace {
    if n > 1 && rng.gen_bool(0.5) {
        Subspace::span(n, &[random_channel(n, 1, rng).col(0)])
    } else {
        Subspace::zero(n)
    }
}

/// Constraint mixes over 1–4 transmit antennas: nulling and aligning
/// protected receivers, own receivers with and without unwanted spaces
/// and with zero streams, reaching both error kinds.
#[test]
fn compute_precoders_is_pinned() {
    let mut rng = StdRng::seed_from_u64(8);
    let mut h = Fnv::new();
    let (mut ok, mut no_dof, mut too_many) = (0, 0, 0);
    for _ in 0..300 {
        let m_ant = rng.gen_range(1..=4usize);
        let n_protected = rng.gen_range(0..=2usize);
        let n_own = rng.gen_range(1..=2usize);
        let protected: Vec<ProtectedReceiver> = (0..n_protected)
            .map(|_| {
                let n_rx = rng.gen_range(1..=3usize);
                let ch = random_channel(n_rx, m_ant, &mut rng);
                ProtectedReceiver::aligning(ch, random_unwanted(n_rx, &mut rng))
            })
            .collect();
        let own: Vec<OwnReceiver> = (0..n_own)
            .map(|_| {
                let n_rx = rng.gen_range(1..=3usize);
                OwnReceiver {
                    channel: random_channel(n_rx, m_ant, &mut rng),
                    n_streams: rng.gen_range(0..=2usize),
                    unwanted: random_unwanted(n_rx, &mut rng),
                }
            })
            .collect();
        match compute_precoders(m_ant, &protected, &own) {
            Ok(p) => {
                ok += 1;
                h.usize(0);
                h.vectors(&p.vectors);
                h.usize(p.stream_owner.len());
                for &o in &p.stream_owner {
                    h.usize(o);
                }
            }
            Err(PrecoderError::NoDegreesOfFreedom) => {
                no_dof += 1;
                h.usize(1);
            }
            Err(PrecoderError::TooManyStreams {
                requested,
                available,
            }) => {
                too_many += 1;
                h.usize(2);
                h.usize(requested);
                h.usize(available);
            }
        }
    }
    assert!(
        ok > 0 && no_dof > 0 && too_many > 0,
        "{ok}/{no_dof}/{too_many}"
    );
    assert_eq!(
        h.0, 0x1d40_2c25_2ed2_c97f,
        "compute_precoders digest {:#x}",
        h.0
    );
}

/// Random observations over 1–4 receive antennas (including empty and
/// oversubscribed ones), plus a duplicated wanted column that makes the
/// Gram matrix singular.
#[test]
fn zf_sinr_is_pinned() {
    let mut rng = StdRng::seed_from_u64(9);
    let rv = |n: usize, rng: &mut StdRng| {
        CVector::from_vec(
            (0..n)
                .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen()))
                .collect(),
        )
    };
    let mut h = Fnv::new();
    let (mut empty, mut oversubscribed) = (0, 0);
    for _ in 0..200 {
        let n_ant = rng.gen_range(1..=4usize);
        let n_wanted = rng.gen_range(0..=n_ant + 1);
        let n_known = rng.gen_range(0..=2usize);
        let n_resid = rng.gen_range(0..=2usize);
        let obs = SubcarrierObservation {
            wanted: (0..n_wanted).map(|_| rv(n_ant, &mut rng)).collect(),
            known_interference: (0..n_known).map(|_| rv(n_ant, &mut rng)).collect(),
            residual_interference: (0..n_resid).map(|_| rv(n_ant, &mut rng)).collect(),
            noise_power: 1.0,
        };
        empty += usize::from(n_wanted == 0);
        oversubscribed += usize::from(n_wanted + n_known > n_ant);
        let sinr = zf_sinr(&obs);
        h.usize(sinr.len());
        for s in sinr {
            h.f64(s);
        }
    }
    let v = rv(3, &mut rng);
    let dup = SubcarrierObservation {
        wanted: vec![v.clone(), v],
        known_interference: vec![],
        residual_interference: vec![],
        noise_power: 1.0,
    };
    assert_eq!(zf_sinr(&dup), vec![0.0, 0.0]);
    assert!(empty > 0 && oversubscribed > 0, "{empty}/{oversubscribed}");
    assert_eq!(h.0, 0xab60_f22c_cfb1_7dbb, "zf_sinr digest {:#x}", h.0);
}

/// Outcomes and draws of 2000 contention rounds among 1–5 contenders.
/// The outcome is recoverable from the draws: the minimum is the slot,
/// and the contenders that drew it are the winner or the colliders.
#[test]
fn resolve_contention_is_pinned() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut draws = Vec::new();
    let mut h = Fnv::new();
    for round in 0..2000 {
        let n = 1 + (round % 5);
        let cws: Vec<u32> = (0..n).map(|i| 15 + (i as u32 % 3) * 16).collect();
        let outcome = format!("{:?}", resolve_contention_in(&cws, &mut rng, &mut draws));
        let slots = *draws.iter().min().unwrap();
        let drew_min: Vec<usize> = (0..n).filter(|&i| draws[i] == slots).collect();
        let expect = if drew_min.len() == 1 {
            format!("Winner {{ index: {}, slots: {slots} }}", drew_min[0])
        } else {
            format!("Collision {{ slots: {slots} }}")
        };
        assert_eq!(outcome, expect, "round {round}");
        h.bytes(outcome.as_bytes());
        h.usize(draws.len());
        for &d in &draws {
            h.bytes(&d.to_le_bytes());
        }
    }
    let idle = format!("{:?}", resolve_contention_in(&[], &mut rng, &mut draws));
    assert_eq!(idle, "Idle");
    assert_eq!(h.0, 0x386e_2208_5c08_69a6, "contention digest {:#x}", h.0);
}
