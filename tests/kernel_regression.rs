//! Kernel regression pins: the linear-algebra, precoder, zero-forcing,
//! ESNR and contention kernels folded into FNV-1a digests over seeded
//! corpora.
//!
//! Each kernel has one implementation (the pooled split-storage kernels);
//! the allocating entry points exercised here are thin wrappers over it.
//! The digests were captured while the allocating entry points were still
//! a separate copy of the arithmetic, so they prove the wrappers are
//! bit-for-bit the old results, not merely self-consistent.
//!
//! Every output bit (`f64::to_bits`), every length and every error kind is
//! folded in, so no tolerance can hide a divergence.

use nplus::link::{zf_sinr, SubcarrierObservation, ZfFilters, ZfWorkspace};
use nplus::power_control::expected_interference_power;
use nplus::precoder::{
    compute_precoders, residual_interference, OwnReceiver, PrecoderError, ProtectedReceiver,
};
use nplus::MultiDimCarrierSense;
use nplus_channel::{
    environment_from_name, DelayProfile, HardwareProfile, MimoLink, SIGCOMM11_INDOOR,
};
use nplus_linalg::{
    c64, mul_into, null_space_into, pinv, pinv_into, rank, CMatrix, CVector, Complex64,
    LinalgError, NullspaceWorkspace, PinvWorkspace, Subspace,
};
use nplus_mac::backoff::resolve_contention_in;
use nplus_phy::esnr::{
    effective_snr_db, esnr_band, select_rate, EsnrBand, RATE_ESNR_THRESHOLDS_DB,
};
use nplus_phy::params::OfdmConfig;
use nplus_phy::{Modulation, RATE_TABLE};
use nplus_testkit::Fnv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::TAU;

/// The kernel shapes folded through the shared [`Fnv`] digest: counts
/// as `u64` words, complex entries as their two parts, and every
/// vector and matrix behind its shape.
trait KernelFold {
    fn usize(&mut self, n: usize);
    fn c64(&mut self, z: Complex64);
    fn vector(&mut self, v: &CVector);
    fn vectors(&mut self, vs: &[CVector]);
    fn matrix(&mut self, m: &CMatrix);
}

impl KernelFold for Fnv {
    fn usize(&mut self, n: usize) {
        self.u64(n as u64);
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
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                self.c64(m.get(i, j));
            }
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
        let dim = null_space_into(&a, &mut NullspaceWorkspace::default(), &mut basis);
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

/// Every shape a receiver's zero-forcing matrix can take: `rows × cols`
/// with `1 ≤ cols ≤ rows ≤ 8` (8 is the scenario antenna cap). Each
/// shape gets two corpus matrices and three rank-deficient variants of a
/// third (last column zero, a copy of the first, twice the first), all
/// through one reused workspace so stale pool contents would show.
#[test]
fn pinv_engine_shapes_are_pinned() {
    let mut corpus = Corpus(0x5EED_8A8A);
    let mut ws = PinvWorkspace::default();
    let mut h = Fnv::new();
    let (mut ok, mut singular) = (0, 0);
    for rows in 1..=8usize {
        for cols in 1..=rows {
            let mut inputs = vec![corpus.matrix(rows, cols), corpus.matrix(rows, cols)];
            let base = corpus.matrix(rows, cols);
            for variant in 0..3 {
                if variant > 0 && cols < 2 {
                    continue;
                }
                let mut a = base.clone();
                for i in 0..rows {
                    let z = match variant {
                        0 => Complex64::ZERO,
                        1 => base.get(i, 0),
                        _ => base.get(i, 0).scale(2.0),
                    };
                    a.set(i, cols - 1, z);
                }
                inputs.push(a);
            }
            for a in inputs {
                match pinv_into(&a, &mut ws) {
                    Ok(()) => {
                        ok += 1;
                        h.matrix(&ws.out);
                    }
                    Err(e) => {
                        singular += 1;
                        h.usize(linalg_error_tag(&e));
                    }
                }
            }
        }
    }
    assert!(ok > 0 && singular > 0, "{ok}/{singular}");
    assert_eq!(
        h.0, 0x8054_2726_481d_34db,
        "pinv engine shapes digest {:#x}",
        h.0
    );
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
    let wlan_class = SIGCOMM11_INDOOR.hardware;
    let degraded = environment_from_name("degraded_hardware")
        .expect("built-in world")
        .hardware;
    let uncalibrated = HardwareProfile {
        calibration_error_std: 0.0,
        ..wlan_class
    };
    let profiles = [wlan_class, degraded, ideal, uncalibrated];
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

/// The dense-matrix arithmetic of the sample-level chain and the figure
/// bins: matvec, matmul, transposes, real scaling and the Frobenius norm
/// over four corpus matrices of every shape in `0..=4 × 0..=5`, then the
/// entry points built on them — the calibration residual, the precoder's
/// leak metric, per-bin channel matrices and the carrier-sense
/// projection.
#[test]
fn dense_matrix_arithmetic_is_pinned() {
    let mut corpus = Corpus(0x5EED_DE05);
    let mut rng = StdRng::seed_from_u64(30);
    let hardware = SIGCOMM11_INDOOR.hardware;
    let mut h = Fnv::new();
    for rows in 0..=4usize {
        for cols in 0..=5usize {
            for i in 0..4 {
                let a = corpus.matrix(rows, cols);
                let x = corpus.matrix(cols, 1).col(0);
                let b = corpus.matrix(cols, (rows + cols + i) % 6);
                h.vector(&a.mul_vec(&x));
                let mut ab = CMatrix::default();
                mul_into(&a, &b, &mut ab);
                h.matrix(&ab);
                h.matrix(&a.hermitian());
                h.matrix(&a.conj());
                h.matrix(&a.scale_re(corpus.entry().re));
                h.f64(a.frobenius_norm());
                h.matrix(&hardware.apply_calibration_error(&a, &mut rng));
                let unwanted = random_unwanted(rows, &mut rng);
                h.f64(residual_interference(&a, &unwanted, &x));
            }
        }
    }

    // Every bin of every link shape, and the sensor an `n_rx`-antenna
    // node builds from one or two ongoing links: its free DoF, its
    // projected power over two FFT blocks, and the per-bin projector
    // onto the complement of the ongoing streams' columns.
    let cfg = OfdmConfig::usrp2();
    for n_tx in 1..=4usize {
        for n_rx in 1..=4usize {
            let link = MimoLink::sample(n_tx, n_rx, 2.5, &DelayProfile::nlos(), &mut rng);
            let other = MimoLink::sample(1, n_rx, 0.5, &DelayProfile::nlos(), &mut rng);
            let per_bin = link.channel_matrices(cfg.fft_len);
            for m in &per_bin {
                h.matrix(m);
            }
            let ongoing = [per_bin, other.channel_matrices(cfg.fft_len)];
            let capture: Vec<Vec<Complex64>> = (0..n_rx)
                .map(|_| (0..2 * cfg.fft_len).map(|_| corpus.entry()).collect())
                .collect();
            for n_ongoing in 1..=2 {
                let sensor = MultiDimCarrierSense::from_ongoing(n_rx, cfg, &ongoing[..n_ongoing]);
                h.usize(sensor.free_dof());
                h.f64(sensor.sense_power(&capture));
                for k in 0..cfg.fft_len {
                    let dirs: Vec<CVector> = ongoing[..n_ongoing]
                        .iter()
                        .flat_map(|tx| (0..tx[k].cols()).map(|c| tx[k].col(c)))
                        .collect();
                    h.matrix(&Subspace::span(n_rx, &dirs).complement().projector());
                }
            }
        }
    }
    assert_eq!(h.0, 0x9461_b1db_8767_e773, "dense matrix digest {:#x}", h.0);
}

fn random_cvector(n: usize, rng: &mut StdRng) -> CVector {
    CVector::from_vec(
        (0..n)
            .map(|_| c64(rng.gen::<f64>() - 0.5, rng.gen()))
            .collect(),
    )
}

/// 200 random observations over 1–4 receive antennas (including empty
/// and oversubscribed ones), each with its antenna count, and the RNG
/// that drew them.
fn zf_corpus() -> (Vec<(usize, SubcarrierObservation)>, StdRng) {
    let mut rng = StdRng::seed_from_u64(9);
    let corpus = (0..200)
        .map(|_| {
            let n_ant = rng.gen_range(1..=4usize);
            let n_wanted = rng.gen_range(0..=n_ant + 1);
            let n_known = rng.gen_range(0..=2usize);
            let n_resid = rng.gen_range(0..=2usize);
            let obs = SubcarrierObservation {
                wanted: (0..n_wanted)
                    .map(|_| random_cvector(n_ant, &mut rng))
                    .collect(),
                known_interference: (0..n_known)
                    .map(|_| random_cvector(n_ant, &mut rng))
                    .collect(),
                residual_interference: (0..n_resid)
                    .map(|_| random_cvector(n_ant, &mut rng))
                    .collect(),
                noise_power: 1.0,
            };
            (n_ant, obs)
        })
        .collect();
    (corpus, rng)
}

/// [`zf_corpus`], plus a duplicated wanted column that makes the Gram
/// matrix singular.
#[test]
fn zf_sinr_is_pinned() {
    let (corpus, mut rng) = zf_corpus();
    let mut h = Fnv::new();
    let (mut empty, mut oversubscribed) = (0, 0);
    for (n_ant, obs) in &corpus {
        let n_wanted = obs.wanted.len();
        empty += usize::from(n_wanted == 0);
        oversubscribed += usize::from(n_wanted + obs.known_interference.len() > *n_ant);
        let sinr = zf_sinr(obs);
        h.usize(sinr.len());
        for s in sinr {
            h.f64(s);
        }
    }
    let v = random_cvector(3, &mut rng);
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

/// A filter built once and applied to any residuals is the fresh
/// zero-forcing solve bit for bit: over [`zf_corpus`], each
/// observation's filter is applied to its own residuals and to two more
/// seeded residual sets, all through one reused filter set.
#[test]
fn zf_filter_reuse_matches_recompute() {
    let (corpus, _) = zf_corpus();
    let mut rng = StdRng::seed_from_u64(10);
    let mut ws = ZfWorkspace::default();
    let mut filters = ZfFilters::default();
    let mut reused = Vec::new();
    for (n_ant, obs) in &corpus {
        filters.clear();
        filters.push(&obs.wanted, &obs.known_interference, &mut ws);
        let mut residual_sets = vec![obs.residual_interference.clone()];
        for _ in 0..2 {
            let n_resid = rng.gen_range(0..=3usize);
            residual_sets.push(
                (0..n_resid)
                    .map(|_| random_cvector(*n_ant, &mut rng))
                    .collect(),
            );
        }
        for residual_interference in residual_sets {
            filters.apply(0, &residual_interference, obs.noise_power, &mut reused);
            let fresh = zf_sinr(&SubcarrierObservation {
                residual_interference,
                ..obs.clone()
            });
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&reused), bits(&fresh), "{obs:?}");
        }
    }
}

const MODULATIONS: [Modulation; 4] = [
    Modulation::Bpsk,
    Modulation::Qpsk,
    Modulation::Qam16,
    Modulation::Qam64,
];

/// SNR tracks (linear) covering every branch of the ESNR inversion:
/// - 120 seeded frequency-selective tracks of 13 or 52 subcarriers: a
///   level in [-5, 35] dB, a two-tone ripple and sometimes a deep notch;
/// - flat tracks at each rate threshold, and 1 and 2 ulps either side;
/// - saturated tracks (mean BER at or below 1e-12 for every modulation);
/// - an all-zero track, which takes the inversion's floor branch.
fn esnr_corpus() -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(23);
    let mut corpus: Vec<Vec<f64>> = (0..120)
        .map(|i| {
            let n = if i % 4 == 3 { 13 } else { 52 };
            let level: f64 = rng.gen_range(-5.0..35.0);
            let (depth, period, phase) = (
                rng.gen_range(0.0..12.0f64),
                rng.gen_range(4.0..30.0f64),
                rng.gen_range(0.0..6.3f64),
            );
            let notch = (rng.gen::<f64>() < 0.3).then(|| rng.gen_range(0..n));
            (0..n)
                .map(|k| {
                    let mut db = level + depth * ((k as f64 / period) * TAU + phase).sin();
                    if notch == Some(k) {
                        db -= 25.0;
                    }
                    10f64.powf(db / 10.0)
                })
                .collect()
        })
        .collect();
    for thr in RATE_ESNR_THRESHOLDS_DB {
        let bits = 10f64.powf(thr / 10.0).to_bits();
        for ulps in [-2i64, -1, 0, 1, 2] {
            corpus.push(vec![f64::from_bits(bits.wrapping_add_signed(ulps)); 52]);
        }
    }
    corpus.push(vec![1e4; 52]);
    corpus.push(
        (0..52)
            .map(|k| 10f64.powf(3.5 + (k % 7) as f64 * 0.15))
            .collect(),
    );
    corpus.push(vec![0.0; 52]);
    corpus
}

/// `effective_snr_db` bits for every modulation over [`esnr_corpus`].
#[test]
fn esnr_is_pinned() {
    let mut h = Fnv::new();
    for track in esnr_corpus() {
        for m in MODULATIONS {
            h.f64(effective_snr_db(m, &track));
        }
    }
    assert_eq!(
        h.0, 0x93fb_fe12_b22a_ca2d,
        "effective_snr_db digest {:#x}",
        h.0
    );
}

/// `select_rate` decisions over [`esnr_corpus`] plus an empty track.
#[test]
fn select_rate_is_pinned() {
    let mut h = Fnv::new();
    let mut corpus = esnr_corpus();
    corpus.push(Vec::new());
    let mut seen = [false; 9];
    for track in &corpus {
        let pick = select_rate(track).unwrap_or(RATE_ESNR_THRESHOLDS_DB.len());
        seen[pick] = true;
        h.usize(pick);
    }
    assert!(
        seen.iter().all(|&s| s),
        "corpus misses a decision: {seen:?}"
    );
    assert_eq!(h.0, 0xcee7_2d41_3024_2b4a, "select_rate digest {:#x}", h.0);
}

/// Every band the engine asks about: each modulation against its two
/// rate thresholds (rate selection), and each rate's 1 dB ramp below its
/// threshold (settlement).
fn engine_bands() -> Vec<(Modulation, f64, f64)> {
    let thr = RATE_ESNR_THRESHOLDS_DB;
    let rate_bands = (0..thr.len())
        .step_by(2)
        .map(|slow| (RATE_TABLE[slow].modulation, thr[slow], thr[slow + 1]));
    let ramps = (0..thr.len()).map(|r| (RATE_TABLE[r].modulation, thr[r] - 1.0, thr[r]));
    rate_bands.chain(ramps).collect()
}

/// `esnr_band` is the comparison of the finished `effective_snr_db` with
/// the band edges, and its `Within` value is that ESNR's exact bits.
fn assert_band_matches(m: Modulation, track: &[f64], lo: f64, hi: f64) {
    let exact = effective_snr_db(m, track);
    let got = esnr_band(m, track, lo, hi);
    let ok = match got {
        EsnrBand::Above => exact >= hi,
        EsnrBand::Below => exact < lo,
        EsnrBand::Within(x) => x.to_bits() == exact.to_bits() && lo <= x && x < hi,
    };
    assert!(
        ok,
        "{m} [{lo}, {hi}): {got:?} but effective_snr_db is {exact}"
    );
}

/// The banded inversion against the full one, on every engine band, over
/// [`esnr_corpus`] and over tracks scaled to land within 1e-9 dB of each
/// band edge, on both sides.
#[test]
fn esnr_band_matches_full_inversion() {
    let corpus = esnr_corpus();
    let bands = engine_bands();
    assert_eq!(bands.len(), 12);
    for track in &corpus {
        for &(m, lo, hi) in &bands {
            assert_band_matches(m, track, lo, hi);
        }
    }
    // Scale a flat and three selective tracks onto each edge: the
    // ESNR moves by about the scale in dB, so a few corrections land
    // it on the edge.
    let (mut near, mut above, mut below) = (0, 0, 0);
    for base in [
        &corpus[0],
        &corpus[1],
        &corpus[2],
        &corpus[corpus.len() - 4],
    ] {
        for &(m, lo, hi) in &bands {
            for edge in [lo, hi] {
                let mut track = base.clone();
                for _ in 0..60 {
                    let off = edge - effective_snr_db(m, &track);
                    if off.abs() <= 1e-9 {
                        break;
                    }
                    let gain = 10f64.powf(off / 10.0);
                    track.iter_mut().for_each(|s| *s *= gain);
                }
                let off = effective_snr_db(m, &track) - edge;
                if off.abs() <= 1e-9 {
                    near += 1;
                    above += usize::from(off >= 0.0);
                    below += usize::from(off < 0.0);
                }
                // Nudge across the edge by a few ulps of the linear SNR.
                for ulps in [-3i64, -1, 0, 1, 3] {
                    let nudged: Vec<f64> = track
                        .iter()
                        .map(|s| f64::from_bits(s.to_bits().wrapping_add_signed(ulps)))
                        .collect();
                    assert_band_matches(m, &nudged, lo, hi);
                }
            }
        }
    }
    assert!(
        near >= 90 && above > 0 && below > 0,
        "{near} near, {above} at or above, {below} below"
    );
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
