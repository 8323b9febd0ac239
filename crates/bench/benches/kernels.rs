//! Criterion micro-benchmarks for the computational kernels on n+'s
//! critical path: the per-subcarrier precoder, the null-space solver, the
//! FFT, Viterbi decoding, carrier-sense projection, and one full protocol
//! round. These bound the per-packet processing cost argued in §4
//! ("Complexity") to be comparable to stock 802.11n beamforming.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use nplus::carrier_sense::MultiDimCarrierSense;
use nplus::policy::NPlus;
use nplus::precoder::{
    compute_precoders_into, OwnReceiverSoARef, PrecoderWorkspace, ProtectedReceiverSoARef,
};
use nplus::scenario::three_pairs;
use nplus::sim::{SimConfig, SinrGrid};
use nplus_linalg::{
    null_space_into, CMatrix, CMatrixSoA, CVector, Complex64, NullspaceWorkspace, Subspace,
};
use nplus_phy::convolutional::{encode, viterbi_decode};
use nplus_phy::fft::{fft_in_place, ifft};
use nplus_phy::params::OfdmConfig;
use nplus_testkit::fixtures::{random_bits, random_complex, random_matrix};

fn bench_fft(c: &mut Criterion) {
    let mut rng = nplus_testkit::rng(1);
    let data: Vec<Complex64> = (0..64).map(|_| random_complex(&mut rng)).collect();
    c.bench_function("fft_64", |b| {
        b.iter_batched(
            || data.clone(),
            |mut d| fft_in_place(&mut d),
            BatchSize::SmallInput,
        )
    });
}

fn bench_null_space(c: &mut Criterion) {
    let mut rng = nplus_testkit::rng(2);
    let a = CMatrixSoA::from_aos(&random_matrix(2, 4, &mut rng));
    let mut ws = NullspaceWorkspace::default();
    let mut basis = Vec::new();
    c.bench_function("null_space_2x4", |b| {
        b.iter(|| null_space_into(&a, &mut ws, &mut basis))
    });
}

fn bench_precoder(c: &mut Criterion) {
    // The Fig. 3 join: null at 1-antenna rx, align at 2-antenna rx —
    // the exact computation a 3-antenna joiner performs per subcarrier,
    // through the pooled kernel the engine runs.
    let mut rng = nplus_testkit::rng(3);
    let h1 = CMatrixSoA::from_aos(&random_matrix(1, 3, &mut rng));
    let h2 = CMatrixSoA::from_aos(&random_matrix(2, 3, &mut rng));
    let h3 = CMatrixSoA::from_aos(&random_matrix(3, 3, &mut rng));
    let u2 = Subspace::span(2, &[random_matrix(2, 1, &mut rng).col(0)]);
    let u1 = Subspace::zero(1);
    let u3 = Subspace::zero(3);
    let protected = [
        ProtectedReceiverSoARef {
            channel: &h1,
            unwanted: &u1,
        },
        ProtectedReceiverSoARef {
            channel: &h2,
            unwanted: &u2,
        },
    ];
    let own = [OwnReceiverSoARef {
        channel: &h3,
        n_streams: 1,
        unwanted: &u3,
    }];
    let mut ws = PrecoderWorkspace::default();
    c.bench_function("precoder_fig3_join", |b| {
        b.iter(|| compute_precoders_into(3, &protected, &own, &mut ws).unwrap())
    });
}

fn bench_viterbi(c: &mut Criterion) {
    let mut rng = nplus_testkit::rng(4);
    let bits = random_bits(1000, &mut rng);
    let coded = encode(&bits);
    c.bench_function("viterbi_1000_bits", |b| b.iter(|| viterbi_decode(&coded)));
}

fn bench_projection(c: &mut Criterion) {
    let cfg = OfdmConfig::usrp2();
    let mut rng = nplus_testkit::rng(5);
    let h: Vec<CMatrix> = (0..cfg.fft_len)
        .map(|_| random_matrix(3, 1, &mut rng))
        .collect();
    let sensor = MultiDimCarrierSense::from_ongoing(3, cfg, &[h]);
    let capture: Vec<Vec<Complex64>> = (0..3)
        .map(|_| (0..256).map(|_| random_complex(&mut rng)).collect())
        .collect();
    c.bench_function("carrier_sense_project_256", |b| {
        b.iter(|| sensor.sense_power(&capture))
    });
    // For scale: the raw ifft of the same volume of samples.
    let block: Vec<Complex64> = capture[0][..64].to_vec();
    c.bench_function("ifft_64_reference", |b| b.iter(|| ifft(&block)));
}

/// The SoA vs scalar head-to-head on the engine's innermost kernel: the
/// per-subcarrier matrix-vector multiply (channel x precoder). The AoS
/// variant is the scalar loop over interleaved `Complex64` entries the
/// engine ran before the split-storage overhaul; the SoA variant is the
/// split re/im `mul_vec_into` the hot path consumes today.
fn bench_matvec_soa_vs_aos(c: &mut Criterion) {
    let mut rng = nplus_testkit::rng(8);
    let aos = random_matrix(4, 4, &mut rng);
    let soa = CMatrixSoA::from_aos(&aos);
    let x: CVector = random_matrix(4, 1, &mut rng).col(0);

    c.bench_function("matvec_4x4_aos_scalar", |b| {
        b.iter(|| {
            let mut out = CVector::zeros(4);
            for i in 0..4 {
                let mut acc = Complex64::ZERO;
                for (j, e) in x.iter().enumerate() {
                    acc += aos[(i, j)] * *e;
                }
                out[i] = acc;
            }
            out
        })
    });
    let mut out = CVector::zeros(4);
    c.bench_function("matvec_4x4_soa_split", |b| {
        b.iter(|| {
            soa.mul_vec_into(&x, &mut out);
            out[0]
        })
    });
}

fn bench_sim_round(c: &mut Criterion) {
    let built = three_pairs(6);
    let cfg = SimConfig {
        rounds: 1,
        ..SimConfig::default()
    };
    c.bench_function("nplus_round_three_pairs", |b| {
        b.iter(|| built.run(NPlus, &cfg, 7))
    });
    // The decimated SINR tier on the same round (the opt-in fast path).
    let dec_cfg = SimConfig {
        rounds: 1,
        sinr_grid: SinrGrid::Decimated(4),
        ..SimConfig::default()
    };
    c.bench_function("nplus_round_three_pairs_decimated4", |b| {
        b.iter(|| built.run(NPlus, &dec_cfg, 7))
    });
}

criterion_group!(
    benches,
    bench_fft,
    bench_null_space,
    bench_precoder,
    bench_viterbi,
    bench_projection,
    bench_matvec_soa_vs_aos,
    bench_sim_round
);
criterion_main!(benches);
