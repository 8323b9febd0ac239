//! Property-based tests for the PHY coding and modulation chain.

use nplus_linalg::{c64, Complex64};
use nplus_phy::bits::{bits_to_bytes, bytes_to_bits};
use nplus_phy::convolutional::{coded_len, encode, viterbi_decode, ERASURE};
use nplus_phy::fft::{fft, ifft};
use nplus_phy::interleaver::Interleaver;
use nplus_phy::modulation::{demodulate, modulate, Modulation};
use nplus_phy::ofdm::{receive_payload, transmit_payload};
use nplus_phy::params::OfdmConfig;
use nplus_phy::puncture::{depuncture, puncture, CodeRate};
use nplus_phy::rates::RATE_TABLE;
use nplus_phy::scrambler::Scrambler;
use proptest::prelude::*;

fn bit_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..2, 1..max_len)
}

fn byte_vec(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..max_len)
}

fn code_rate() -> impl Strategy<Value = CodeRate> {
    prop_oneof![
        Just(CodeRate::R12),
        Just(CodeRate::R23),
        Just(CodeRate::R34),
    ]
}

fn modulation() -> impl Strategy<Value = Modulation> {
    prop_oneof![
        Just(Modulation::Bpsk),
        Just(Modulation::Qpsk),
        Just(Modulation::Qam16),
        Just(Modulation::Qam64),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// bytes → bits → bytes is the identity.
    #[test]
    fn bits_bytes_round_trip(bytes in byte_vec(300)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    /// The scrambler is an involution under the same seed and always
    /// changes a non-trivial input.
    #[test]
    fn scrambler_involution(bits in bit_vec(400), seed in 1u8..128) {
        let scrambled = Scrambler::new(seed).apply(&bits);
        let restored = Scrambler::new(seed).apply(&scrambled);
        prop_assert_eq!(&restored, &bits);
    }

    /// Viterbi inverts the convolutional encoder on a clean channel for
    /// any input, at every puncturing rate.
    #[test]
    fn coding_chain_round_trip(bits in bit_vec(300), rate in code_rate()) {
        let coded = encode(&bits);
        let on_air = puncture(&coded, rate);
        let restored = depuncture(&on_air, rate, coded.len());
        prop_assert_eq!(viterbi_decode(&restored), bits);
    }

    /// The decoder tolerates one corrupted coded bit anywhere (the free
    /// distance of the mother code is 10).
    #[test]
    fn single_error_corrected(bits in bit_vec(200), pos in any::<prop::sample::Index>()) {
        let mut coded = encode(&bits);
        let idx = pos.index(coded.len());
        coded[idx] ^= 1;
        prop_assert_eq!(viterbi_decode(&coded), bits);
    }

    /// Erasing any single pair position still decodes.
    #[test]
    fn single_erasure_corrected(bits in bit_vec(200), pos in any::<prop::sample::Index>()) {
        let mut coded = encode(&bits);
        let idx = pos.index(coded.len() / 2) * 2;
        coded[idx] = ERASURE;
        coded[idx + 1] = ERASURE;
        prop_assert_eq!(viterbi_decode(&coded), bits);
    }

    /// Constellation mapping round-trips for any bit pattern.
    #[test]
    fn modulation_round_trip(m in modulation(), seed in any::<u64>()) {
        let bps = m.bits_per_symbol();
        let mut s = seed | 1;
        let bits: Vec<u8> = (0..bps * 64).map(|_| {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            (s & 1) as u8
        }).collect();
        prop_assert_eq!(demodulate(&modulate(&bits, m), m), bits);
    }

    /// Interleaving is a bijection for every symbol geometry.
    #[test]
    fn interleaver_round_trip(m in modulation(), bits in bit_vec(400)) {
        let n_cbps = 48 * m.bits_per_symbol();
        let mut block = bits;
        block.resize(n_cbps, 0);
        let il = Interleaver::new(n_cbps, m.bits_per_symbol());
        prop_assert_eq!(il.deinterleave(&il.interleave(&block)), block);
    }

    /// FFT/IFFT round-trip and Parseval hold for random signals.
    #[test]
    fn fft_round_trip(res in proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 64)) {
        let x: Vec<Complex64> = res.into_iter().map(|(r, i)| c64(r, i)).collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!(a.approx_eq(*b, 1e-9));
        }
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ef: f64 = fft(&x).iter().map(|z| z.norm_sqr()).sum::<f64>() / 64.0;
        prop_assert!((ex - ef).abs() < 1e-7 * (1.0 + ex));
    }

    /// The full TX → RX payload chain round-trips on an ideal channel for
    /// any payload and rate.
    #[test]
    fn payload_chain_round_trip(payload in byte_vec(120), rate_idx in 0usize..8) {
        let cfg = OfdmConfig::usrp2();
        let mcs = RATE_TABLE[rate_idx];
        let flat = vec![Complex64::ONE; cfg.fft_len];
        let wave = transmit_payload(&payload, mcs, &cfg);
        let rx = receive_payload(&wave, &flat, mcs, payload.len(), &cfg);
        prop_assert_eq!(rx, payload);
    }

    /// Coded length accounting is consistent with the encoder.
    #[test]
    fn coded_len_matches_encoder(bits in bit_vec(300)) {
        prop_assert_eq!(encode(&bits).len(), coded_len(bits.len()));
    }
}
