//! Property-based tests for the crate-private stages of the coding and
//! modulation chain: bit packing, scrambling, puncturing, erasures,
//! interleaving and constellation geometry. The public stages keep
//! their properties in `tests/proptests.rs`.

use crate::bits::{bits_to_bytes, bytes_to_bits};
use crate::convolutional::{coded_len, encode, viterbi_decode, ERASURE};
use crate::interleaver::Interleaver;
use crate::modulation::{demodulate, modulate, Modulation};
use crate::puncture::{depuncture, puncture, CodeRate};
use crate::scrambler::Scrambler;
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

    /// The scrambler is an involution under the same seed.
    #[test]
    fn scrambler_involution(bits in bit_vec(400), seed in 1u8..128) {
        let mut restored = bits.clone();
        Scrambler::new(seed).apply_in_place(&mut restored);
        Scrambler::new(seed).apply_in_place(&mut restored);
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

    /// Coded length accounting is consistent with the encoder.
    #[test]
    fn coded_len_matches_encoder(bits in bit_vec(300)) {
        prop_assert_eq!(encode(&bits).len(), coded_len(bits.len()));
    }
}
