//! 802.11 data scrambler.
//!
//! The 7-bit self-synchronizing scrambler with polynomial `x^7 + x^4 + 1`
//! (IEEE 802.11-2007 §17.3.5.4). Whitening the payload keeps the OFDM
//! peak-to-average ratio bounded and decorrelates consecutive symbols.
//! Scrambling is an involution for a fixed seed: applying the same sequence
//! twice restores the input, which is how the descrambler works.

/// The 802.11 scrambler/descrambler.
#[derive(Debug, Clone)]
pub(crate) struct Scrambler {
    state: u8, // 7-bit LFSR state
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit seed (must be non-zero:
    /// the all-zero state never leaves zero).
    pub(crate) fn new(seed: u8) -> Self {
        let state = seed & 0x7F;
        assert!(state != 0, "scrambler seed must be non-zero");
        Scrambler { state }
    }

    /// The default seed used throughout the workspace (all ones, a common
    /// 802.11 choice).
    pub(crate) fn default_seed() -> Self {
        Self::new(0x7F)
    }

    /// Advances the LFSR and returns the next scrambling bit.
    fn next_bit(&mut self) -> u8 {
        // Feedback: x^7 + x^4 + 1 -> new bit = s6 XOR s3 (0-indexed).
        let b = ((self.state >> 6) ^ (self.state >> 3)) & 1;
        self.state = ((self.state << 1) | b) & 0x7F;
        b
    }

    /// Scrambles (or descrambles) a bit sequence in place.
    pub(crate) fn apply_in_place(&mut self, bits: &mut [u8]) {
        for bit in bits {
            *bit ^= self.next_bit();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scramble_descramble_round_trip() {
        let bits: Vec<u8> = (0..256).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        let mut scrambled = bits.clone();
        Scrambler::new(0x5B).apply_in_place(&mut scrambled);
        let mut restored = scrambled.clone();
        Scrambler::new(0x5B).apply_in_place(&mut restored);
        assert_eq!(restored, bits);
        assert_ne!(scrambled, bits, "scrambler must actually change the data");
    }

    #[test]
    fn first_16_bits_of_standard_sequence() {
        // With the all-ones seed, the 802.11 scrambling sequence begins
        // 0000 1110 1111 0010 ... (IEEE 802.11-2007 Fig. 17-7 repeats with
        // period 127; we check the well-known first bits).
        let mut s = Scrambler::new(0x7F);
        let seq: Vec<u8> = (0..16).map(|_| s.next_bit()).collect();
        assert_eq!(seq, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn period_is_127() {
        let mut s = Scrambler::new(0x7F);
        let first: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        let second: Vec<u8> = (0..127).map(|_| s.next_bit()).collect();
        assert_eq!(first, second);
        // Maximal-length sequence: 64 ones, 63 zeros.
        assert_eq!(first.iter().filter(|&&b| b == 1).count(), 64);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = vec![0u8; 64];
        let mut b = a.clone();
        Scrambler::new(0x7F).apply_in_place(&mut a);
        Scrambler::new(0x01).apply_in_place(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_seed_rejected() {
        let _ = Scrambler::new(0);
    }
}
