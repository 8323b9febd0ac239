//! Bit/byte manipulation helpers shared across the PHY pipeline.
//!
//! The coding chain (scrambler → convolutional encoder → interleaver →
//! constellation mapper) operates on individual bits; frames arrive as
//! bytes. Bits are transmitted LSB-first within each byte, matching
//! 802.11's serialization order.

/// Expands bytes into bits, LSB-first within each byte.
pub(crate) fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in 0..8 {
            bits.push((b >> k) & 1);
        }
    }
    bits
}

/// Packs bits (LSB-first) back into bytes. The bit count must be a
/// multiple of 8.
pub(crate) fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    assert!(
        bits.len().is_multiple_of(8),
        "bits_to_bytes: {} bits is not a whole number of bytes",
        bits.len()
    );
    bits.chunks(8)
        .map(|chunk| {
            chunk
                .iter()
                .enumerate()
                .fold(0u8, |acc, (k, &bit)| acc | ((bit & 1) << k))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_bit_round_trip() {
        let bytes = vec![0x00, 0xFF, 0xA5, 0x3C, 0x01, 0x80];
        let bits = bytes_to_bits(&bytes);
        assert_eq!(bits.len(), bytes.len() * 8);
        assert_eq!(bits_to_bytes(&bits), bytes);
    }

    #[test]
    fn lsb_first_order() {
        let bits = bytes_to_bits(&[0b0000_0001]);
        assert_eq!(bits[0], 1);
        assert_eq!(&bits[1..], &[0; 7]);
        let bits = bytes_to_bits(&[0b1000_0000]);
        assert_eq!(bits[7], 1);
        assert_eq!(&bits[..7], &[0; 7]);
    }

    #[test]
    #[should_panic(expected = "whole number of bytes")]
    fn unaligned_bits_panic() {
        bits_to_bytes(&[1, 0, 1]);
    }
}
