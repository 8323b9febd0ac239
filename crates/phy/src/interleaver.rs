//! Block interleaver.
//!
//! 802.11's two-permutation interleaver (IEEE 802.11-2007 §17.3.5.7)
//! operates on one OFDM symbol's worth of coded bits. The first permutation
//! spreads adjacent coded bits across non-adjacent subcarriers (defeating
//! frequency-selective fade bursts); the second rotates bits across
//! constellation bit positions so errors don't always land on the
//! least-protected bits of a QAM symbol.

/// Computes the interleaved position for each input index, for a symbol of
/// `n_cbps` coded bits and `n_bpsc` coded bits per subcarrier.
fn permutation(n_cbps: usize, n_bpsc: usize) -> Vec<usize> {
    let s = (n_bpsc / 2).max(1);
    let mut table = vec![0usize; n_cbps];
    for k in 0..n_cbps {
        // First permutation.
        let i = (n_cbps / 16) * (k % 16) + k / 16;
        // Second permutation.
        let j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
        table[k] = j;
    }
    table
}

/// A block interleaver bound to one symbol geometry.
#[derive(Debug, Clone)]
pub(crate) struct Interleaver {
    forward: Vec<usize>,
    inverse: Vec<usize>,
}

impl Interleaver {
    /// Creates an interleaver for `n_cbps` coded bits per symbol with
    /// `n_bpsc` coded bits per subcarrier. `n_cbps` must be a multiple
    /// of 16 (always true for the 802.11 symbol geometries).
    pub(crate) fn new(n_cbps: usize, n_bpsc: usize) -> Self {
        assert!(n_cbps.is_multiple_of(16), "N_CBPS must be a multiple of 16");
        let forward = permutation(n_cbps, n_bpsc);
        let mut inverse = vec![0usize; n_cbps];
        for (k, &j) in forward.iter().enumerate() {
            inverse[j] = k;
        }
        Interleaver { forward, inverse }
    }

    /// Interleaves one block. `bits.len()` must equal the block size.
    pub(crate) fn interleave(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(
            bits.len(),
            self.forward.len(),
            "interleave: wrong block size"
        );
        let mut out = vec![0u8; bits.len()];
        for (k, &j) in self.forward.iter().enumerate() {
            out[j] = bits[k];
        }
        out
    }

    /// Inverts [`Self::interleave`].
    pub(crate) fn deinterleave(&self, bits: &[u8]) -> Vec<u8> {
        assert_eq!(
            bits.len(),
            self.inverse.len(),
            "deinterleave: wrong block size"
        );
        let mut out = vec![0u8; bits.len()];
        for (j, &k) in self.inverse.iter().enumerate() {
            out[k] = bits[j];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut s = seed.max(1);
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 1) as u8
            })
            .collect()
    }

    #[test]
    fn round_trip_all_geometries() {
        // (N_CBPS, N_BPSC) for BPSK, QPSK, 16-QAM, 64-QAM at 48 data tones.
        for &(n_cbps, n_bpsc) in &[(48usize, 1usize), (96, 2), (192, 4), (288, 6)] {
            let il = Interleaver::new(n_cbps, n_bpsc);
            let bits = pseudo_bits(n_cbps, n_cbps as u64);
            let rt = il.deinterleave(&il.interleave(&bits));
            assert_eq!(rt, bits, "round trip failed for N_CBPS={n_cbps}");
        }
    }

    #[test]
    fn permutation_is_bijective() {
        for &(n_cbps, n_bpsc) in &[(48usize, 1usize), (96, 2), (192, 4), (288, 6)] {
            let il = Interleaver::new(n_cbps, n_bpsc);
            let mut seen = vec![false; n_cbps];
            for &j in &il.forward {
                assert!(!seen[j], "position {j} hit twice");
                seen[j] = true;
            }
        }
    }

    #[test]
    fn adjacent_bits_are_separated() {
        // The whole point: adjacent coded bits must not land on adjacent
        // positions (same subcarrier region).
        let il = Interleaver::new(192, 4);
        for k in 0..191 {
            let d = il.forward[k].abs_diff(il.forward[k + 1]);
            assert!(d >= 4, "bits {k},{} map {} apart", k + 1, d);
        }
    }

    #[test]
    fn bpsk_first_permutation_known_values() {
        // For BPSK (s=1) the second permutation is the identity, so
        // position k maps to (N/16)*(k%16) + k/16 = 3*(k%16) + k/16.
        let il = Interleaver::new(48, 1);
        assert_eq!(il.forward[0], 0);
        assert_eq!(il.forward[1], 3);
        assert_eq!(il.forward[16], 1);
        assert_eq!(il.forward[47], 47);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn bad_block_size_rejected() {
        let _ = Interleaver::new(50, 1);
    }
}
