//! Convolutional coding: the 802.11 rate-1/2, K=7 code and its Viterbi
//! decoder.
//!
//! Generators are the industry-standard octal (133, 171). Higher code
//! rates (2/3, 3/4) are produced by puncturing in [`crate::puncture`];
//! the decoder accepts erasure marks at punctured positions and simply
//! skips them in the branch metric.

/// Constraint length of the 802.11 code.
pub(crate) const CONSTRAINT: usize = 7;
/// Number of trellis states (2^(K-1)).
pub(crate) const NUM_STATES: usize = 64;
/// Generator polynomial A (octal 133).
pub(crate) const GEN_A: u8 = 0o133;
/// Generator polynomial B (octal 171).
pub(crate) const GEN_B: u8 = 0o171;

/// Sentinel bit value marking an erased (punctured) position in the coded
/// stream handed to [`viterbi_decode`].
pub(crate) const ERASURE: u8 = 2;

#[inline]
fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Encodes `bits` at rate 1/2. The encoder is flushed with `K-1 = 6` zero
/// tail bits so the trellis terminates in state 0; the output therefore has
/// `2 * (bits.len() + 6)` coded bits.
pub fn encode(bits: &[u8]) -> Vec<u8> {
    let mut state = 0u8; // 6-bit shift register
    let mut out = Vec::with_capacity(2 * (bits.len() + CONSTRAINT - 1));
    for &b in bits.iter().chain(std::iter::repeat_n(&0u8, CONSTRAINT - 1)) {
        let reg = ((b & 1) << 6) | state;
        out.push(parity(reg & GEN_A));
        out.push(parity(reg & GEN_B));
        state = reg >> 1;
    }
    out
}

/// Number of coded bits produced for `n` information bits (including tail).
pub(crate) fn coded_len(n: usize) -> usize {
    2 * (n + CONSTRAINT - 1)
}

/// Hard-decision Viterbi decoder with erasure support.
///
/// `coded` holds pairs of bits per trellis step; positions equal to
/// `ERASURE` contribute nothing to the branch metric (this is how
/// punctured bits are handled). The decoder assumes the encoder was
/// flushed (trellis ends in state 0) and returns the information bits
/// without the tail.
pub fn viterbi_decode(coded: &[u8]) -> Vec<u8> {
    assert!(
        coded.len().is_multiple_of(2),
        "coded stream must hold bit pairs"
    );
    let steps = coded.len() / 2;
    if steps < CONSTRAINT - 1 {
        return Vec::new();
    }

    // Precompute per-(state, input) outputs.
    // next_state[s][b], out_a[s][b], out_b[s][b]
    let mut next_state = [[0usize; 2]; NUM_STATES];
    let mut out_bits = [[(0u8, 0u8); 2]; NUM_STATES];
    for s in 0..NUM_STATES {
        for b in 0..2usize {
            let reg = ((b as u8) << 6) | s as u8;
            next_state[s][b] = (reg >> 1) as usize;
            out_bits[s][b] = (parity(reg & GEN_A), parity(reg & GEN_B));
        }
    }

    const INF: u32 = u32::MAX / 2;
    let mut metric = vec![INF; NUM_STATES];
    metric[0] = 0; // encoder starts in state 0
                   // Survivor table: for each step and state, the (prev_state, input) pair.
    let mut survivors: Vec<[(u8, u8); NUM_STATES]> = Vec::with_capacity(steps);

    for t in 0..steps {
        let ra = coded[2 * t];
        let rb = coded[2 * t + 1];
        let mut new_metric = vec![INF; NUM_STATES];
        let mut surv = [(0u8, 0u8); NUM_STATES];
        for s in 0..NUM_STATES {
            let m = metric[s];
            if m >= INF {
                continue;
            }
            for b in 0..2usize {
                let (oa, ob) = out_bits[s][b];
                let mut cost = m;
                if ra != ERASURE && ra != oa {
                    cost += 1;
                }
                if rb != ERASURE && rb != ob {
                    cost += 1;
                }
                let ns = next_state[s][b];
                if cost < new_metric[ns] {
                    new_metric[ns] = cost;
                    surv[ns] = (s as u8, b as u8);
                }
            }
        }
        metric = new_metric;
        survivors.push(surv);
    }

    // Trace back from state 0 (flushed trellis).
    let mut state = 0usize;
    let mut decoded = vec![0u8; steps];
    for t in (0..steps).rev() {
        let (prev, input) = survivors[t][state];
        decoded[t] = input;
        state = prev as usize;
    }
    decoded.truncate(steps - (CONSTRAINT - 1)); // strip the tail
    decoded
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
    fn encode_known_impulse_response() {
        // A single 1 followed by zeros produces the generator sequences.
        let coded = encode(&[1]);
        assert_eq!(coded.len(), coded_len(1));
        // First output pair: register = 1000000 -> gA(133 octal = 1011011):
        // taps at bits 6,4,3,1,0 -> only bit 6 set -> parity 1.
        // gB(171 octal = 1111001): taps at 6,5,4,3,0 -> parity 1.
        assert_eq!(&coded[..2], &[1, 1]);
    }

    #[test]
    fn clean_channel_round_trip() {
        let bits = pseudo_bits(200, 42);
        let coded = encode(&bits);
        assert_eq!(viterbi_decode(&coded), bits);
    }

    #[test]
    fn empty_input() {
        let coded = encode(&[]);
        assert_eq!(coded.len(), 12); // 6 tail bits * 2
        assert!(viterbi_decode(&coded).is_empty());
    }

    #[test]
    fn corrects_scattered_errors() {
        // The free distance of (133,171) is 10, so sparse single errors
        // are easily corrected.
        let bits = pseudo_bits(120, 7);
        let mut coded = encode(&bits);
        for idx in [5usize, 40, 77, 130, 188] {
            if idx < coded.len() {
                coded[idx] ^= 1;
            }
        }
        assert_eq!(viterbi_decode(&coded), bits);
    }

    #[test]
    fn corrects_with_erasures() {
        let bits = pseudo_bits(100, 99);
        let mut coded = encode(&bits);
        // Erase every 6th coded bit (more aggressive than rate-3/4
        // puncturing's 1/3 erasures... actually 1/6 here).
        for i in (0..coded.len()).step_by(6) {
            coded[i] = ERASURE;
        }
        assert_eq!(viterbi_decode(&coded), bits);
    }

    #[test]
    fn burst_beyond_capability_fails_gracefully() {
        // A long error burst will corrupt the decode but must not panic,
        // and the output length must still be right.
        let bits = pseudo_bits(100, 3);
        let mut coded = encode(&bits);
        for b in coded.iter_mut().take(40) {
            *b ^= 1;
        }
        let decoded = viterbi_decode(&coded);
        assert_eq!(decoded.len(), bits.len());
    }

    #[test]
    fn all_zero_and_all_one_inputs() {
        let zeros = vec![0u8; 64];
        assert_eq!(viterbi_decode(&encode(&zeros)), zeros);
        let ones = vec![1u8; 64];
        assert_eq!(viterbi_decode(&encode(&ones)), ones);
    }

    #[test]
    #[should_panic(expected = "bit pairs")]
    fn odd_length_rejected() {
        viterbi_decode(&[1, 0, 1]);
    }
}
