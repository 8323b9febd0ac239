//! Puncturing for code rates 2/3 and 3/4.
//!
//! 802.11 derives its higher code rates from the rate-1/2 mother code by
//! deleting (puncturing) coded bits in a fixed periodic pattern
//! (IEEE 802.11-2007 §17.3.5.6). The receiver re-inserts
//! `ERASURE` marks at the deleted positions before
//! Viterbi decoding.

use crate::convolutional::ERASURE;

/// Code rate of the convolutional coding stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
// nplus:allow(VIS001): the type of the public field `Mcs::code_rate`
pub enum CodeRate {
    /// Rate 1/2 (no puncturing).
    R12,
    /// Rate 2/3 (one of every four coded bits deleted).
    R23,
    /// Rate 3/4 (two of every six coded bits deleted).
    R34,
}

impl CodeRate {
    /// The puncturing pattern over one period of the *coded* (rate-1/2)
    /// stream; `true` = keep, `false` = delete. Patterns follow the
    /// standard: A bits are the even positions, B bits the odd.
    pub(crate) fn pattern(self) -> &'static [bool] {
        match self {
            CodeRate::R12 => &[true, true],
            // Period 4 (two A/B pairs): keep A1 B1 A2, drop B2.
            CodeRate::R23 => &[true, true, true, false],
            // Period 6 (three pairs): keep A1 B1, drop A2, keep B2, keep A3, drop B3.
            CodeRate::R34 => &[true, true, false, true, true, false],
        }
    }

    /// Numerator of the rate fraction.
    pub(crate) fn num(self) -> usize {
        match self {
            CodeRate::R12 => 1,
            CodeRate::R23 => 2,
            CodeRate::R34 => 3,
        }
    }

    /// Denominator of the rate fraction.
    pub(crate) fn den(self) -> usize {
        match self {
            CodeRate::R12 => 2,
            CodeRate::R23 => 3,
            CodeRate::R34 => 4,
        }
    }
}

impl std::fmt::Display for CodeRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.num(), self.den())
    }
}

/// Deletes bits from a rate-1/2 coded stream according to the pattern.
pub(crate) fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let pattern = rate.pattern();
    coded
        .iter()
        .enumerate()
        .filter(|(i, _)| pattern[i % pattern.len()])
        .map(|(_, &b)| b)
        .collect()
}

/// Re-inserts [`ERASURE`] marks at the punctured positions, restoring the
/// rate-1/2 stream geometry expected by the Viterbi decoder.
///
/// `original_len` is the length of the pre-puncturing coded stream.
pub(crate) fn depuncture(punctured: &[u8], rate: CodeRate, original_len: usize) -> Vec<u8> {
    let pattern = rate.pattern();
    let mut out = Vec::with_capacity(original_len);
    let mut src = punctured.iter();
    for i in 0..original_len {
        if pattern[i % pattern.len()] {
            out.push(*src.next().expect("punctured stream too short"));
        } else {
            out.push(ERASURE);
        }
    }
    assert!(
        src.next().is_none(),
        "punctured stream longer than expected for original_len {original_len}"
    );
    out
}

/// Number of on-air bits after puncturing a coded stream of `coded_len`
/// bits.
pub(crate) fn punctured_len(coded_len: usize, rate: CodeRate) -> usize {
    let pattern = rate.pattern();
    let full_periods = coded_len / pattern.len();
    let kept_per_period = pattern.iter().filter(|&&k| k).count();
    let mut n = full_periods * kept_per_period;
    for (i, &keep) in pattern.iter().enumerate().take(coded_len % pattern.len()) {
        let _ = i;
        if keep {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::{encode, viterbi_decode};

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
    fn rates_as_fractions() {
        let fraction = |r: CodeRate| (r.num(), r.den());
        assert_eq!(fraction(CodeRate::R12), (1, 2));
        assert_eq!(fraction(CodeRate::R23), (2, 3));
        assert_eq!(fraction(CodeRate::R34), (3, 4));
    }

    #[test]
    fn puncture_reduces_length_correctly() {
        let coded = vec![0u8; 24];
        assert_eq!(puncture(&coded, CodeRate::R12).len(), 24);
        assert_eq!(puncture(&coded, CodeRate::R23).len(), 18); // 24 * 3/4
        assert_eq!(puncture(&coded, CodeRate::R34).len(), 16); // 24 * 2/3
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34] {
            assert_eq!(puncture(&coded, rate).len(), punctured_len(24, rate));
        }
    }

    #[test]
    fn depuncture_restores_geometry() {
        let coded: Vec<u8> = (0..24).map(|i| (i % 2) as u8).collect();
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34] {
            let p = puncture(&coded, rate);
            let d = depuncture(&p, rate, coded.len());
            assert_eq!(d.len(), coded.len());
            // Non-erased positions carry the original bits.
            for (orig, got) in coded.iter().zip(&d) {
                if *got != ERASURE {
                    assert_eq!(orig, got);
                }
            }
        }
    }

    #[test]
    fn end_to_end_r23_round_trip() {
        let bits = pseudo_bits(300, 11);
        let coded = encode(&bits);
        let on_air = puncture(&coded, CodeRate::R23);
        let restored = depuncture(&on_air, CodeRate::R23, coded.len());
        assert_eq!(viterbi_decode(&restored), bits);
    }

    #[test]
    fn end_to_end_r34_round_trip() {
        let bits = pseudo_bits(300, 13);
        let coded = encode(&bits);
        let on_air = puncture(&coded, CodeRate::R34);
        let restored = depuncture(&on_air, CodeRate::R34, coded.len());
        assert_eq!(viterbi_decode(&restored), bits);
    }

    #[test]
    fn r34_corrects_light_errors() {
        let bits = pseudo_bits(200, 5);
        let coded = encode(&bits);
        let mut on_air = puncture(&coded, CodeRate::R34);
        on_air[10] ^= 1;
        on_air[150] ^= 1;
        let restored = depuncture(&on_air, CodeRate::R34, coded.len());
        assert_eq!(viterbi_decode(&restored), bits);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn depuncture_checks_length() {
        depuncture(&[1, 0], CodeRate::R12, 8);
    }
}
