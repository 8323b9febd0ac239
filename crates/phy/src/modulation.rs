//! Constellation mapping: BPSK, QPSK, 16-QAM, 64-QAM.
//!
//! These are the modulations the paper's prototype supports (§5). All
//! constellations are Gray-coded and normalized to unit average symbol
//! energy, so transmit power accounting is independent of the modulation.

use nplus_linalg::{c64, Complex64};

/// Modulation scheme of one spatial stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// Binary phase shift keying — 1 bit/symbol.
    Bpsk,
    /// Quadrature phase shift keying (4-QAM) — 2 bits/symbol.
    Qpsk,
    /// 16-point quadrature amplitude modulation — 4 bits/symbol.
    Qam16,
    /// 64-point quadrature amplitude modulation — 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// Coded bits carried per subcarrier symbol (`N_BPSC`).
    pub(crate) fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Per-axis normalization factor giving unit average symbol energy.
    fn kmod(self) -> f64 {
        match self {
            Modulation::Bpsk => 1.0,
            Modulation::Qpsk => 1.0 / 2f64.sqrt(),
            Modulation::Qam16 => 1.0 / 10f64.sqrt(),
            Modulation::Qam64 => 1.0 / 42f64.sqrt(),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "BPSK",
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16-QAM",
            Modulation::Qam64 => "64-QAM",
        }
    }
}

impl std::fmt::Display for Modulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Gray-codes `bits` (LSB-first slice of length 1, 2, or 3) onto a PAM
/// axis: 1 bit -> {-1, 1}; 2 bits -> {-3, -1, 1, 3}; 3 bits -> {-7..7}.
fn gray_axis(bits: &[u8]) -> f64 {
    match bits.len() {
        1 => {
            if bits[0] == 0 {
                -1.0
            } else {
                1.0
            }
        }
        2 => match (bits[0], bits[1]) {
            (0, 0) => -3.0,
            (0, 1) => -1.0,
            (1, 1) => 1.0,
            (1, 0) => 3.0,
            _ => unreachable!(),
        },
        3 => match (bits[0], bits[1], bits[2]) {
            (0, 0, 0) => -7.0,
            (0, 0, 1) => -5.0,
            (0, 1, 1) => -3.0,
            (0, 1, 0) => -1.0,
            (1, 1, 0) => 1.0,
            (1, 1, 1) => 3.0,
            (1, 0, 1) => 5.0,
            (1, 0, 0) => 7.0,
            _ => unreachable!(),
        },
        n => panic!("unsupported axis width {n}"),
    }
}

/// Inverse of [`gray_axis`]: slices the axis value back into Gray bits by
/// minimum distance.
fn gray_axis_demap(value: f64, width: usize, out: &mut Vec<u8>) {
    let levels: &[f64] = match width {
        1 => &[-1.0, 1.0],
        2 => &[-3.0, -1.0, 1.0, 3.0],
        3 => &[-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0],
        n => panic!("unsupported axis width {n}"),
    };
    // Nearest level (hard decision).
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, &l) in levels.iter().enumerate() {
        let d = (value - l).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    let l = levels[best];
    // Re-encode through gray_axis by scanning the bit patterns.
    let n_patterns = 1usize << width;
    for pattern in 0..n_patterns {
        let bits: Vec<u8> = (0..width).map(|k| ((pattern >> k) & 1) as u8).collect();
        if (gray_axis(&bits) - l).abs() < 1e-9 {
            out.extend_from_slice(&bits);
            return;
        }
    }
    unreachable!("level {l} not produced by any Gray pattern");
}

/// Maps coded bits to constellation symbols. `bits.len()` must be a
/// multiple of `Modulation::bits_per_symbol`.
pub fn modulate(bits: &[u8], m: Modulation) -> Vec<Complex64> {
    let bps = m.bits_per_symbol();
    assert!(
        bits.len().is_multiple_of(bps),
        "modulate: {} bits is not a multiple of {bps}",
        bits.len()
    );
    let k = m.kmod();
    bits.chunks(bps)
        .map(|chunk| match m {
            Modulation::Bpsk => c64(gray_axis(&chunk[..1]) * k, 0.0),
            Modulation::Qpsk => c64(gray_axis(&chunk[..1]) * k, gray_axis(&chunk[1..2]) * k),
            Modulation::Qam16 => c64(gray_axis(&chunk[..2]) * k, gray_axis(&chunk[2..4]) * k),
            Modulation::Qam64 => c64(gray_axis(&chunk[..3]) * k, gray_axis(&chunk[3..6]) * k),
        })
        .collect()
}

/// Hard-decision demapping of constellation symbols back to coded bits.
// nplus:allow(VIS001): a stage of the sample-level join chain that tests/end_to_end.rs drives; the planned phy_check bin (ROADMAP.md) will call it
pub fn demodulate(symbols: &[Complex64], m: Modulation) -> Vec<u8> {
    let k = m.kmod();
    let mut bits = Vec::with_capacity(symbols.len() * m.bits_per_symbol());
    for &s in symbols {
        let re = s.re / k;
        let im = s.im / k;
        match m {
            Modulation::Bpsk => gray_axis_demap(re, 1, &mut bits),
            Modulation::Qpsk => {
                gray_axis_demap(re, 1, &mut bits);
                gray_axis_demap(im, 1, &mut bits);
            }
            Modulation::Qam16 => {
                gray_axis_demap(re, 2, &mut bits);
                gray_axis_demap(im, 2, &mut bits);
            }
            Modulation::Qam64 => {
                gray_axis_demap(re, 3, &mut bits);
                gray_axis_demap(im, 3, &mut bits);
            }
        }
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

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

    /// Average symbol energy of the constellation (1 by construction).
    fn average_energy(m: Modulation) -> f64 {
        let bps = m.bits_per_symbol();
        let n = 1usize << bps;
        let mut e = 0.0;
        for pattern in 0..n {
            let bits: Vec<u8> = (0..bps).map(|k| ((pattern >> k) & 1) as u8).collect();
            let s = modulate(&bits, m)[0];
            e += s.norm_sqr();
        }
        e / n as f64
    }

    #[test]
    fn unit_average_energy() {
        for m in ALL {
            let e = average_energy(m);
            assert!((e - 1.0).abs() < 1e-12, "{m}: energy {e}");
        }
    }

    #[test]
    fn round_trip_every_constellation_point() {
        for m in ALL {
            let bps = m.bits_per_symbol();
            for pattern in 0..(1usize << bps) {
                let bits: Vec<u8> = (0..bps).map(|k| ((pattern >> k) & 1) as u8).collect();
                let sym = modulate(&bits, m);
                assert_eq!(demodulate(&sym, m), bits, "{m} pattern {pattern:b}");
            }
        }
    }

    #[test]
    fn round_trip_long_streams() {
        for m in ALL {
            let bps = m.bits_per_symbol();
            let bits = pseudo_bits(bps * 100, 31);
            let syms = modulate(&bits, m);
            assert_eq!(syms.len(), 100);
            assert_eq!(demodulate(&syms, m), bits);
        }
    }

    #[test]
    fn demap_tolerates_small_noise() {
        for m in ALL {
            let bps = m.bits_per_symbol();
            let bits = pseudo_bits(bps * 50, 17);
            let mut syms = modulate(&bits, m);
            // Perturb by much less than half the minimum distance.
            let eps = 0.4 * m.kmod();
            for (i, s) in syms.iter_mut().enumerate() {
                *s += c64(if i % 2 == 0 { eps } else { -eps } * 0.5, eps * 0.3);
            }
            assert_eq!(demodulate(&syms, m), bits, "{m}");
        }
    }

    #[test]
    fn gray_property_adjacent_levels_differ_by_one_bit() {
        // Adjacent PAM levels of the 3-bit axis must differ in exactly one
        // bit — the defining Gray-code property that bounds bit errors per
        // symbol error.
        let patterns: Vec<Vec<u8>> = (0..8usize)
            .map(|p| (0..3).map(|k| ((p >> k) & 1) as u8).collect())
            .collect();
        let mut by_level: Vec<(f64, &Vec<u8>)> =
            patterns.iter().map(|b| (gray_axis(b), b)).collect();
        by_level.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in by_level.windows(2) {
            let diff: usize = w[0].1.iter().zip(w[1].1).filter(|(a, b)| a != b).count();
            assert_eq!(
                diff, 1,
                "levels {} and {} differ in {diff} bits",
                w[0].0, w[1].0
            );
        }
    }

    #[test]
    fn bpsk_is_real_valued() {
        let syms = modulate(&[0, 1, 1, 0], Modulation::Bpsk);
        for s in syms {
            assert_eq!(s.im, 0.0);
            assert!((s.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_bits_rejected() {
        modulate(&[1, 0, 1], Modulation::Qpsk);
    }
}
