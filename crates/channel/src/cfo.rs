//! Carrier frequency offset (CFO).
//!
//! Distinct nodes have distinct oscillators; their carrier frequencies
//! differ by up to a few kHz at 2.4 GHz. The paper (§4, "Frequency
//! Offset") has joining transmitters estimate their offset to the *first*
//! contention winner while decoding its RTS and pre-compensate by rotating
//! their baseband samples with `e^{j2πΔf t}` — aligning all concurrent
//! transmitters in frequency without explicit coordination. The medium
//! applies the net offset of each pair with [`apply_cfo`];
//! pre-compensation is the same rotation with the offset negated.

use nplus_linalg::Complex64;

/// Applies a frequency offset of `delta_f_hz` to a sample stream at
/// `sample_rate_hz`, starting the rotation at sample index `start_index`
/// (the rotation must be phase-continuous across chunks of one
/// transmission).
pub fn apply_cfo(
    samples: &mut [Complex64],
    delta_f_hz: f64,
    sample_rate_hz: f64,
    start_index: u64,
) {
    if delta_f_hz == 0.0 {
        return;
    }
    let step = 2.0 * std::f64::consts::PI * delta_f_hz / sample_rate_hz;
    for (i, z) in samples.iter_mut().enumerate() {
        let ang = step * (start_index + i as u64) as f64;
        *z *= Complex64::cis(ang);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::c64;

    const FS: f64 = 10e6;

    #[test]
    fn apply_then_compensate_is_identity() {
        let mut s: Vec<Complex64> = (0..256)
            .map(|i| c64((i as f64 * 0.1).sin(), (i as f64 * 0.07).cos()))
            .collect();
        let orig = s.clone();
        apply_cfo(&mut s, 3_500.0, FS, 1000);
        apply_cfo(&mut s, -3_500.0, FS, 1000);
        for (a, b) in s.iter().zip(&orig) {
            assert!(a.approx_eq(*b, 1e-9));
        }
    }

    #[test]
    fn cfo_preserves_power() {
        let mut s = vec![c64(1.0, -1.0); 64];
        let p0: f64 = s.iter().map(|z| z.norm_sqr()).sum();
        apply_cfo(&mut s, 7000.0, FS, 0);
        let p1: f64 = s.iter().map(|z| z.norm_sqr()).sum();
        assert!((p0 - p1).abs() < 1e-9);
    }

    #[test]
    fn phase_continuity_across_chunks() {
        // Applying CFO to two consecutive chunks with correct start
        // indices must equal applying it to the concatenation.
        let s: Vec<Complex64> = (0..128).map(|i| c64(1.0, i as f64 * 0.01)).collect();
        let mut whole = s.clone();
        apply_cfo(&mut whole, 4000.0, FS, 0);
        let mut first = s[..64].to_vec();
        let mut second = s[64..].to_vec();
        apply_cfo(&mut first, 4000.0, FS, 0);
        apply_cfo(&mut second, 4000.0, FS, 64);
        for (i, (a, b)) in whole.iter().zip(first.iter().chain(&second)).enumerate() {
            assert!(a.approx_eq(*b, 1e-9), "sample {i}");
        }
    }
}
