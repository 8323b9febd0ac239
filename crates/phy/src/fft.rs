//! Radix-2 FFT for OFDM modulation.
//!
//! No FFT crate is available offline, so this is a self-contained iterative
//! Cooley–Tukey implementation. OFDM sizes here are tiny (64–256 points),
//! so the simple in-place radix-2 kernel is plenty fast — the criterion
//! bench in `nplus-bench` confirms sub-microsecond 64-point transforms.

use nplus_linalg::Complex64;
use std::f64::consts::PI;

/// In-place forward FFT. `data.len()` must be a power of two.
pub fn fft_in_place(data: &mut [Complex64]) {
    transform(data, false);
}

/// In-place inverse FFT (includes the 1/N normalization).
pub(crate) fn ifft_in_place(data: &mut [Complex64]) {
    transform(data, true);
    let scale = 1.0 / data.len() as f64;
    for z in data.iter_mut() {
        *z = z.scale(scale);
    }
}

/// Forward FFT returning a new vector.
pub fn fft(data: &[Complex64]) -> Vec<Complex64> {
    let mut out = data.to_vec();
    fft_in_place(&mut out);
    out
}

/// Inverse FFT returning a new vector.
pub fn ifft(data: &[Complex64]) -> Vec<Complex64> {
    let mut out = data.to_vec();
    ifft_in_place(&mut out);
    out
}

fn transform(data: &mut [Complex64], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    // Iterative butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex64::cis(ang);
        let mut start = 0;
        while start < n {
            let mut w = Complex64::ONE;
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w *= wlen;
            }
            start += len;
        }
        len <<= 1;
    }
}

/// Cross-correlates `haystack` with `needle` at every lag, returning the
/// normalized correlation magnitude in `[0, 1]` per lag.
///
/// This is the 802.11 preamble detector's kernel: the normalization divides
/// by the energy of both windows, so a perfect match scores 1 regardless of
/// power — exactly the statistic whose CDFs Fig. 9(b) plots.
pub fn normalized_cross_correlation(haystack: &[Complex64], needle: &[Complex64]) -> Vec<f64> {
    let n = needle.len();
    if haystack.len() < n || n == 0 {
        return Vec::new();
    }
    let needle_energy: f64 = needle.iter().map(|z| z.norm_sqr()).sum();
    if needle_energy <= 1e-300 {
        return vec![0.0; haystack.len() - n + 1];
    }
    let mut out = Vec::with_capacity(haystack.len() - n + 1);
    for lag in 0..=(haystack.len() - n) {
        let window = &haystack[lag..lag + n];
        let mut acc = Complex64::ZERO;
        let mut window_energy = 0.0;
        for (h, s) in window.iter().zip(needle) {
            acc += *h * s.conj();
            window_energy += h.norm_sqr();
        }
        let denom = (window_energy * needle_energy).sqrt();
        out.push(if denom <= 1e-300 {
            0.0
        } else {
            (acc.abs() / denom).min(1.0)
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nplus_linalg::c64;

    const TOL: f64 = 1e-10;

    fn approx_vec(a: &[Complex64], b: &[Complex64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.approx_eq(*y, tol))
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex64::ZERO; 8];
        x[0] = Complex64::ONE;
        let y = fft(&x);
        for z in y {
            assert!(z.approx_eq(Complex64::ONE, TOL));
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let x = vec![Complex64::ONE; 16];
        let y = fft(&x);
        assert!(y[0].approx_eq(c64(16.0, 0.0), TOL));
        for z in &y[1..] {
            assert!(z.abs() < TOL);
        }
    }

    #[test]
    fn single_tone_lands_on_its_bin() {
        let n = 64;
        let k = 5;
        let x: Vec<Complex64> = (0..n)
            .map(|t| Complex64::cis(2.0 * PI * k as f64 * t as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (bin, z) in y.iter().enumerate() {
            if bin == k {
                assert!(z.approx_eq(c64(n as f64, 0.0), 1e-8));
            } else {
                assert!(z.abs() < 1e-8, "leakage at bin {bin}: {z:?}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let x: Vec<Complex64> = (0..64)
            .map(|i| c64((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let y = ifft(&fft(&x));
        assert!(approx_vec(&x, &y, 1e-9));
    }

    #[test]
    fn parseval_energy_preserved() {
        let x: Vec<Complex64> = (0..32)
            .map(|i| c64((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let y = fft(&x);
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((ex - ey).abs() < 1e-8);
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex64> = (0..16).map(|i| c64(i as f64, -(i as f64))).collect();
        let b: Vec<Complex64> = (0..16).map(|i| c64((i as f64).cos(), 0.5)).collect();
        let sum: Vec<Complex64> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fsum = fft(&sum);
        let expect: Vec<Complex64> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(approx_vec(&fsum, &expect, 1e-9));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        let mut x = vec![Complex64::ZERO; 12];
        fft_in_place(&mut x);
    }

    #[test]
    fn correlation_peaks_at_alignment() {
        let needle: Vec<Complex64> = (0..16).map(|i| Complex64::cis(0.7 * i as f64)).collect();
        let mut haystack = vec![Complex64::ZERO; 64];
        haystack[20..36].copy_from_slice(&needle);
        let corr = normalized_cross_correlation(&haystack, &needle);
        let (peak_lag, peak) = corr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        assert_eq!(peak_lag, 20);
        assert!((peak - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_is_power_invariant() {
        let needle: Vec<Complex64> = (0..16).map(|i| Complex64::cis(1.1 * i as f64)).collect();
        let strong: Vec<Complex64> = needle.iter().map(|z| z.scale(100.0)).collect();
        let corr = normalized_cross_correlation(&strong, &needle);
        assert!((corr[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_of_noise_is_low() {
        // Deterministic pseudo-noise should not correlate with a chirp.
        let needle: Vec<Complex64> = (0..32)
            .map(|i| Complex64::cis(0.3 * (i * i) as f64))
            .collect();
        let noise: Vec<Complex64> = (0..128)
            .map(|i| {
                c64(
                    ((i * 2654435761usize) % 1000) as f64 / 500.0 - 1.0,
                    ((i * 40503usize) % 1000) as f64 / 500.0 - 1.0,
                )
            })
            .collect();
        let corr = normalized_cross_correlation(&noise, &needle);
        for c in corr {
            assert!(c < 0.6, "spurious correlation {c}");
        }
    }
}
