//! Test support for the n+ workspace: channel/medium fixtures,
//! proptest strategies and tolerance-aware assertions.
//!
//! Everything here is deterministic given a seed, and nothing here is
//! production code: the scenario grammar and the seeded scenario
//! families live in `nplus::scenario`, which the suites import
//! directly. [`parse_spec`] is re-exported for the `perfbench`
//! harness, which resolves its workload specs through it.

#![forbid(unsafe_code)]

pub mod fixtures;
pub mod strategies;

pub use nplus::scenario::parse_spec;

use nplus::observer::NullObserver;
use nplus::sim::{RunResult, SweepSpec};
use nplus_linalg::Complex64;

/// Every seed's per-policy run results under `spec`, in seed and
/// policy order; panics on a spec the sweep refuses.
pub fn seed_runs(spec: &SweepSpec) -> Vec<Vec<RunResult>> {
    let runs = spec.try_run_observed(|_, _| NullObserver);
    let runs = runs.unwrap_or_else(|e| panic!("{e}"));
    runs.into_iter().map(|(seed, _)| seed.per_policy).collect()
}

/// Fresh deterministic RNG for a test.
pub fn rng(seed: u64) -> rand::rngs::StdRng {
    use rand::SeedableRng;
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Function form of [`assert_c64_close!`].
#[track_caller]
pub fn assert_c64_close(actual: Complex64, expected: Complex64, tol: f64) {
    assert!(
        actual.approx_eq(expected, tol),
        "complex values differ by more than {tol}: {actual:?} vs {expected:?}"
    );
}

/// Bit-error count between two equal-length bit/byte slices.
pub fn bit_errors(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len(), "bit_errors on unequal lengths");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Bit-error rate between two equal-length bit slices.
pub fn bit_error_rate(a: &[u8], b: &[u8]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    bit_errors(a, b) as f64 / a.len() as f64
}

/// FNV-1a, the digest every regression golden folds its pinned values
/// through: bytes one at a time, words and floats as their
/// little-endian bytes (a float through its bit pattern, so no
/// tolerance can hide a divergence).
pub struct Fnv(pub u64);

impl Fnv {
    /// The FNV-1a offset basis: the digest of nothing.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a word as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a float as its bit pattern.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Assert two `Complex64` values are within `tol` of each other,
/// with optional extra context.
#[macro_export]
macro_rules! assert_c64_close {
    ($actual:expr, $expected:expr, $tol:expr $(,)?) => {{
        let (a, e, t) = ($actual, $expected, $tol);
        assert!(
            a.approx_eq(e, t),
            "complex values differ by more than {t}: {a:?} vs {e:?}"
        );
    }};
    ($actual:expr, $expected:expr, $tol:expr, $($arg:tt)+) => {{
        let (a, e, t) = ($actual, $expected, $tol);
        assert!(
            a.approx_eq(e, t),
            "complex values differ by more than {t}: {a:?} vs {e:?} — {}",
            format_args!($($arg)+)
        );
    }};
}

/// Assert a linear-power SINR is within `tol_db` of an expected value.
#[macro_export]
macro_rules! assert_sinr_db_close {
    ($actual:expr, $expected:expr, $tol_db:expr $(,)?) => {{
        let (a, e, t): (f64, f64, f64) = ($actual, $expected, $tol_db);
        let diff = 10.0 * (a.max(1e-12) / e.max(1e-12)).log10();
        assert!(
            diff.abs() <= t,
            "SINR off by {diff:+.2} dB (> {t} dB): {a:.4} vs expected {e:.4}"
        );
    }};
}

/// Assert a bit-error rate computed from two bit slices stays below a
/// bound, reporting the measured BER on failure.
#[macro_export]
macro_rules! assert_ber_below {
    ($got:expr, $want:expr, $max_ber:expr $(,)?) => {
        $crate::assert_ber_below!($got, $want, $max_ber, "");
    };
    ($got:expr, $want:expr, $max_ber:expr, $($arg:tt)+) => {{
        let ber = $crate::bit_error_rate($got, $want);
        let max: f64 = $max_ber;
        assert!(
            ber <= max,
            "BER {ber:.4} exceeds {max} {}",
            format_args!($($arg)+)
        );
    }};
}
