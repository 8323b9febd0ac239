//! Complex scalar arithmetic.
//!
//! The wireless PHY operates on complex baseband samples and the precoder
//! operates on complex channel matrices, so a complete complex scalar type
//! is the bedrock of the whole workspace. No external complex-number crate
//! is used; this module implements the full set of operations the rest of
//! the system needs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// The type is `Copy` and all arithmetic is implemented for values and
/// references, so expressions read like scalar math:
///
/// ```
/// use nplus_linalg::Complex64;
/// let a = Complex64::new(1.0, 2.0);
/// let b = Complex64::new(3.0, -1.0);
/// assert_eq!(a * b, Complex64::new(5.0, 5.0));
/// ```
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor, `c64(re, im)`.
#[inline]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = c64(1.0, 0.0);

    /// Creates a complex number from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a complex number from polar form `r * e^{i theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        c64(r * theta.cos(), r * theta.sin())
    }

    /// Unit phasor `e^{i theta}`. Used pervasively for carrier-frequency
    /// offset rotation and subcarrier twiddle factors.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared magnitude `|z|^2`. Cheaper than [`Complex64::abs`]; use it
    /// for power measurements.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns a value with non-finite components when `z == 0`, matching
    /// IEEE float division semantics.
    #[inline]
    pub(crate) fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Complex exponential `e^z`.
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_polar(self.re.exp(), self.im)
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        let theta = self.arg();
        Self::from_polar(r.sqrt(), theta / 2.0)
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        c64(self.re * k, self.im * k)
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Approximate equality within absolute tolerance `tol` on both parts.
    #[inline]
    // nplus:allow(VIS001): the test kit's assert macros and other crates' unit tests compare through it
    pub fn approx_eq(self, other: Self, tol: f64) -> bool {
        (self.re - other.re).abs() <= tol && (self.im - other.im).abs() <= tol
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}i",
            self.re,
            if self.im < 0.0 { "-" } else { "+" },
            self.im.abs()
        )
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Self) -> Self {
        let d = rhs.norm_sqr();
        c64(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline]
    fn neg(self) -> Self {
        c64(-self.re, -self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, k: f64) -> Self {
        self.scale(k)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline]
    fn mul(self, z: Complex64) -> Complex64 {
        z.scale(self)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, k: f64) -> Self {
        c64(self.re / k, self.im / k)
    }
}

impl AddAssign for Complex64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Self {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    const TOL: f64 = 1e-12;

    #[test]
    fn add_sub() {
        let a = c64(1.0, 2.0);
        let b = c64(-0.5, 4.0);
        assert_eq!(a + b, c64(0.5, 6.0));
        assert_eq!(a - b, c64(1.5, -2.0));
    }

    #[test]
    fn mul_matches_foil() {
        let a = c64(2.0, 3.0);
        let b = c64(4.0, -5.0);
        // (2+3i)(4-5i) = 8 -10i +12i +15 = 23 + 2i
        assert_eq!(a * b, c64(23.0, 2.0));
    }

    #[test]
    fn div_is_mul_inverse() {
        let a = c64(2.0, 3.0);
        let b = c64(4.0, -5.0);
        let q = a / b;
        assert!((q * b).approx_eq(a, TOL));
    }

    #[test]
    fn inv_round_trip() {
        let z = c64(0.3, -0.7);
        assert!((z * z.inv()).approx_eq(Complex64::ONE, TOL));
    }

    #[test]
    fn conj_properties() {
        let z = c64(1.5, -2.5);
        assert_eq!(z.conj().conj(), z);
        assert!((z * z.conj()).approx_eq(c64(z.norm_sqr(), 0.0), TOL));
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex64::from_polar(2.0, PI / 3.0);
        assert!((z.abs() - 2.0).abs() < TOL);
        assert!((z.arg() - PI / 3.0).abs() < TOL);
    }

    #[test]
    fn cis_is_unit() {
        for k in 0..16 {
            let theta = 2.0 * PI * k as f64 / 16.0;
            assert!((Complex64::cis(theta).abs() - 1.0).abs() < TOL);
        }
    }

    #[test]
    fn exp_of_imaginary_is_cis() {
        let theta = 0.73;
        assert!(c64(0.0, theta).exp().approx_eq(Complex64::cis(theta), TOL));
    }

    #[test]
    fn sqrt_squares_back() {
        for &z in &[
            c64(4.0, 0.0),
            c64(-1.0, 0.0),
            c64(3.0, -4.0),
            c64(-2.0, 5.0),
        ] {
            let s = z.sqrt();
            assert!((s * s).approx_eq(z, 1e-10), "sqrt({z:?})^2 = {:?}", s * s);
        }
    }

    #[test]
    fn real_scalar_ops() {
        let z = c64(1.0, -2.0);
        assert_eq!(z * 2.0, c64(2.0, -4.0));
        assert_eq!(2.0 * z, c64(2.0, -4.0));
        assert_eq!(z / 2.0, c64(0.5, -1.0));
    }

    #[test]
    fn sum_iterator() {
        let v = [c64(1.0, 1.0), c64(2.0, -3.0), c64(-0.5, 0.5)];
        let s: Complex64 = v.iter().sum();
        assert!(s.approx_eq(c64(2.5, -1.5), TOL));
    }

    #[test]
    fn zero_division_is_non_finite() {
        let z = c64(1.0, 1.0) / Complex64::ZERO;
        assert!(!z.is_finite());
    }

    #[test]
    fn display_format() {
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2i");
        assert_eq!(format!("{}", c64(-1.5, 2.0)), "-1.5+2i");
    }
}
