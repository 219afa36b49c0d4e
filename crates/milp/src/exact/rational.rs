//! Exact rational numbers over [`BigInt`].

use super::BigInt;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An exact rational `num / den`, always normalized: `den > 0`,
/// `gcd(|num|, den) == 1`, and zero is `0/1`.
///
/// ```
/// use swp_milp::exact::BigRat;
/// let a = BigRat::from_ratio(1, 3);
/// let b = BigRat::from_ratio(1, 6);
/// assert_eq!((&a + &b).to_string(), "1/2");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigRat {
    num: BigInt,
    den: BigInt,
}

impl BigRat {
    /// Zero.
    pub fn zero() -> Self {
        BigRat {
            num: BigInt::zero(),
            den: BigInt::one(),
        }
    }

    /// One.
    pub fn one() -> Self {
        BigRat {
            num: BigInt::one(),
            den: BigInt::one(),
        }
    }

    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn from_ratio(num: i64, den: i64) -> Self {
        Self::new(BigInt::from(num), BigInt::from(den))
    }

    /// Creates `num / den` in lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn new(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "zero denominator");
        if num.is_zero() {
            return Self::zero();
        }
        let g = num.gcd(&den);
        let (mut num, mut den) = (&num / &g, &den / &g);
        if den.is_negative() {
            num = -num;
            den = -den;
        }
        BigRat { num, den }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.num.is_zero()
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num.is_negative()
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num.is_positive()
    }

    /// Whether the value is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == BigInt::one()
    }

    /// Largest integer `<= self`.
    pub fn floor(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_negative() {
            &q - &BigInt::one()
        } else {
            q
        }
    }

    /// Smallest integer `>= self`.
    pub fn ceil(&self) -> BigInt {
        let (q, r) = self.num.div_rem(&self.den);
        if r.is_positive() {
            &q + &BigInt::one()
        } else {
            q
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    pub fn recip(&self) -> BigRat {
        assert!(!self.is_zero(), "reciprocal of zero");
        BigRat::new(self.den.clone(), self.num.clone())
    }

    /// Approximate `f64` value.
    pub fn to_f64(&self) -> f64 {
        self.num.to_f64() / self.den.to_f64()
    }

    /// Exact conversion from a finite `f64` (every finite double is a
    /// dyadic rational). Returns `None` for NaN or infinities.
    pub fn from_f64(v: f64) -> Option<BigRat> {
        if !v.is_finite() {
            return None;
        }
        if v == 0.0 {
            return Some(BigRat::zero());
        }
        let bits = v.to_bits();
        let neg = bits >> 63 == 1;
        let exp = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, e) = if exp == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1 << 52), exp - 1075)
        };
        let mut num = BigInt::from(mant as i64);
        if neg {
            num = -num;
        }
        let two = BigInt::from(2i64);
        let mut pow = BigInt::one();
        for _ in 0..e.unsigned_abs() {
            pow = &pow * &two;
        }
        Some(if e >= 0 {
            BigRat::from(&num * &pow)
        } else {
            BigRat::new(num, pow)
        })
    }
}

impl From<i64> for BigRat {
    fn from(v: i64) -> Self {
        BigRat {
            num: BigInt::from(v),
            den: BigInt::one(),
        }
    }
}

impl From<BigInt> for BigRat {
    fn from(v: BigInt) -> Self {
        BigRat {
            num: v,
            den: BigInt::one(),
        }
    }
}

impl PartialOrd for BigRat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigRat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b vs c/d (b,d > 0): compare a*d with c*b.
        (&self.num * &other.den).cmp(&(&other.num * &self.den))
    }
}

impl Add for &BigRat {
    type Output = BigRat;
    fn add(self, rhs: &BigRat) -> BigRat {
        BigRat::new(
            &(&self.num * &rhs.den) + &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Sub for &BigRat {
    type Output = BigRat;
    fn sub(self, rhs: &BigRat) -> BigRat {
        BigRat::new(
            &(&self.num * &rhs.den) - &(&rhs.num * &self.den),
            &self.den * &rhs.den,
        )
    }
}

impl Mul for &BigRat {
    type Output = BigRat;
    fn mul(self, rhs: &BigRat) -> BigRat {
        if self.is_zero() || rhs.is_zero() {
            return BigRat::zero();
        }
        BigRat::new(&self.num * &rhs.num, &self.den * &rhs.den)
    }
}

impl Div for &BigRat {
    type Output = BigRat;
    fn div(self, rhs: &BigRat) -> BigRat {
        assert!(!rhs.is_zero(), "division by zero");
        BigRat::new(&self.num * &rhs.den, &self.den * &rhs.num)
    }
}

impl Neg for BigRat {
    type Output = BigRat;
    fn neg(mut self) -> BigRat {
        self.num = -self.num;
        self
    }
}

macro_rules! forward_owned {
    ($($trait:ident :: $m:ident),*) => {$(
        impl $trait for BigRat {
            type Output = BigRat;
            fn $m(self, rhs: BigRat) -> BigRat {
                (&self).$m(&rhs)
            }
        }
    )*};
}
forward_owned!(Add::add, Sub::sub, Mul::mul, Div::div);

impl AddAssign<&BigRat> for BigRat {
    fn add_assign(&mut self, rhs: &BigRat) {
        *self = &*self + rhs;
    }
}

impl SubAssign<&BigRat> for BigRat {
    fn sub_assign(&mut self, rhs: &BigRat) {
        *self = &*self - rhs;
    }
}

impl fmt::Display for BigRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_integer() {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for BigRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigRat({self})")
    }
}

impl Default for BigRat {
    fn default() -> Self {
        BigRat::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(BigRat::from_ratio(2, 4).to_string(), "1/2");
        assert_eq!(BigRat::from_ratio(-2, -4).to_string(), "1/2");
        assert_eq!(BigRat::from_ratio(2, -4).to_string(), "-1/2");
        assert_eq!(BigRat::from_ratio(0, 5), BigRat::zero());
    }

    #[test]
    fn field_operations() {
        let a = BigRat::from_ratio(3, 7);
        let b = BigRat::from_ratio(2, 5);
        assert_eq!((&a + &b).to_string(), "29/35");
        assert_eq!((&a - &b).to_string(), "1/35");
        assert_eq!((&a * &b).to_string(), "6/35");
        assert_eq!((&a / &b).to_string(), "15/14");
        assert_eq!((&a * &a.recip()), BigRat::one());
    }

    #[test]
    fn floor_ceil_negative() {
        let x = BigRat::from_ratio(-7, 2); // -3.5
        assert_eq!(x.floor().to_string(), "-4");
        assert_eq!(x.ceil().to_string(), "-3");
        let y = BigRat::from_ratio(7, 2);
        assert_eq!(y.floor().to_string(), "3");
        assert_eq!(y.ceil().to_string(), "4");
        let z = BigRat::from(5i64);
        assert_eq!(z.floor(), z.ceil());
    }

    #[test]
    fn ordering() {
        assert!(BigRat::from_ratio(1, 3) < BigRat::from_ratio(1, 2));
        assert!(BigRat::from_ratio(-1, 2) < BigRat::from_ratio(-1, 3));
        assert_eq!(BigRat::from_ratio(2, 6), BigRat::from_ratio(1, 3));
    }

    #[test]
    fn to_f64_matches() {
        assert!((BigRat::from_ratio(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = BigRat::from_ratio(1, 0);
    }
}
