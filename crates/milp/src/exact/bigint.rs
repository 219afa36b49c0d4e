//! Sign-magnitude arbitrary-precision integers.
//!
//! Stored little-endian in base 2³². Schoolbook multiplication and Knuth
//! Algorithm D division — ample for the coefficient sizes arising in
//! scheduling LPs, where magnitudes stay modest.

// Limb arithmetic is clearer with explicit indices.
#![allow(clippy::needless_range_loop)]

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub};

/// An arbitrary-precision signed integer.
///
/// ```
/// use swp_milp::exact::BigInt;
/// let a = BigInt::from(1_000_000_007i64);
/// let b = &a * &a;
/// assert_eq!(b.to_string(), "1000000014000000049");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    /// True for strictly negative values; zero is always non-negative.
    neg: bool,
    /// Little-endian base-2³² magnitude with no trailing zero limbs.
    mag: Vec<u32>,
}

impl BigInt {
    /// Zero.
    pub fn zero() -> Self {
        BigInt {
            neg: false,
            mag: Vec::new(),
        }
    }

    /// One.
    pub fn one() -> Self {
        BigInt {
            neg: false,
            mag: vec![1],
        }
    }

    /// Whether the value is zero.
    pub fn is_zero(&self) -> bool {
        self.mag.is_empty()
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.neg
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        !self.neg && !self.is_zero()
    }

    /// Absolute value.
    pub fn abs(&self) -> BigInt {
        BigInt {
            neg: false,
            mag: self.mag.clone(),
        }
    }

    fn trim(mut mag: Vec<u32>) -> Vec<u32> {
        while mag.last() == Some(&0) {
            mag.pop();
        }
        mag
    }

    fn from_mag(neg: bool, mag: Vec<u32>) -> Self {
        let mag = Self::trim(mag);
        BigInt {
            neg: neg && !mag.is_empty(),
            mag,
        }
    }

    fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
        if a.len() != b.len() {
            return a.len().cmp(&b.len());
        }
        for i in (0..a.len()).rev() {
            match a[i].cmp(&b[i]) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for i in 0..long.len() {
            let s = long[i] as u64 + short.get(i).copied().unwrap_or(0) as u64 + carry;
            out.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            out.push(carry as u32);
        }
        out
    }

    /// Requires `a >= b` in magnitude.
    fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0i64;
        for i in 0..a.len() {
            let d = a[i] as i64 - b.get(i).copied().unwrap_or(0) as i64 - borrow;
            if d < 0 {
                out.push((d + (1i64 << 32)) as u32);
                borrow = 1;
            } else {
                out.push(d as u32);
                borrow = 0;
            }
        }
        debug_assert_eq!(borrow, 0);
        Self::trim(out)
    }

    fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        let mut out = vec![0u32; a.len() + b.len()];
        for (i, &ai) in a.iter().enumerate() {
            if ai == 0 {
                continue;
            }
            let mut carry = 0u64;
            for (j, &bj) in b.iter().enumerate() {
                let t = ai as u64 * bj as u64 + out[i + j] as u64 + carry;
                out[i + j] = t as u32;
                carry = t >> 32;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let t = out[k] as u64 + carry;
                out[k] = t as u32;
                carry = t >> 32;
                k += 1;
            }
        }
        Self::trim(out)
    }

    /// Divides magnitudes, returning `(quotient, remainder)`.
    fn divrem_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        assert!(!b.is_empty(), "division by zero");
        if Self::cmp_mag(a, b) == Ordering::Less {
            return (Vec::new(), a.to_vec());
        }
        if b.len() == 1 {
            let d = b[0] as u64;
            let mut q = vec![0u32; a.len()];
            let mut rem = 0u64;
            for i in (0..a.len()).rev() {
                let cur = (rem << 32) | a[i] as u64;
                q[i] = (cur / d) as u32;
                rem = cur % d;
            }
            let r = if rem == 0 {
                Vec::new()
            } else {
                vec![rem as u32]
            };
            return (Self::trim(q), r);
        }
        // Knuth Algorithm D.
        let shift = b.last().map_or(0, |w| w.leading_zeros());
        let bn = shl_bits(b, shift);
        let mut an = shl_bits(a, shift);
        an.push(0); // room for the extra limb
        let n = bn.len();
        let m = an.len() - n - 1;
        let mut q = vec![0u32; m + 1];
        let btop = bn[n - 1] as u64;
        let bsec = if n >= 2 { bn[n - 2] as u64 } else { 0 };
        for j in (0..=m).rev() {
            let num = ((an[j + n] as u64) << 32) | an[j + n - 1] as u64;
            let mut qhat = num / btop;
            let mut rhat = num % btop;
            while qhat >= 1u64 << 32
                || qhat as u128 * bsec as u128 > (((rhat as u128) << 32) | an[j + n - 2] as u128)
            {
                qhat -= 1;
                rhat += btop;
                if rhat >= 1u64 << 32 {
                    break;
                }
            }
            // Multiply-subtract qhat * bn from an[j..j+n+1].
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * bn[i] as u64 + carry;
                carry = p >> 32;
                let sub = an[j + i] as i64 - (p as u32) as i64 - borrow;
                if sub < 0 {
                    an[j + i] = (sub + (1i64 << 32)) as u32;
                    borrow = 1;
                } else {
                    an[j + i] = sub as u32;
                    borrow = 0;
                }
            }
            let sub = an[j + n] as i64 - carry as i64 - borrow;
            if sub < 0 {
                // qhat was one too large: add back.
                an[j + n] = (sub + (1i64 << 32)) as u32;
                qhat -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let s = an[j + i] as u64 + bn[i] as u64 + c;
                    an[j + i] = s as u32;
                    c = s >> 32;
                }
                an[j + n] = (an[j + n] as u64 + c) as u32;
            } else {
                an[j + n] = sub as u32;
            }
            q[j] = qhat as u32;
        }
        let r = shr_bits(&an[..n], shift);
        (Self::trim(q), Self::trim(r))
    }

    /// Quotient and remainder with truncation toward zero
    /// (remainder has the dividend's sign).
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = Self::divrem_mag(&self.mag, &other.mag);
        (
            BigInt::from_mag(self.neg != other.neg, q),
            BigInt::from_mag(self.neg, r),
        )
    }

    /// Greatest common divisor (always non-negative).
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r.abs();
        }
        a
    }

    /// Approximate conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.mag.iter().rev() {
            v = v * 4294967296.0 + limb as f64;
        }
        if self.neg {
            -v
        } else {
            v
        }
    }
}

fn shl_bits(v: &[u32], shift: u32) -> Vec<u32> {
    if shift == 0 {
        return v.to_vec();
    }
    let mut out = Vec::with_capacity(v.len() + 1);
    let mut carry = 0u32;
    for &limb in v {
        out.push((limb << shift) | carry);
        carry = limb >> (32 - shift);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

fn shr_bits(v: &[u32], shift: u32) -> Vec<u32> {
    if shift == 0 {
        return v.to_vec();
    }
    let mut out = vec![0u32; v.len()];
    for i in 0..v.len() {
        out[i] = v[i] >> shift;
        if i + 1 < v.len() {
            out[i] |= v[i + 1] << (32 - shift);
        }
    }
    out
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        let neg = v < 0;
        let mut u = v.unsigned_abs();
        let mut mag = Vec::new();
        while u != 0 {
            mag.push(u as u32);
            u >>= 32;
        }
        BigInt {
            neg: neg && !mag.is_empty(),
            mag,
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.neg, other.neg) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (false, false) => Self::cmp_mag(&self.mag, &other.mag),
            (true, true) => Self::cmp_mag(&other.mag, &self.mag),
        }
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        if self.neg == rhs.neg {
            BigInt::from_mag(self.neg, BigInt::add_mag(&self.mag, &rhs.mag))
        } else {
            match BigInt::cmp_mag(&self.mag, &rhs.mag) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => {
                    BigInt::from_mag(self.neg, BigInt::sub_mag(&self.mag, &rhs.mag))
                }
                Ordering::Less => BigInt::from_mag(rhs.neg, BigInt::sub_mag(&rhs.mag, &self.mag)),
            }
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs.clone())
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        BigInt::from_mag(self.neg != rhs.neg, BigInt::mul_mag(&self.mag, &rhs.mag))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem(rhs).1
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(mut self) -> BigInt {
        if !self.is_zero() {
            self.neg = !self.neg;
        }
        self
    }
}

macro_rules! forward_owned {
    ($($trait:ident :: $m:ident),*) => {$(
        impl $trait for BigInt {
            type Output = BigInt;
            fn $m(self, rhs: BigInt) -> BigInt {
                (&self).$m(&rhs)
            }
        }
    )*};
}
forward_owned!(Add::add, Sub::sub, Mul::mul, Div::div, Rem::rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeated division by 10^9.
        let mut mag = self.mag.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            let mut rem = 0u64;
            for i in (0..mag.len()).rev() {
                let cur = (rem << 32) | mag[i] as u64;
                mag[i] = (cur / 1_000_000_000) as u32;
                rem = cur % 1_000_000_000;
            }
            while mag.last() == Some(&0) {
                mag.pop();
            }
            chunks.push(rem as u32);
        }
        if self.neg {
            f.write_str("-")?;
        }
        write!(f, "{}", chunks.last().copied().unwrap_or(0))?;
        for c in chunks.iter().rev().skip(1) {
            write!(f, "{c:09}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_values_display_exactly() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN + 1, 1 << 40] {
            assert_eq!(BigInt::from(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn display_matches_known_values() {
        assert_eq!(BigInt::from(0i64).to_string(), "0");
        assert_eq!(
            BigInt::from(-1234567890123i64).to_string(),
            "-1234567890123"
        );
        let big = &BigInt::from(1_000_000_007i64) * &BigInt::from(1_000_000_007i64);
        assert_eq!(big.to_string(), "1000000014000000049");
    }

    #[test]
    fn arithmetic_agrees_with_i128() {
        let samples: &[i64] = &[
            0,
            1,
            -1,
            7,
            -13,
            1 << 20,
            -(1 << 31),
            1 << 33,
            999_999_999_999,
        ];
        for &a in samples {
            for &b in samples {
                let (ba, bb) = (BigInt::from(a), BigInt::from(b));
                assert_eq!((&ba + &bb).to_string(), (a as i128 + b as i128).to_string());
                assert_eq!((&ba - &bb).to_string(), (a as i128 - b as i128).to_string());
                assert_eq!((&ba * &bb).to_string(), (a as i128 * b as i128).to_string());
                if b != 0 {
                    let (q, r) = ba.div_rem(&bb);
                    assert_eq!(q.to_string(), (a as i128 / b as i128).to_string());
                    assert_eq!(r.to_string(), (a as i128 % b as i128).to_string());
                }
            }
        }
    }

    #[test]
    fn multi_limb_division() {
        // (2^100 + 3) / (2^50 - 1), cross-check by reconstruction.
        let two = BigInt::from(2i64);
        let mut p100 = BigInt::one();
        for _ in 0..100 {
            p100 = &p100 * &two;
        }
        let mut p50 = BigInt::one();
        for _ in 0..50 {
            p50 = &p50 * &two;
        }
        let a = &p100 + &BigInt::from(3i64);
        let b = &p50 - &BigInt::one();
        let (q, r) = a.div_rem(&b);
        let back = &(&q * &b) + &r;
        assert_eq!(back, a);
        assert!(BigInt::cmp_mag(&r.mag, &b.mag) == Ordering::Less);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(
            BigInt::from(48i64).gcd(&BigInt::from(-18i64)),
            BigInt::from(6i64)
        );
        assert_eq!(
            BigInt::from(0i64).gcd(&BigInt::from(5i64)),
            BigInt::from(5i64)
        );
    }

    #[test]
    fn ordering() {
        let mut v = vec![
            BigInt::from(3i64),
            BigInt::from(-7i64),
            BigInt::from(0i64),
            BigInt::from(100i64),
        ];
        v.sort();
        let s: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        assert_eq!(s, ["-7", "0", "3", "100"]);
    }

    #[test]
    fn to_f64_large() {
        let v = BigInt::from(1i64 << 62);
        assert_eq!(v.to_f64(), (1i64 << 62) as f64);
    }
}
