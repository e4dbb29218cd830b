//! `asteria-bignum` — minimal arbitrary-precision unsigned integers.
//!
//! The Diaphora baseline hashes an AST as the *product of primes* assigned
//! to its node types; for realistic functions that product far exceeds
//! `u128`, and comparing two hashes requires factoring them back out. This
//! crate supplies exactly the operations that algorithm needs — and nothing
//! more — so the reproduction does not pull in an external bignum
//! dependency. The deliberate cost of long-division-based factorization is
//! also what reproduces Diaphora's slow online comparison in the paper's
//! Fig. 10(c).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian 64-bit limbs).
///
/// # Examples
///
/// ```
/// use asteria_bignum::BigUint;
///
/// let mut n = BigUint::from_u64(1);
/// for p in [2u64, 3, 5, 7, 11] {
///     n.mul_u64(p);
/// }
/// assert_eq!(n.to_decimal(), "2310");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigUint {
    /// Little-endian limbs; no trailing zero limbs (canonical form).
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Creates a big integer from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            BigUint::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True when the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Number of significant bits.
    pub fn bits(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => 64 * (self.limbs.len() - 1) + (64 - top.leading_zeros() as usize),
        }
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// In-place multiplication by a `u64`.
    pub fn mul_u64(&mut self, m: u64) {
        if m == 0 {
            self.limbs.clear();
            return;
        }
        if self.is_zero() {
            return;
        }
        let mut carry: u128 = 0;
        for limb in &mut self.limbs {
            let prod = *limb as u128 * m as u128 + carry;
            *limb = prod as u64;
            carry = prod >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// In-place addition of a `u64`.
    pub fn add_u64(&mut self, a: u64) {
        let mut carry = a as u128;
        for limb in &mut self.limbs {
            if carry == 0 {
                return;
            }
            let sum = *limb as u128 + carry;
            *limb = sum as u64;
            carry = sum >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// Divides in place by a `u64`, returning the remainder.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    pub fn divmod_u64(&mut self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem: u128 = 0;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 64) | *limb as u128;
            *limb = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        self.trim();
        rem as u64
    }

    /// Remainder modulo a `u64` without modifying `self`.
    pub fn rem_u64(&self, d: u64) -> u64 {
        assert!(d != 0, "division by zero");
        let mut rem: u128 = 0;
        for limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | *limb as u128) % d as u128;
        }
        rem as u64
    }

    /// True when `d` divides `self` exactly.
    pub fn divisible_by(&self, d: u64) -> bool {
        !self.is_zero() && self.rem_u64(d) == 0
    }

    /// Full multiplication with another big integer.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry: u128 = 0;
            for (j, &b) in other.limbs.iter().enumerate() {
                let idx = i + j;
                let cur = out[idx] as u128 + a as u128 * b as u128 + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
            }
            let mut idx = i + other.limbs.len();
            while carry > 0 {
                let cur = out[idx] as u128 + carry;
                out[idx] = cur as u64;
                carry = cur >> 64;
                idx += 1;
            }
        }
        let mut r = BigUint { limbs: out };
        r.trim();
        r
    }

    /// Decimal rendering (slow; diagnostics and tests only).
    pub fn to_decimal(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut n = self.clone();
        let mut digits = Vec::new();
        while !n.is_zero() {
            digits.push(b'0' + n.divmod_u64(10) as u8);
        }
        digits.reverse();
        String::from_utf8(digits).expect("ascii digits")
    }

    /// Factors `self` over a known prime table, returning the exponent of
    /// each prime. Any residue that is not fully factored is reported via
    /// the second tuple element (true = fully factored).
    ///
    /// This is the (intentionally slow) operation behind Diaphora-style
    /// hash comparison.
    pub fn factor_over(&self, primes: &[u64]) -> (Vec<u32>, bool) {
        let mut exps = vec![0u32; primes.len()];
        if self.is_zero() {
            return (exps, false);
        }
        let mut n = self.clone();
        for (i, &p) in primes.iter().enumerate() {
            while n.divisible_by(p) {
                n.divmod_u64(p);
                exps[i] += 1;
            }
        }
        let complete = n.is_one();
        (exps, complete)
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({} bits)", self.bits())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_decimal())
    }
}

/// The first `n` primes, by trial division (plenty fast for n ≤ 10⁴).
pub fn first_primes(n: usize) -> Vec<u64> {
    let mut primes: Vec<u64> = Vec::with_capacity(n);
    let mut candidate = 2u64;
    while primes.len() < n {
        if primes
            .iter()
            .take_while(|p| *p * *p <= candidate)
            .all(|p| !candidate.is_multiple_of(*p))
        {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_roundtrip() {
        assert_eq!(BigUint::from_u64(0).to_decimal(), "0");
        assert_eq!(BigUint::from_u64(123456789).to_decimal(), "123456789");
    }

    #[test]
    fn mul_grows_past_u64() {
        let mut n = BigUint::one();
        for _ in 0..5 {
            n.mul_u64(u64::MAX);
        }
        assert!(n.limbs.len() >= 5);
        // (2^64 - 1)^5 mod 2 = 1
        assert_eq!(n.rem_u64(2), 1);
    }

    #[test]
    fn factorial_20_matches_known_value() {
        let mut n = BigUint::one();
        for i in 1..=20u64 {
            n.mul_u64(i);
        }
        assert_eq!(n.to_decimal(), "2432902008176640000");
    }

    #[test]
    fn factorial_30_is_correct() {
        let mut n = BigUint::one();
        for i in 1..=30u64 {
            n.mul_u64(i);
        }
        assert_eq!(n.to_decimal(), "265252859812191058636308480000000");
    }

    #[test]
    fn divmod_inverts_mul() {
        let mut n = BigUint::from_u64(987654321);
        for p in [97u64, 89, 83, 79, 73] {
            n.mul_u64(p);
        }
        for p in [97u64, 89, 83, 79, 73] {
            assert!(n.divisible_by(p));
            assert_eq!(n.divmod_u64(p), 0);
        }
        assert_eq!(n.to_decimal(), "987654321");
    }

    #[test]
    fn add_with_carry_chain() {
        let mut n = BigUint::from_u64(u64::MAX);
        n.add_u64(1);
        assert_eq!(n.limbs.len(), 2);
        assert_eq!(n.to_decimal(), "18446744073709551616");
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let mut b = BigUint::from_u64(5);
        b.mul_u64(u64::MAX);
        assert!(a < b);
        assert_eq!(a.cmp(&a.clone()), Ordering::Equal);
    }

    #[test]
    fn full_mul_matches_repeated_mul_u64() {
        let mut a = BigUint::from_u64(12345);
        a.mul_u64(67891);
        let b = BigUint::from_u64(12345).mul(&BigUint::from_u64(67891));
        assert_eq!(a, b);
    }

    #[test]
    fn factor_over_recovers_exponents() {
        let primes = [2u64, 3, 5, 7];
        let mut n = BigUint::one();
        for _ in 0..3 {
            n.mul_u64(2);
        }
        for _ in 0..2 {
            n.mul_u64(7);
        }
        n.mul_u64(5);
        let (exps, complete) = n.factor_over(&primes);
        assert!(complete);
        assert_eq!(exps, vec![3, 0, 1, 2]);
    }

    #[test]
    fn factor_over_reports_incomplete() {
        let n = BigUint::from_u64(2 * 3 * 11);
        let (exps, complete) = n.factor_over(&[2, 3]);
        assert!(!complete);
        assert_eq!(exps, vec![1, 1]);
    }

    #[test]
    fn first_primes_table() {
        let p = first_primes(10);
        assert_eq!(p, vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29]);
        assert_eq!(first_primes(50).len(), 50);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divmod_zero_panics() {
        BigUint::from_u64(5).divmod_u64(0);
    }
}
