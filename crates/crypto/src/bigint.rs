//! Arbitrary-precision unsigned integer arithmetic.
//!
//! [`BigUint`] stores little-endian `u64` limbs and provides exactly the
//! operations RSA needs: add/sub/mul, division with remainder, modular
//! exponentiation, modular inverse, gcd, shifts, byte conversion and random
//! sampling. The representation invariant is *no trailing zero limbs* (zero
//! is the empty limb vector).
//!
//! Every modular exponentiation — [`BigUint::mod_pow`], RSA sign, verify
//! and decrypt, and the Miller–Rabin witnesses — runs through one
//! Montgomery context (`Montgomery`): a fixed-width, division-free,
//! allocation-free FIOS multiply and a dedicated squaring, specialised
//! to 8 and 16 limbs, under a square-and-multiply loop for short
//! (public) exponents and, for long ones, a 4-bit window whose
//! multiplies and table reads do not depend on the exponent's digits.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// # Example
///
/// ```
/// use utp_crypto::bigint::BigUint;
/// let a = BigUint::from_u64(12_345);
/// let b = BigUint::from_u64(67_890);
/// assert_eq!((&a * &b).to_u64(), Some(12_345u64 * 67_890));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    /// Little-endian limbs; invariant: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value one.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Builds a value from a single `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            BigUint { limbs: vec![v] }
        }
    }

    /// Builds a value from big-endian bytes (leading zeros allowed).
    pub fn from_be_bytes(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut iter = bytes.rchunks(8);
        for chunk in &mut iter {
            let mut limb = 0u64;
            for &b in chunk {
                limb = (limb << 8) | b as u64;
            }
            limbs.push(limb);
        }
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for 0).
    pub fn to_be_bytes(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for (i, limb) in self.limbs.iter().enumerate().rev() {
            let bytes = limb.to_be_bytes();
            if i == self.limbs.len() - 1 {
                // Skip leading zeros of the most significant limb.
                let skip = (limb.leading_zeros() / 8) as usize;
                out.extend_from_slice(&bytes[skip..]);
            } else {
                out.extend_from_slice(&bytes);
            }
        }
        out
    }

    /// Serializes to exactly `len` big-endian bytes, left-padded with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in `len` bytes.
    pub fn to_be_bytes_padded(&self, len: usize) -> Vec<u8> {
        let raw = self.to_be_bytes();
        assert!(
            raw.len() <= len,
            "value needs {} bytes > {}",
            raw.len(),
            len
        );
        let mut out = vec![0u8; len - raw.len()];
        out.extend_from_slice(&raw);
        out
    }

    /// Returns the value as `u64` if it fits.
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the lowest bit is clear (zero counts as even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian bit numbering).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Sets bit `i` to one.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        if limb >= self.limbs.len() {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1u64 << (i % 64);
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self - other`.
    ///
    /// # Panics
    ///
    /// Panics if `other > self` (unsigned underflow).
    pub fn sub(&self, other: &BigUint) -> BigUint {
        assert!(self >= other, "BigUint subtraction underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// `self * other` (schoolbook; RSA-2048 operand sizes are small enough
    /// that asymptotically faster algorithms don't pay off here).
    pub fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            if a == 0 {
                continue;
            }
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out: Vec<u64> = self.limbs[limb_shift..].to_vec();
        if bit_shift != 0 {
            let mut carry = 0u64;
            for l in out.iter_mut().rev() {
                let new = (*l >> bit_shift) | carry;
                carry = *l << (64 - bit_shift);
                *l = new;
            }
        }
        let mut n = BigUint { limbs: out };
        n.normalize();
        n
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Single-limb divisors use schoolbook short division; multi-limb
    /// divisors use Knuth's Algorithm D (TAOCP vol. 2, 4.3.1) on 64-bit
    /// limbs. Exponentiation never divides (see `Montgomery`); division
    /// remains for key generation (`d`, `dp`, `dq`, [`BigUint::mod_inverse`]),
    /// CRT input reduction and recombination, the `R² mod n` set-up and
    /// trial division.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let d = divisor.limbs[0];
            let mut rem = 0u128;
            let mut q = vec![0u64; self.limbs.len()];
            for i in (0..self.limbs.len()).rev() {
                let cur = (rem << 64) | self.limbs[i] as u128;
                q[i] = (cur / d as u128) as u64;
                rem = cur % d as u128;
            }
            let mut quo = BigUint { limbs: q };
            quo.normalize();
            return (quo, BigUint::from_u64(rem as u64));
        }
        // Knuth Algorithm D.
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        debug_assert_eq!(v.len(), n);
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0); // u has m+n+1 limbs
        let mut q = vec![0u64; m + 1];
        let v_top = v[n - 1];
        let v_next = v[n - 2];
        // D2..D7: compute one quotient limb per iteration.
        for j in (0..=m).rev() {
            // D3: estimate qhat from the top two (three) limbs.
            let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = top / v_top as u128;
            let mut rhat = top % v_top as u128;
            while qhat >> 64 != 0 || qhat * v_next as u128 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v_top as u128;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: multiply and subtract u[j..j+n+1] -= qhat * v.
            let qhat64 = qhat as u64;
            let mut borrow = 0i128;
            let mut carry = 0u128;
            for i in 0..n {
                let p = qhat64 as u128 * v[i] as u128 + carry;
                carry = p >> 64;
                let sub = u[j + i] as i128 - (p as u64) as i128 + borrow;
                u[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = u[j + n] as i128 - carry as i128 + borrow;
            u[j + n] = sub as u64;
            let went_negative = sub < 0;
            // D5/D6: if we overshot, add the divisor back once.
            if went_negative {
                q[j] = qhat64.wrapping_sub(1);
                let mut carry = 0u128;
                for i in 0..n {
                    let s = u[j + i] as u128 + v[i] as u128 + carry;
                    u[j + i] = s as u64;
                    carry = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(carry as u64);
            } else {
                q[j] = qhat64;
            }
        }
        // D8: denormalize the remainder.
        let mut quo = BigUint { limbs: q };
        quo.normalize();
        let mut rem = BigUint {
            limbs: u[..n].to_vec(),
        };
        rem.normalize();
        let rem = rem.shr(shift);
        (quo, rem)
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// Modular addition `(self + other) mod m`; operands must be `< m`.
    pub fn mod_add(&self, other: &BigUint, m: &BigUint) -> BigUint {
        let s = self.add(other);
        if &s >= m {
            s.sub(m)
        } else {
            s
        }
    }

    /// Modular multiplication `(self * other) mod m`.
    pub fn mod_mul(&self, other: &BigUint, m: &BigUint) -> BigUint {
        self.mul(other).rem(m)
    }

    /// Modular exponentiation `self^exp mod m` in Montgomery arithmetic.
    ///
    /// Exponents of at most 64 bits (RSA's public `e`) take plain
    /// square-and-multiply; longer ones take a 4-bit fixed window that
    /// multiplies on every window and reads its table by a masked scan,
    /// so a secret exponent sets neither the multiply count nor the
    /// addresses read.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or even.
    pub fn mod_pow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        Montgomery::new(m).pow(self, exp)
    }

    /// The limbs zero-extended to exactly `len` (`len` ≥ the limb count).
    fn limbs_padded(&self, len: usize) -> Vec<u64> {
        let mut limbs = self.limbs.clone();
        limbs.resize(len, 0);
        limbs
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let mut shift = 0usize;
        while a.is_even() && b.is_even() {
            a = a.shr(1);
            b = b.shr(1);
            shift += 1;
        }
        while a.is_even() {
            a = a.shr(1);
        }
        loop {
            while b.is_even() {
                b = b.shr(1);
            }
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b = b.sub(&a);
            if b.is_zero() {
                break;
            }
        }
        a.shl(shift)
    }

    /// Modular multiplicative inverse of `self` modulo `m`, if it exists.
    ///
    /// Uses the extended Euclidean algorithm with signed bookkeeping.
    pub fn mod_inverse(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        // Extended Euclid on (a, m), tracking x where a*x ≡ gcd (mod m).
        let mut r0 = self.rem(m);
        let mut r1 = m.clone();
        // Coefficients as (value, is_negative).
        let mut s0 = (BigUint::one(), false);
        let mut s1 = (BigUint::zero(), false);
        while !r0.is_zero() {
            let (q, r) = r1.div_rem(&r0);
            // s1 - q*s0
            let qs0 = q.mul(&s0.0);
            let new_s = signed_sub(&s1, &(qs0, s0.1));
            r1 = r0;
            r0 = r;
            s1 = s0;
            s0 = new_s;
        }
        if !r1.is_one() {
            return None; // not coprime
        }
        // s1 is the coefficient for the original `self`.
        let (mag, neg) = s1;
        let mag = mag.rem(m);
        Some(if neg && !mag.is_zero() {
            m.sub(&mag)
        } else {
            mag
        })
    }

    /// Uniformly random value in `[0, bound)` using the given RNG.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero(), "bound must be positive");
        let bits = bound.bit_len();
        let nlimbs = bits.div_ceil(64);
        loop {
            let mut limbs: Vec<u64> = (0..nlimbs).map(|_| rng.gen()).collect();
            // Mask the top limb so the candidate has at most `bits` bits.
            let extra = nlimbs * 64 - bits;
            if extra > 0 {
                if let Some(top) = limbs.last_mut() {
                    *top &= u64::MAX >> extra;
                }
            }
            let mut candidate = BigUint { limbs };
            candidate.normalize();
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Random integer with exactly `bits` bits (top bit set) and odd.
    pub fn random_odd_with_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits >= 2, "need at least 2 bits");
        let nlimbs = bits.div_ceil(64);
        let mut limbs: Vec<u64> = (0..nlimbs).map(|_| rng.gen()).collect();
        let extra = nlimbs * 64 - bits;
        if let Some(top) = limbs.last_mut() {
            *top &= u64::MAX >> extra;
            *top |= 1u64 << (63 - extra);
        }
        limbs[0] |= 1;
        let mut n = BigUint { limbs };
        n.normalize();
        n
    }
}

/// Montgomery arithmetic modulo a fixed odd `n` of `L` limbs, with
/// `R = 2^(64·L)` (Montgomery, *Modular multiplication without trial
/// division*, Math. Comp. 1985).
///
/// A value `x` in Montgomery form is `x·R mod n`, held in exactly `L`
/// limbs. Two kernels work on such values. Neither divides or
/// allocates, neither branches on or indexes by an operand's value, and
/// both end in the same masked final subtraction:
///
/// * [`Montgomery::mul`] is the FIOS loop of Koç, Acar and Kaliski
///   (IEEE Micro 1996). Each pass over a limb `b[i]` takes the reduction
///   factor `m` from the first column, then adds `a[j]·b[i]` and
///   `m·n[j]` in one inner step, each on its own carry chain, and
///   shifts down by a limb.
/// * [`Montgomery::sqr`] forms the `2L`-limb square from its
///   `L(L−1)/2` cross products, doubled, plus the `L` diagonal squares,
///   and then reduces it a limb at a time: `½L² + L` limb products
///   before an `L²` reduction, where a multiply runs `2L²`.
///
/// Each kernel is written once, as an `#[inline(always)]` body taking
/// the limb count. Its entry point passes the literal 8 or 16 when `L`
/// is one of those (the 512-bit CRT primes and the 1024-bit moduli), so
/// the compiler sees constant trip counts there, and `L` itself
/// otherwise.
///
/// For the CRT primes of an RSA key the modulus is secret, so the
/// context deliberately has no `Debug`.
#[derive(Clone)]
pub(crate) struct Montgomery {
    /// The modulus, exactly `L` limbs.
    n: BigUint,
    /// `n′ = −n⁻¹ mod 2⁶⁴`.
    n_prime: u64,
    /// `R² mod n`, `L` limbs: one multiply by it enters Montgomery form.
    rr: Vec<u64>,
}

impl Montgomery {
    /// The context for modulus `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or even.
    pub(crate) fn new(n: &BigUint) -> Self {
        assert!(!n.is_zero(), "modulus must be nonzero");
        assert!(!n.is_even(), "modulus must be odd");
        let len = n.limbs.len();
        // Each Newton step doubles the correct low bits of n⁻¹ mod 2⁶⁴;
        // an odd n is its own inverse mod 8, so n starts with three.
        let n0 = n.limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let rr = BigUint::one().shl(128 * len).rem(n).limbs_padded(len);
        Montgomery {
            n: n.clone(),
            n_prime: inv.wrapping_neg(),
            rr,
        }
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The limb count `L` of every Montgomery-form value.
    pub(crate) fn len(&self) -> usize {
        self.n.limbs.len()
    }

    /// A scratch buffer for [`Montgomery::mul`] and [`Montgomery::sqr`]:
    /// `2L` limbs.
    pub(crate) fn scratch(&self) -> Vec<u64> {
        vec![0u64; 2 * self.len()]
    }

    /// `out = a·b·R⁻¹ mod n`, fully reduced.
    ///
    /// `a`, `b` and `out` have `L` limbs and `scratch` at least `2L`;
    /// `a < R` and `b < n`, which every Montgomery-form value satisfies.
    pub(crate) fn mul(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        #[cfg(test)]
        tests::count_mul();
        match self.len() {
            8 => self.mul_kernel(a, b, out, scratch, 8),
            16 => self.mul_kernel(a, b, out, scratch, 16),
            len => self.mul_kernel(a, b, out, scratch, len),
        }
    }

    /// `out = a²·R⁻¹ mod n`, fully reduced: the value
    /// [`Montgomery::mul`]`(a, a)` gives, for about ¾ of its limb
    /// products.
    ///
    /// `a` and `out` have `L` limbs and `scratch` at least `2L`; `a < n`,
    /// which every Montgomery-form value satisfies.
    pub(crate) fn sqr(&self, a: &[u64], out: &mut [u64], scratch: &mut [u64]) {
        #[cfg(test)]
        tests::count_sqr();
        match self.len() {
            8 => self.sqr_kernel(a, out, scratch, 8),
            16 => self.sqr_kernel(a, out, scratch, 16),
            len => self.sqr_kernel(a, out, scratch, len),
        }
    }

    /// The FIOS multiply of [`Montgomery::mul`] at `len = L` limbs.
    #[inline(always)]
    fn mul_kernel(&self, a: &[u64], b: &[u64], out: &mut [u64], scratch: &mut [u64], len: usize) {
        let n = &self.n.limbs[..len];
        let a = &a[..len];
        let t = &mut scratch[..len + 1];
        t.fill(0);
        for &bi in &b[..len] {
            // Column 0 fixes m, the multiple of n that clears the low
            // limb of t + a·bi; that limb is dropped, so only its two
            // carries go on.
            let v = t[0] as u128 + a[0] as u128 * bi as u128;
            let m = (v as u64).wrapping_mul(self.n_prime);
            let mut carry_ab = (v >> 64) as u64;
            let mut carry_mn = ((v as u64 as u128 + m as u128 * n[0] as u128) >> 64) as u64;
            // t = (t + a·bi + m·n) / 2⁶⁴, the two products on two carries.
            for j in 1..len {
                let v = t[j] as u128 + a[j] as u128 * bi as u128 + carry_ab as u128;
                carry_ab = (v >> 64) as u64;
                let v = v as u64 as u128 + m as u128 * n[j] as u128 + carry_mn as u128;
                carry_mn = (v >> 64) as u64;
                t[j - 1] = v as u64;
            }
            // t < R + n throughout, so the top limb stays 0 or 1.
            let v = t[len] as u128 + carry_ab as u128 + carry_mn as u128;
            t[len - 1] = v as u64;
            t[len] = (v >> 64) as u64;
        }
        let (t, top) = t.split_at(len);
        subtract_n_masked(t, top[0], n, &mut out[..len]);
    }

    /// The squaring of [`Montgomery::sqr`] at `len = L` limbs.
    #[inline(always)]
    fn sqr_kernel(&self, a: &[u64], out: &mut [u64], scratch: &mut [u64], len: usize) {
        let n = &self.n.limbs[..len];
        let a = &a[..len];
        let t = &mut scratch[..2 * len];
        t.fill(0);
        // The cross products a[i]·a[j], i < j, each once: row i adds
        // a[i]·a[i+1..] at t[2i+1..] and sets the limb above it.
        for (i, &ai) in a.iter().enumerate() {
            let mut carry = 0u64;
            for (tk, &aj) in t[2 * i + 1..i + len].iter_mut().zip(&a[i + 1..]) {
                let v = *tk as u128 + ai as u128 * aj as u128 + carry as u128;
                *tk = v as u64;
                carry = (v >> 64) as u64;
            }
            t[i + len] = carry;
        }
        // t = 2t + Σ a[i]²·2^(128i): shift each limb pair up a bit and
        // add the diagonal square that lands on it.
        let mut shifted_out = 0u64;
        let mut carry = 0u64;
        for (pair, &ai) in t.chunks_exact_mut(2).zip(a) {
            let sq = ai as u128 * ai as u128;
            let lo = (pair[0] << 1) | shifted_out;
            let hi = (pair[1] << 1) | (pair[0] >> 63);
            shifted_out = pair[1] >> 63;
            let v = lo as u128 + (sq as u64) as u128 + carry as u128;
            pair[0] = v as u64;
            let v = hi as u128 + (sq >> 64) + (v >> 64);
            pair[1] = v as u64;
            carry = (v >> 64) as u64;
        }
        // t = (t + M·n) / R, one limb of M at a time: each m clears the
        // lowest limb still in play. The carry out of the top limb is
        // `top`; t stays below 2R², so it is 0 or 1.
        let mut top = 0u64;
        for i in 0..len {
            let (low, high) = t[i..].split_at_mut(len);
            let m = low[0].wrapping_mul(self.n_prime);
            let mut carry = 0u64;
            for (tk, &nj) in low.iter_mut().zip(n) {
                let v = *tk as u128 + m as u128 * nj as u128 + carry as u128;
                *tk = v as u64;
                carry = (v >> 64) as u64;
            }
            let v = high[0] as u128 + carry as u128 + top as u128;
            high[0] = v as u64;
            top = (v >> 64) as u64;
        }
        subtract_n_masked(&t[len..], top, n, &mut out[..len]);
    }

    /// `x` in Montgomery form; `x` may be any size.
    pub(crate) fn to_mont(&self, x: &BigUint) -> Vec<u64> {
        let len = self.len();
        let x = if x.limbs.len() > len {
            x.rem(&self.n).limbs_padded(len)
        } else {
            x.limbs_padded(len)
        };
        let mut out = vec![0u64; len];
        self.mul(&x, &self.rr, &mut out, &mut self.scratch());
        out
    }

    /// Montgomery reduction (REDC): the value whose Montgomery form is `x`.
    pub(crate) fn redc(&self, x: &[u64]) -> BigUint {
        let len = self.len();
        let mut out = vec![0u64; len];
        self.mul(
            x,
            &BigUint::one().limbs_padded(len),
            &mut out,
            &mut self.scratch(),
        );
        let mut v = BigUint { limbs: out };
        v.normalize();
        v
    }

    /// `base^exp mod n`.
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.redc(&self.pow_mont(base, exp))
    }

    /// `base^exp mod n`, left in Montgomery form.
    pub(crate) fn pow_mont(&self, base: &BigUint, exp: &BigUint) -> Vec<u64> {
        let bits = exp.bit_len();
        if bits == 0 {
            return self.to_mont(&BigUint::one());
        }
        let len = self.len();
        let base = self.to_mont(base);
        let mut acc = base.clone();
        let mut tmp = vec![0u64; len];
        let mut scratch = self.scratch();
        if bits <= 64 {
            // Short exponents are public in every caller (RSA's e): plain
            // left-to-right square-and-multiply, 16 squarings and one
            // multiply for e = 65537.
            for i in (0..bits - 1).rev() {
                self.sqr(&acc, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
                if exp.bit(i) {
                    self.mul(&acc, &base, &mut tmp, &mut scratch);
                    std::mem::swap(&mut acc, &mut tmp);
                }
            }
            return acc;
        }
        // Long (secret) exponents: 4-bit fixed windows over a table of
        // base^0..base^15. Every window multiplies, table[0] being one,
        // and reads its entry by a masked scan of all sixteen.
        let mut table = vec![0u64; 16 * len];
        table[..len].copy_from_slice(&self.to_mont(&BigUint::one()));
        table[len..2 * len].copy_from_slice(&base);
        for i in 2..16 {
            let (done, rest) = table.split_at_mut(i * len);
            self.mul(
                &done[(i - 1) * len..],
                &base,
                &mut rest[..len],
                &mut scratch,
            );
        }
        let mut entry = vec![0u64; len];
        let windows = bits.div_ceil(4);
        for w in (0..windows).rev() {
            let window = ((exp.limbs[w / 16] >> (4 * (w % 16))) & 0xF) as usize;
            select_entry(&table, window, &mut entry);
            if w + 1 == windows {
                acc.copy_from_slice(&entry);
                continue;
            }
            for _ in 0..4 {
                self.sqr(&acc, &mut tmp, &mut scratch);
                std::mem::swap(&mut acc, &mut tmp);
            }
            self.mul(&acc, &entry, &mut tmp, &mut scratch);
            std::mem::swap(&mut acc, &mut tmp);
        }
        acc
    }
}

/// `out = t − n` when `top·R + t ≥ n`, else `out = t`, chosen under a
/// mask rather than a branch; `top·R + t < 2n`, so `top` is 0 or 1.
/// The subtraction keeps its result when `top` is set or the low limbs
/// did not borrow.
#[inline(always)]
fn subtract_n_masked(t: &[u64], top: u64, n: &[u64], out: &mut [u64]) {
    let mut borrow = 0u64;
    for ((o, &tj), &nj) in out.iter_mut().zip(t).zip(n) {
        let (d1, b1) = tj.overflowing_sub(nj);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *o = d2;
        borrow = (b1 | b2) as u64;
    }
    let keep_diff = (top | (borrow ^ 1)).wrapping_neg();
    for (o, &tj) in out.iter_mut().zip(t) {
        *o = (*o & keep_diff) | (tj & !keep_diff);
    }
}

/// Copies entry `window` of a table of `out.len()`-limb entries into
/// `out`, reading every entry and keeping one under a mask, so the
/// memory touched does not depend on `window`.
fn select_entry(table: &[u64], window: usize, out: &mut [u64]) {
    out.fill(0);
    for (i, entry) in table.chunks_exact(out.len()).enumerate() {
        let diff = (i ^ window) as u64;
        // All ones when diff is zero, else zero.
        let mask = ((diff | diff.wrapping_neg()) >> 63).wrapping_sub(1);
        for (o, &v) in out.iter_mut().zip(entry) {
            *o |= v & mask;
        }
    }
}

/// Signed subtraction on (magnitude, is_negative) pairs: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        (false, true) => (a.0.add(&b.0), false), // a - (-b) = a + b
        (true, false) => (a.0.add(&b.0), true),  // -a - b = -(a+b)
        (false, false) => {
            if a.0 >= b.0 {
                (a.0.sub(&b.0), false)
            } else {
                (b.0.sub(&a.0), true)
            }
        }
        (true, true) => {
            // -a - (-b) = b - a
            if b.0 >= a.0 {
                (b.0.sub(&a.0), false)
            } else {
                (a.0.sub(&b.0), true)
            }
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.is_zero() {
            write!(f, "0")?;
        } else {
            for (i, limb) in self.limbs.iter().enumerate().rev() {
                if i == self.limbs.len() - 1 {
                    write!(f, "{:x}", limb)?;
                } else {
                    write!(f, "{:016x}", limb)?;
                }
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Hex display; decimal conversion is never needed in this stack.
        fmt::Debug::fmt(self, f)
    }
}

impl std::ops::Add for &BigUint {
    type Output = BigUint;
    fn add(self, rhs: &BigUint) -> BigUint {
        BigUint::add(self, rhs)
    }
}

impl std::ops::Sub for &BigUint {
    type Output = BigUint;
    fn sub(self, rhs: &BigUint) -> BigUint {
        BigUint::sub(self, rhs)
    }
}

impl std::ops::Mul for &BigUint {
    type Output = BigUint;
    fn mul(self, rhs: &BigUint) -> BigUint {
        BigUint::mul(self, rhs)
    }
}

impl std::ops::Rem for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        BigUint::rem(self, rhs)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        BigUint::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn add_with_carry_across_limbs() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::one();
        let s = a.add(&b);
        assert_eq!(s.to_be_bytes(), vec![1, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn sub_with_borrow_across_limbs() {
        let a = BigUint::from_be_bytes(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        let b = BigUint::one();
        assert_eq!(a.sub(&b), BigUint::from_u64(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xDEAD_BEEF_u64;
        let b = 0xFEED_FACE_CAFE_u64;
        let prod = big(a).mul(&big(b));
        let expect = a as u128 * b as u128;
        let got = BigUint::from_be_bytes(&expect.to_be_bytes());
        assert_eq!(prod, got);
    }

    #[test]
    fn div_rem_small_divisor() {
        let a = BigUint::from_be_bytes(&[0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0xF0, 0x11]);
        let (q, r) = a.div_rem(&big(1_000_003));
        let back = q.mul(&big(1_000_003)).add(&r);
        assert_eq!(back, a);
        assert!(r < big(1_000_003));
    }

    #[test]
    fn div_rem_multi_limb_divisor() {
        let a = BigUint::from_be_bytes(&[0xFF; 40]);
        let d =
            BigUint::from_be_bytes(&[0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD, 0xEF, 0x55, 0x77]);
        let (q, r) = a.div_rem(&d);
        assert!(r < d);
        assert_eq!(q.mul(&d).add(&r), a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = big(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts_roundtrip() {
        let a = BigUint::from_be_bytes(b"some arbitrary byte string!");
        for bits in [0usize, 1, 7, 63, 64, 65, 130] {
            assert_eq!(a.shl(bits).shr(bits), a, "shift by {}", bits);
        }
    }

    #[test]
    fn byte_roundtrip_strips_leading_zeros() {
        let a = BigUint::from_be_bytes(&[0, 0, 0x12, 0x34]);
        assert_eq!(a.to_be_bytes(), vec![0x12, 0x34]);
        assert_eq!(a.to_be_bytes_padded(4), vec![0, 0, 0x12, 0x34]);
    }

    #[test]
    #[should_panic]
    fn padded_too_small_panics() {
        let _ = big(0x1234).to_be_bytes_padded(1);
    }

    #[test]
    fn mod_pow_small_cases() {
        // 3^7 mod 11 = 2187 mod 11 = 9
        assert_eq!(big(3).mod_pow(&big(7), &big(11)), big(9));
        // x^0 = 1
        assert_eq!(big(99).mod_pow(&BigUint::zero(), &big(1001)), big(1));
        // mod 1 → 0
        assert_eq!(big(5).mod_pow(&big(3), &BigUint::one()), BigUint::zero());
        assert_eq!(
            big(5).mod_pow(&BigUint::zero(), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    #[should_panic(expected = "modulus must be odd")]
    fn mod_pow_even_modulus_panics() {
        let _ = big(3).mod_pow(&big(7), &big(10));
    }

    #[test]
    #[should_panic(expected = "modulus must be nonzero")]
    fn mod_pow_zero_modulus_panics() {
        let _ = big(3).mod_pow(&big(7), &BigUint::zero());
    }

    thread_local! {
        static MULS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
        static SQRS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Called by every [`Montgomery::mul`] in test builds.
    pub(super) fn count_mul() {
        MULS.with(|c| c.set(c.get() + 1));
    }

    /// Called by every [`Montgomery::sqr`] in test builds.
    pub(super) fn count_sqr() {
        SQRS.with(|c| c.set(c.get() + 1));
    }

    /// The Montgomery squarings and multiplies `f` runs on this thread.
    fn count_kernel_calls(f: impl FnOnce()) -> (u64, u64) {
        let read = || (SQRS.with(|c| c.get()), MULS.with(|c| c.get()));
        let (sqrs, muls) = read();
        f();
        let (sqrs_after, muls_after) = read();
        (sqrs_after - sqrs, muls_after - muls)
    }

    /// The `mul` + Knuth-D `rem` exponentiation `mod_pow` ran before
    /// Montgomery, kept as the reference for the differential tests.
    fn mod_pow_oracle(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modulus must be nonzero");
        if m.is_one() {
            return BigUint::zero();
        }
        if exp.is_zero() {
            return BigUint::one();
        }
        let base = base.rem(m);
        let mut table = Vec::with_capacity(16);
        table.push(BigUint::one());
        table.push(base.clone());
        for i in 2..16 {
            let next = table[i - 1].mod_mul(&base, m);
            table.push(next);
        }
        let nbits = exp.bit_len();
        let nwindows = nbits.div_ceil(4);
        let mut acc = BigUint::one();
        for w in (0..nwindows).rev() {
            if w != nwindows - 1 {
                for _ in 0..4 {
                    acc = acc.mod_mul(&acc, m);
                }
            }
            let mut idx = 0usize;
            for b in 0..4 {
                let bit = w * 4 + (3 - b);
                idx <<= 1;
                if exp.bit(bit) {
                    idx |= 1;
                }
            }
            if idx != 0 {
                acc = acc.mod_mul(&table[idx], m);
            }
        }
        acc
    }

    /// A random odd modulus of exactly `limbs` limbs.
    fn odd_modulus(rng: &mut StdRng, limbs: usize) -> BigUint {
        BigUint::random_odd_with_bits(rng, 64 * limbs)
    }

    #[test]
    fn montgomery_constants_at_one_and_thirty_two_limbs() {
        let mut rng = StdRng::seed_from_u64(21);
        let moduli = [
            big(1_000_000_007),
            big(u64::MAX),
            BigUint::one(),
            odd_modulus(&mut rng, 32),
            BigUint::one().shl(64 * 32).sub(&BigUint::one()),
        ];
        for n in &moduli {
            let ctx = Montgomery::new(n);
            let len = n.limbs.len();
            assert_eq!(ctx.len(), len);
            // n·n′ ≡ −1 (mod 2⁶⁴)
            assert_eq!(n.limbs[0].wrapping_mul(ctx.n_prime), u64::MAX, "{n:?}");
            // R² mod n by 128·L modular doublings, without division.
            let mut rr = BigUint::one().rem(n);
            for _ in 0..128 * len {
                rr = rr.mod_add(&rr, n);
            }
            assert_eq!(ctx.rr, rr.limbs_padded(len), "{n:?}");
        }
    }

    #[test]
    fn mod_pow_matches_oracle_on_edge_operands() {
        let mut rng = StdRng::seed_from_u64(22);
        let one = BigUint::one();
        let mut moduli = vec![
            big(3),
            big(1_000_000_007),
            one.shl(61).sub(&one),
            one.shl(127).sub(&one),
        ];
        for limbs in [1usize, 2, 3, 8, 16, 32] {
            moduli.push(odd_modulus(&mut rng, limbs));
            moduli.push(one.shl(64 * limbs).sub(&one));
        }
        for n in &moduli {
            let full = BigUint::random_below(&mut rng, n);
            let bases = [
                BigUint::zero(),
                one.clone(),
                n.sub(&one),
                n.clone(),
                n.add(&big(5)),
                n.mul(n).add(&big(3)),
                full.clone(),
            ];
            let exps = [
                BigUint::zero(),
                one.clone(),
                big(2),
                big(65537),
                big(u64::MAX),
                one.shl(64),
                n.sub(&one),
                one.shl(64 * n.limbs.len()).sub(&one),
                full,
            ];
            for base in &bases {
                for exp in &exps {
                    assert_eq!(
                        base.mod_pow(exp, n),
                        mod_pow_oracle(base, exp, n),
                        "{base:?}^{exp:?} mod {n:?}"
                    );
                }
            }
        }
    }

    /// A random value of `0..max_limbs` random limbs (so any size from
    /// zero up, including values above a modulus of fewer limbs).
    fn random_limbs(rng: &mut StdRng, max_limbs: usize) -> BigUint {
        let count = rng.gen_range(0..max_limbs);
        let mut v = BigUint {
            limbs: (0..count).map(|_| rng.gen()).collect(),
        };
        v.normalize();
        v
    }

    #[test]
    fn mod_pow_matches_oracle_on_random_operands() {
        let mut rng = StdRng::seed_from_u64(25);
        for case in 0..160 {
            // Every limb count from 1 to 32 five times, at a random width.
            let len = 1 + case % 32;
            let bits = rng.gen_range(64 * (len - 1) + 2..=64 * len);
            let n = BigUint::random_odd_with_bits(&mut rng, bits);
            let base = random_limbs(&mut rng, 34);
            let exp = random_limbs(&mut rng, 33);
            assert_eq!(
                base.mod_pow(&exp, &n),
                mod_pow_oracle(&base, &exp, &n),
                "case {case}: {base:?}^{exp:?} mod {n:?}"
            );
        }
    }

    #[test]
    fn window_multiply_count_is_independent_of_the_exponent_digits() {
        // Equal bit length, very different zero-window counts: the old
        // loop skipped the table multiply on every zero window.
        let one = BigUint::one();
        let sparse = one.shl(511).add(&one);
        let dense = one.shl(512).sub(&one);
        let mut mixed = one.shl(511);
        mixed.limbs[3] = 0x0F0F_0000_F0F0_0F00;
        let mut rng = StdRng::seed_from_u64(23);
        let ctx = Montgomery::new(&odd_modulus(&mut rng, 8));
        let base = big(0xC0FFEE);
        let count = |exp: &BigUint| {
            count_kernel_calls(|| {
                let _ = ctx.pow(&base, exp);
            })
        };
        let want = count(&dense);
        assert_eq!(count(&sparse), want);
        assert_eq!(count(&mixed), want);
        // 4 squarings per window after the first. Multiplies: base and
        // one into Montgomery form, 14 more table entries, 1 per window
        // after the first, and one out of Montgomery form.
        assert_eq!(want, (4 * (512 / 4 - 1), 2 + 14 + (512 / 4 - 1) + 1));
    }

    #[test]
    fn public_exponent_costs_sixteen_squarings_and_one_multiply() {
        let mut rng = StdRng::seed_from_u64(24);
        let ctx = Montgomery::new(&odd_modulus(&mut rng, 16));
        let calls = count_kernel_calls(|| {
            let _ = ctx.pow(&big(0xC0FFEE), &big(65537));
        });
        // Plus one multiply into and one out of Montgomery form.
        assert_eq!(calls, (16, 1 + 2));
    }

    #[test]
    fn crt_sign_kernel_calls_are_pinned() {
        let key = crate::rsa::RsaKeyPair::generate(1024, 0x5167);
        let calls = count_kernel_calls(|| {
            let _ = key.sign_pkcs1_sha1(b"quote");
        });
        // Both CRT exponents of this key have 512 bits, so 128 windows
        // each. Per half: 4 squarings on each window after the first; a
        // multiply into Montgomery form for the base and for one, 14
        // table entries, 1 per window after the first and 1 out of
        // Montgomery form.
        assert_eq!(calls, (2 * 4 * 127, 2 * (2 + 14 + 127 + 1)));
    }

    /// Edge operands below `n`: 0, 1, n−1, the value with every limb
    /// all ones below n's top limb, and random values.
    fn edge_operands(rng: &mut StdRng, n: &BigUint) -> Vec<BigUint> {
        let one = BigUint::one();
        let len = n.limbs.len();
        let mut ones = vec![u64::MAX; len];
        ones[len - 1] = n.limbs[len - 1] - 1;
        let mut ones = BigUint { limbs: ones };
        ones.normalize();
        let mut operands = vec![BigUint::zero(), one.clone(), n.sub(&one), ones];
        operands.extend((0..4).map(|_| BigUint::random_below(rng, n)));
        operands
    }

    #[test]
    fn sqr_matches_mul_and_the_oracle_on_edge_operands() {
        let mut rng = StdRng::seed_from_u64(26);
        let one = BigUint::one();
        for limbs in [1usize, 2, 8, 16, 17, 32] {
            for n in [odd_modulus(&mut rng, limbs), one.shl(64 * limbs).sub(&one)] {
                let ctx = Montgomery::new(&n);
                let mut scratch = ctx.scratch();
                let (mut by_sqr, mut by_mul) = (vec![0u64; limbs], vec![0u64; limbs]);
                for x in edge_operands(&mut rng, &n) {
                    // On the raw limbs, read as a Montgomery-form value.
                    let raw = x.limbs_padded(limbs);
                    ctx.sqr(&raw, &mut by_sqr, &mut scratch);
                    ctx.mul(&raw, &raw, &mut by_mul, &mut scratch);
                    assert_eq!(by_sqr, by_mul, "raw {x:?} mod {n:?}");
                    // On x's Montgomery form, against the oracle.
                    let xm = ctx.to_mont(&x);
                    ctx.sqr(&xm, &mut by_sqr, &mut scratch);
                    ctx.mul(&xm, &xm, &mut by_mul, &mut scratch);
                    assert_eq!(by_sqr, by_mul, "{x:?} mod {n:?}");
                    assert_eq!(
                        ctx.redc(&by_sqr),
                        mod_pow_oracle(&x, &big(2), &n),
                        "{x:?} mod {n:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn mod_pow_fermat_little_theorem() {
        // p prime, a^(p-1) ≡ 1 (mod p)
        let p = big(1_000_000_007);
        for a in [2u64, 3, 12345, 999_999_999] {
            assert_eq!(big(a).mod_pow(&p.sub(&BigUint::one()), &p), BigUint::one());
        }
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(big(48).gcd(&big(18)), big(6));
        assert_eq!(big(17).gcd(&big(13)), big(1));
        assert_eq!(big(0).gcd(&big(7)), big(7));
        assert_eq!(big(7).gcd(&big(0)), big(7));
    }

    #[test]
    fn mod_inverse_basics() {
        let inv = big(3).mod_inverse(&big(7)).unwrap();
        assert_eq!(inv, big(5)); // 3*5 = 15 ≡ 1 mod 7
        assert!(big(6).mod_inverse(&big(9)).is_none()); // gcd 3
        assert!(big(4).mod_inverse(&BigUint::one()).is_none());
    }

    #[test]
    fn mod_inverse_random_is_inverse() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = BigUint::from_u64(0xFFFF_FFFF_FFFF_FFC5); // large prime
        for _ in 0..50 {
            let a = BigUint::random_below(&mut rng, &m);
            if a.is_zero() {
                continue;
            }
            let inv = a.mod_inverse(&m).expect("prime modulus → inverse exists");
            assert_eq!(a.mod_mul(&inv, &m), BigUint::one());
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(99);
        let bound = BigUint::from_be_bytes(&[0x03, 0xFF, 0xFF]);
        for _ in 0..200 {
            let v = BigUint::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
    }

    #[test]
    fn random_odd_with_bits_has_exact_bitlen() {
        let mut rng = StdRng::seed_from_u64(3);
        for bits in [2usize, 17, 64, 65, 512] {
            let v = BigUint::random_odd_with_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits);
            assert!(!v.is_even());
        }
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big(5) < big(6));
        assert!(BigUint::from_be_bytes(&[1, 0]) > BigUint::from_be_bytes(&[0xFF]));
        assert_eq!(big(42).cmp(&big(42)), Ordering::Equal);
    }

    #[test]
    fn debug_is_nonempty_hex() {
        assert_eq!(format!("{:?}", BigUint::zero()), "BigUint(0x0)");
        assert_eq!(format!("{:?}", big(0xABC)), "BigUint(0xabc)");
    }
}
