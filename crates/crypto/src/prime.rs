//! Probabilistic primality testing and prime generation for RSA keys.

use crate::bigint::{BigUint, Montgomery};
use rand::Rng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211,
];

/// Number of Miller–Rabin rounds; 2^-80 error bound is ample for a
/// reproduction (FIPS 186-4 table C.2 suggests fewer for these sizes).
const MR_ROUNDS: usize = 40;

/// Returns `true` if `n` is (probably) prime.
///
/// Deterministically correct for `n < 3 215 031 751` via fixed bases, and
/// probabilistically correct (error < 2⁻⁸⁰) above via random bases.
///
/// # Example
///
/// ```
/// use utp_crypto::bigint::BigUint;
/// use utp_crypto::prime::is_probable_prime;
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert!(is_probable_prime(&BigUint::from_u64(104_729), &mut rng));
/// assert!(!is_probable_prime(&BigUint::from_u64(104_730), &mut rng));
/// ```
pub fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    if n == &BigUint::from_u64(2) {
        return true;
    }
    if n.is_even() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let bp = BigUint::from_u64(p);
        if n == &bp {
            return true;
        }
        if n.rem(&bp).is_zero() {
            return false;
        }
    }
    // Write n-1 = d * 2^r with d odd.
    let one = BigUint::one();
    let n_minus_1 = n.sub(&one);
    let mut d = n_minus_1.clone();
    let mut r = 0usize;
    while d.is_even() {
        d = d.shr(1);
        r += 1;
    }
    let two = BigUint::from_u64(2);
    let n_minus_2 = n.sub(&two);
    // First a handful of fixed bases (catches small pseudoprimes
    // deterministically), then random bases.
    let fixed: [u64; 7] = [2, 3, 5, 7, 11, 13, 17];
    // All witnesses share one Montgomery context and stay in Montgomery
    // form, where 1 and n−1 are R mod n and (n−1)·R mod n.
    let mont = Montgomery::new(n);
    let one_m = mont.to_mont(&one);
    let minus_one_m = mont.to_mont(&n_minus_1);
    let mut sq = vec![0u64; mont.len()];
    let mut scratch = mont.scratch();
    let mut witness = |a: BigUint| -> bool {
        // Returns true if `a` witnesses compositeness.
        let mut x = mont.pow_mont(&a, &d);
        if x == one_m || x == minus_one_m {
            return false;
        }
        for _ in 1..r {
            mont.sqr(&x, &mut sq, &mut scratch);
            std::mem::swap(&mut x, &mut sq);
            if x == minus_one_m {
                return false;
            }
        }
        true
    };
    for &a in &fixed {
        let ab = BigUint::from_u64(a);
        if ab >= n_minus_1 {
            continue;
        }
        if witness(ab) {
            return false;
        }
    }
    let random_rounds = MR_ROUNDS.saturating_sub(fixed.len());
    for _ in 0..random_rounds {
        // Uniform in [2, n-2].
        let a = loop {
            let c = BigUint::random_below(rng, &n_minus_2);
            if c >= two {
                break c;
            }
        };
        if witness(a) {
            return false;
        }
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 8` — RSA never needs primes that small and the top-two-
/// bits trick below assumes room to set them.
pub fn generate_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 8, "prime size too small: {} bits", bits);
    loop {
        let mut candidate = BigUint::random_odd_with_bits(rng, bits);
        // Set the second-highest bit too so products of two such primes have
        // exactly 2*bits bits, the standard RSA trick.
        candidate.set_bit(bits - 2);
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDEC0DE)
    }

    #[test]
    fn small_primes_accepted() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 97, 211, 104_729, 1_000_000_007] {
            assert!(
                is_probable_prime(&BigUint::from_u64(p), &mut r),
                "{} should be prime",
                p
            );
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut r = rng();
        for c in [0u64, 1, 4, 9, 15, 91, 561, 41041, 104_730, 1_000_000_006] {
            assert!(
                !is_probable_prime(&BigUint::from_u64(c), &mut r),
                "{} should be composite",
                c
            );
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Classic Carmichael numbers fool Fermat but not Miller–Rabin.
        let mut r = rng();
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 62745, 162401] {
            assert!(!is_probable_prime(&BigUint::from_u64(c), &mut r), "{}", c);
        }
    }

    #[test]
    fn generated_prime_has_requested_bits() {
        let mut r = rng();
        for bits in [16usize, 32, 64, 128] {
            let p = generate_prime(&mut r, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
        }
    }

    #[test]
    fn generated_primes_are_distinct() {
        let mut r = rng();
        let a = generate_prime(&mut r, 64);
        let b = generate_prime(&mut r, 64);
        assert_ne!(a, b);
    }

    #[test]
    fn product_of_two_primes_is_composite() {
        let mut r = rng();
        let a = generate_prime(&mut r, 32);
        let b = generate_prime(&mut r, 32);
        assert!(!is_probable_prime(&a.mul(&b), &mut r));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_prime_request_panics() {
        let mut r = rng();
        let _ = generate_prime(&mut r, 4);
    }
}
