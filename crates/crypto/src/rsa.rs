//! RSA key generation, raw RSA, and PKCS#1 v1.5 signatures / encryption.
//!
//! The TPM 1.2 signs quotes with a 2048-bit RSA AIK using PKCS#1 v1.5 over
//! SHA-1; the privacy CA and service provider use SHA-256 signatures. Both
//! padding modes live here, plus PKCS#1 v1.5 type-2 encryption used by the
//! TPM seal model.

use std::fmt;

use crate::bigint::{BigUint, Montgomery};
use crate::error::CryptoError;
use crate::prime::generate_prime;
use crate::sha1::Sha1;
use crate::sha256::Sha256;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ASN.1 DigestInfo prefix for SHA-1 (RFC 8017 §9.2 note 1).
const SHA1_PREFIX: [u8; 15] = [
    0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e, 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14,
];

/// ASN.1 DigestInfo prefix for SHA-256.
const SHA256_PREFIX: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// The public half of an RSA key.
///
/// # Example
///
/// ```
/// use utp_crypto::rsa::RsaKeyPair;
/// let kp = RsaKeyPair::generate(512, 7);
/// let pk = kp.public();
/// assert_eq!(pk.modulus_len(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

impl RsaPublicKey {
    /// Constructs a public key from raw modulus and exponent.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey { n, e }
    }

    /// Modulus length in bytes (= signature / ciphertext length).
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// A stable byte encoding of this key (length-prefixed n, e) for
    /// hashing into certificates and PCRs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_be_bytes();
        let e = self.e.to_be_bytes();
        let mut out = Vec::with_capacity(8 + n.len() + e.len());
        out.extend_from_slice(&(n.len() as u32).to_be_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_be_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Parses the encoding produced by [`RsaPublicKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 4 {
            return None;
        }
        let nlen = u32::from_be_bytes(bytes[..4].try_into().ok()?) as usize;
        let rest = &bytes[4..];
        if rest.len() < nlen + 4 {
            return None;
        }
        let n = BigUint::from_be_bytes(&rest[..nlen]);
        let rest = &rest[nlen..];
        let elen = u32::from_be_bytes(rest[..4].try_into().ok()?) as usize;
        let rest = &rest[4..];
        if rest.len() != elen {
            return None;
        }
        let e = BigUint::from_be_bytes(&rest[..elen]);
        Some(RsaPublicKey { n, e })
    }

    /// Raw RSA public operation `m^e mod n` on a padded block.
    fn raw(&self, block: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if block.len() != k {
            return Err(CryptoError::LengthMismatch {
                expected: k,
                got: block.len(),
            });
        }
        let m = BigUint::from_be_bytes(block);
        // An even modulus is no RSA key (and has no Montgomery form): a
        // key parsed from untrusted bytes must fail here, not panic.
        if m >= self.n || self.n.is_even() {
            return Err(CryptoError::BadPadding);
        }
        Ok(m.mod_pow(&self.e, &self.n).to_be_bytes_padded(k))
    }

    /// Verifies a PKCS#1 v1.5 SHA-1 signature over `msg`.
    #[must_use]
    pub fn verify_pkcs1_sha1(&self, msg: &[u8], sig: &[u8]) -> bool {
        let digest = Sha1::digest(msg);
        self.verify_pkcs1_prehashed(&SHA1_PREFIX, digest.as_bytes(), sig)
    }

    /// Verifies a PKCS#1 v1.5 SHA-256 signature over `msg`.
    #[must_use]
    pub fn verify_pkcs1_sha256(&self, msg: &[u8], sig: &[u8]) -> bool {
        let digest = Sha256::digest(msg);
        self.verify_pkcs1_prehashed(&SHA256_PREFIX, digest.as_bytes(), sig)
    }

    /// Verifies a signature over an already-computed digest.
    #[must_use]
    pub fn verify_pkcs1_prehashed(&self, prefix: &[u8], digest: &[u8], sig: &[u8]) -> bool {
        let Ok(em) = self.raw(sig) else { return false };
        let Ok(expected) = emsa_pkcs1_v15(prefix, digest, self.modulus_len()) else {
            return false;
        };
        crate::ct::ct_eq(&em, &expected)
    }

    /// PKCS#1 v1.5 (type 2) encryption of `msg`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MessageTooLong`] if `msg` exceeds `k - 11` bytes.
    pub fn encrypt_pkcs1<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        msg: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if msg.len() + 11 > k {
            return Err(CryptoError::MessageTooLong {
                max: k - 11,
                got: msg.len(),
            });
        }
        let mut em = vec![0u8; k];
        em[1] = 0x02;
        let ps_len = k - 3 - msg.len();
        for b in &mut em[2..2 + ps_len] {
            // Padding bytes must be nonzero.
            *b = rng.gen_range(1..=255u8);
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(msg);
        self.raw(&em)
    }
}

/// An RSA key pair.
///
/// Key generation uses a dedicated deterministic RNG seeded by the caller so
/// every experiment in the reproduction is bit-reproducible.
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    /// Private exponent; kept (though CRT is used operationally) so tests
    /// can cross-check the CRT path against plain `m^d mod n`.
    #[allow(dead_code)]
    d: BigUint,
    // CRT parameters for a ~4x faster private operation; each prime is
    // held as its Montgomery context, built once here.
    p: Montgomery,
    q: Montgomery,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
}

// Redacting Debug: only public parameters are printed. The private
// exponent and CRT factors must never reach logs or panic messages.
impl fmt::Debug for RsaKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RsaKeyPair")
            .field("public", &self.public)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl RsaKeyPair {
    /// Generates a fresh key with the given modulus size in bits.
    ///
    /// `seed` makes generation deterministic; pass different seeds for
    /// different identities.
    ///
    /// # Panics
    ///
    /// Panics if `bits < 64` or `bits` is odd.
    pub fn generate(bits: usize, seed: u64) -> Self {
        assert!(bits >= 64, "modulus too small: {} bits", bits);
        assert!(bits.is_multiple_of(2), "modulus bits must be even");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5253_4147_454e_u64);
        let e = BigUint::from_u64(65537);
        let one = BigUint::one();
        loop {
            let p = generate_prime(&mut rng, bits / 2);
            let q = generate_prime(&mut rng, bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            if n.bit_len() != bits {
                continue;
            }
            let p1 = p.sub(&one);
            let q1 = q.sub(&one);
            let phi = p1.mul(&q1);
            if !phi.gcd(&e).is_one() {
                continue;
            }
            let Some(d) = e.mod_inverse(&phi) else {
                continue;
            };
            let dp = d.rem(&p1);
            let dq = d.rem(&q1);
            let Some(qinv) = q.mod_inverse(&p) else {
                continue;
            };
            return RsaKeyPair {
                public: RsaPublicKey { n, e },
                d,
                p: Montgomery::new(&p),
                q: Montgomery::new(&q),
                dp,
                dq,
                qinv,
            };
        }
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.public.modulus_len()
    }

    /// Raw RSA private operation using the Chinese Remainder Theorem.
    fn raw_private(&self, block: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if block.len() != k {
            return Err(CryptoError::LengthMismatch {
                expected: k,
                got: block.len(),
            });
        }
        let c = BigUint::from_be_bytes(block);
        if c >= self.public.n {
            return Err(CryptoError::BadPadding);
        }
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let m1 = self.p.pow(&c.rem(p), &self.dp);
        let m2 = self.q.pow(&c.rem(q), &self.dq);
        // h = qinv * (m1 - m2) mod p
        let m2p = m2.rem(p);
        let diff = if m1 >= m2p {
            m1.sub(&m2p)
        } else {
            m1.add(p).sub(&m2p)
        };
        let h = self.qinv.mod_mul(&diff, p);
        let m = m2.add(&q.mul(&h));
        Ok(m.to_be_bytes_padded(k))
    }

    /// Signs `msg` with PKCS#1 v1.5 over SHA-1 (the TPM 1.2 signature mode).
    ///
    /// # Errors
    ///
    /// [`CryptoError::LengthMismatch`] when the modulus is too small to
    /// hold the DigestInfo plus PKCS#1 padding. Keys in this workspace are
    /// always ≥ 512 bits, so this indicates a caller bug.
    pub fn sign_pkcs1_sha1(&self, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let digest = Sha1::digest(msg);
        self.sign_pkcs1_prehashed(&SHA1_PREFIX, digest.as_bytes())
    }

    /// Signs `msg` with PKCS#1 v1.5 over SHA-256.
    ///
    /// # Errors
    ///
    /// See [`RsaKeyPair::sign_pkcs1_sha1`].
    pub fn sign_pkcs1_sha256(&self, msg: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let digest = Sha256::digest(msg);
        self.sign_pkcs1_prehashed(&SHA256_PREFIX, digest.as_bytes())
    }

    /// Signs an already-computed digest with the given DigestInfo prefix.
    ///
    /// # Errors
    ///
    /// [`CryptoError::LengthMismatch`] when the modulus is too small for
    /// the encoding; once encoding succeeds the raw private operation
    /// cannot fail (`em` is exactly modulus-sized with a 0x00 top byte,
    /// so it is < n).
    pub fn sign_pkcs1_prehashed(
        &self,
        prefix: &[u8],
        digest: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let em = emsa_pkcs1_v15(prefix, digest, self.modulus_len())?;
        self.raw_private(&em)
    }

    /// PKCS#1 v1.5 decryption.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadPadding`] when the padding does not verify and
    /// [`CryptoError::LengthMismatch`] when the ciphertext has the wrong
    /// length.
    pub fn decrypt_pkcs1(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let em = self.raw_private(ciphertext)?;
        // EM = 0x00 || 0x02 || PS (>= 8 nonzero bytes) || 0x00 || M
        if em.len() < 11 || em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::BadPadding);
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::BadPadding)?;
        if sep < 8 {
            return Err(CryptoError::BadPadding);
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 01 FF..FF 00 || DigestInfo || digest`.
fn emsa_pkcs1_v15(prefix: &[u8], digest: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let t_len = prefix.len() + digest.len();
    if k < t_len + 11 {
        return Err(CryptoError::MessageTooLong {
            max: k - 11,
            got: t_len,
        });
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xFF);
    em.push(0x00);
    em.extend_from_slice(prefix);
    em.extend_from_slice(digest);
    debug_assert_eq!(em.len(), k);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeyPair {
        RsaKeyPair::generate(512, 1234)
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let a = RsaKeyPair::generate(512, 7);
        let b = RsaKeyPair::generate(512, 7);
        let c = RsaKeyPair::generate(512, 8);
        assert_eq!(a.public(), b.public());
        assert_ne!(a.public(), c.public());
    }

    #[test]
    fn modulus_has_requested_size() {
        for bits in [512usize, 768, 1024] {
            let kp = RsaKeyPair::generate(bits, 9);
            assert_eq!(kp.public().modulus().bit_len(), bits);
            assert_eq!(kp.modulus_len(), bits / 8);
        }
    }

    #[test]
    fn sign_verify_sha1_roundtrip() {
        let kp = keypair();
        let sig = kp.sign_pkcs1_sha1(b"quote data").unwrap();
        assert_eq!(sig.len(), kp.modulus_len());
        assert!(kp.public().verify_pkcs1_sha1(b"quote data", &sig));
        assert!(!kp.public().verify_pkcs1_sha1(b"quote dat@", &sig));
    }

    #[test]
    fn sign_verify_sha256_roundtrip() {
        let kp = keypair();
        let sig = kp.sign_pkcs1_sha256(b"certificate body").unwrap();
        assert!(kp.public().verify_pkcs1_sha256(b"certificate body", &sig));
        assert!(!kp.public().verify_pkcs1_sha256(b"certificate bodY", &sig));
    }

    #[test]
    fn signature_from_other_key_rejected() {
        let kp1 = keypair();
        let kp2 = RsaKeyPair::generate(512, 4321);
        let sig = kp1.sign_pkcs1_sha256(b"msg").unwrap();
        assert!(!kp2.public().verify_pkcs1_sha256(b"msg", &sig));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let kp = keypair();
        let mut sig = kp.sign_pkcs1_sha256(b"msg").unwrap();
        for i in [0usize, 10, 63] {
            sig[i] ^= 0x01;
            assert!(!kp.public().verify_pkcs1_sha256(b"msg", &sig));
            sig[i] ^= 0x01;
        }
        // Wrong length entirely.
        assert!(!kp.public().verify_pkcs1_sha256(b"msg", &sig[1..]));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(5);
        for msg in [&b""[..], b"k", b"a 32-byte session key goes here!"] {
            let ct = kp.public().encrypt_pkcs1(&mut rng, msg).unwrap();
            assert_eq!(ct.len(), kp.modulus_len());
            assert_eq!(kp.decrypt_pkcs1(&ct).unwrap(), msg);
        }
    }

    #[test]
    fn encrypt_rejects_oversized_message() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(5);
        let too_big = vec![0u8; kp.modulus_len() - 10];
        let err = kp.public().encrypt_pkcs1(&mut rng, &too_big).unwrap_err();
        assert!(matches!(err, CryptoError::MessageTooLong { .. }));
    }

    #[test]
    fn decrypt_rejects_garbage() {
        let kp = keypair();
        let garbage = vec![0x42u8; kp.modulus_len()];
        assert!(kp.decrypt_pkcs1(&garbage).is_err());
        assert!(matches!(
            kp.decrypt_pkcs1(&[1, 2, 3]).unwrap_err(),
            CryptoError::LengthMismatch { .. }
        ));
    }

    #[test]
    fn public_key_bytes_roundtrip() {
        let kp = keypair();
        let bytes = kp.public().to_bytes();
        let parsed = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&parsed, kp.public());
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(RsaPublicKey::from_bytes(&[]).is_none());
    }

    #[test]
    fn even_modulus_key_rejects_without_panicking() {
        let kp = keypair();
        let even = RsaPublicKey::new(
            kp.public().modulus().add(&BigUint::one()),
            BigUint::from_u64(65537),
        );
        let sig = kp.sign_pkcs1_sha256(b"msg").unwrap();
        assert!(!even.verify_pkcs1_sha256(b"msg", &sig));
        let mut rng = StdRng::seed_from_u64(5);
        assert!(even.encrypt_pkcs1(&mut rng, b"msg").is_err());
    }

    #[test]
    fn crt_private_op_matches_plain_modpow() {
        let kp = keypair();
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let m = BigUint::random_below(&mut rng, kp.public().modulus());
            let block = m.to_be_bytes_padded(kp.modulus_len());
            let crt = kp.raw_private(&block).unwrap();
            let plain = m.mod_pow(&kp.d, kp.public().modulus());
            assert_eq!(crt, plain.to_be_bytes_padded(kp.modulus_len()));
        }
    }
}
