//! From-scratch cryptographic primitives for the uni-directional trusted
//! path (UTP) reproduction.
//!
//! The original system relies on a hardware TPM 1.2 (RSA + SHA-1 internally)
//! and host-side OpenSSL. Because no cryptography crates are in the approved
//! offline dependency set, this crate implements everything the stack needs:
//!
//! * [`sha1`] and [`sha256`] — FIPS 180-4 digests (TPM 1.2 PCRs are SHA-1).
//! * [`hmac`] — HMAC over either digest, used for TPM auth sessions.
//! * [`bigint`] — arbitrary-precision unsigned integers ([`BigUint`]).
//! * [`prime`] — Miller–Rabin probabilistic primality + prime generation.
//! * [`rsa`] — RSA key generation, raw RSA, and PKCS#1 v1.5 sign/verify.
//! * [`ct`] — constant-time byte comparison for verifier code.
//!
//! # Security disclaimer
//!
//! This is research / reproduction code. It is functionally correct (test
//! vectors from FIPS / RFC documents) but has **not** been audited, does not
//! attempt full side-channel resistance, and must not be used to protect
//! real data.
//!
//! # Example
//!
//! ```
//! use utp_crypto::rsa::RsaKeyPair;
//! use utp_crypto::sha256::Sha256;
//!
//! let key = RsaKeyPair::generate(512, 42); // small key: doc-test speed
//! let sig = key.sign_pkcs1_sha256(b"transaction #1").unwrap();
//! assert!(key.public().verify_pkcs1_sha256(b"transaction #1", &sig));
//! assert!(!key.public().verify_pkcs1_sha256(b"transaction #2", &sig));
//! let digest = Sha256::digest(b"transaction #1");
//! assert_eq!(digest.as_bytes().len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod bigint;
pub mod ct;
pub mod error;
pub mod hmac;
pub mod prime;
pub mod rsa;
pub mod sha1;
pub mod sha256;

pub use bigint::BigUint;
pub use error::CryptoError;
pub use sha1::Sha1Digest;
pub use sha256::Sha256Digest;
