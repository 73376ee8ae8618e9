//! A software TPM 1.2 for the uni-directional trusted path reproduction.
//!
//! The original paper runs on physical TPM 1.2 chips. This crate replaces
//! them with a functional software model plus a calibrated latency model:
//!
//! * **Functional, not mocked**: PCR extend/reset semantics, locality
//!   enforcement, DRTM (`TPM_HASH_START..END`) PCR-17 behaviour, real
//!   RSA-signed quotes ([`quote`]), PCR-bound sealed storage ([`seal`]),
//!   monotonic counters ([`counter`]), NV storage ([`nvram`]) and a
//!   byte-level TPM 1.2 command interface ([`command`]).
//! * **Timed**: every command reports the wall-clock cost a given vendor's
//!   chip would incur ([`timing`]), calibrated to the Flicker-era published
//!   microbenchmarks, so the paper's latency tables can be regenerated.
//!
//! The entry point is [`Tpm`].
//!
//! # Example
//!
//! ```
//! use utp_tpm::{Tpm, TpmConfig};
//! use utp_tpm::pcr::PcrIndex;
//! use utp_tpm::locality::Locality;
//!
//! let mut tpm = Tpm::new(TpmConfig::fast_for_tests(1));
//! tpm.startup_clear();
//! // Static PCRs start at zero and extend normally from locality 0.
//! let pcr0 = PcrIndex::new(0).unwrap();
//! tpm.extend(Locality::Zero, pcr0, &[0xAB; 20]).unwrap();
//! assert_ne!(tpm.pcr_read(pcr0).unwrap(), utp_crypto::sha1::Sha1Digest::zero());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod auth;
pub mod command;
pub mod counter;
pub mod device;
pub mod error;
pub mod keys;
pub mod locality;
pub mod nvram;
pub mod pcr;
pub mod quote;
pub mod seal;
pub mod timing;
pub mod wrapped;

pub use device::{Tpm, TpmConfig, TpmOpRecord};
pub use error::TpmError;
pub use timing::VendorProfile;
