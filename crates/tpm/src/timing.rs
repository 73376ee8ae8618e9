//! TPM command latency model.
//!
//! The paper's evaluation (like Flicker's, which it builds on) is dominated
//! by how long the physical TPM chip takes to execute privacy-sensitive
//! commands — a `TPM_Quote` is a 2048-bit RSA signature computed by a
//! ~33 MHz smartcard-class microcontroller and costs *hundreds of
//! milliseconds*. Since we replace the chip with software, we attach a
//! calibrated cost model: each command's modeled duration is
//! `base + per_byte * payload_len`, with per-vendor constants taken from
//! the published Flicker-era microbenchmarks (EuroSys'08, and the TPM
//! timing appendix of the Flicker technical report). Numbers are
//! approximations of that era's chips, and EXPERIMENTS.md flags them as
//! calibration inputs, not measurements of this code.

use std::fmt;
use std::time::Duration;

/// The TPM chip vendors modeled, matching the machines used in the
/// Flicker-era evaluations this paper's numbers derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VendorProfile {
    /// Broadcom BCM5752 (HP dc5750) — slowest quote of the era.
    Broadcom,
    /// Infineon v1.2 (Lenovo T60) — fastest quote of the era.
    Infineon,
    /// Atmel v1.2 (various desktops).
    Atmel,
    /// STMicroelectronics v1.2.
    StMicro,
    /// Zero-latency profile for unit tests.
    Instant,
}

impl VendorProfile {
    /// All real (non-test) profiles.
    pub fn all_real() -> [VendorProfile; 4] {
        [
            VendorProfile::Broadcom,
            VendorProfile::Infineon,
            VendorProfile::Atmel,
            VendorProfile::StMicro,
        ]
    }

    /// Human-readable chip name.
    pub fn name(self) -> &'static str {
        match self {
            VendorProfile::Broadcom => "Broadcom BCM5752",
            VendorProfile::Infineon => "Infineon v1.2",
            VendorProfile::Atmel => "Atmel v1.2",
            VendorProfile::StMicro => "ST Micro v1.2",
            VendorProfile::Instant => "instant (test)",
        }
    }
}

impl fmt::Display for VendorProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The command classes with distinct cost profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TpmOp {
    /// `TPM_Extend` — one SHA-1 plus register update.
    Extend,
    /// `TPM_PCRRead`.
    PcrRead,
    /// `TPM_Quote` — an RSA private-key signature inside the chip.
    Quote,
    /// `TPM_Seal` — RSA + structure handling.
    Seal,
    /// `TPM_Unseal` — RSA decrypt + PCR policy check.
    Unseal,
    /// `TPM_GetRandom`.
    GetRandom,
    /// `TPM_IncrementCounter`.
    CounterIncrement,
    /// NV read/write.
    NvAccess,
    /// The locality-4 DRTM hash sequence (HASH_START/DATA/END).
    DrtmHash,
}

impl TpmOp {
    /// Stable lower-case command label, used as the `op` field of trace
    /// records and report rows.
    pub fn name(self) -> &'static str {
        match self {
            TpmOp::Extend => "extend",
            TpmOp::PcrRead => "pcr_read",
            TpmOp::Quote => "quote",
            TpmOp::Seal => "seal",
            TpmOp::Unseal => "unseal",
            TpmOp::GetRandom => "get_random",
            TpmOp::CounterIncrement => "counter_incr",
            TpmOp::NvAccess => "nv_access",
            TpmOp::DrtmHash => "drtm_hash",
        }
    }
}

/// Modeled latency for one op on one vendor's chip.
///
/// # Example
///
/// ```
/// use utp_tpm::timing::{cost, TpmOp, VendorProfile};
/// let quote = cost(VendorProfile::Infineon, TpmOp::Quote, 0);
/// let extend = cost(VendorProfile::Infineon, TpmOp::Extend, 20);
/// assert!(quote > 20 * extend); // quotes dominate, the paper's key fact
/// ```
pub fn cost(vendor: VendorProfile, op: TpmOp, payload_len: usize) -> Duration {
    let (base_us, per_byte_ns): (u64, u64) = match (vendor, op) {
        // (base microseconds, per payload byte nanoseconds)
        (VendorProfile::Instant, _) => (0, 0),
        (VendorProfile::Broadcom, TpmOp::Extend) => (27_000, 150),
        (VendorProfile::Broadcom, TpmOp::PcrRead) => (1_800, 50),
        (VendorProfile::Broadcom, TpmOp::Quote) => (972_000, 200),
        (VendorProfile::Broadcom, TpmOp::Seal) => (426_000, 400),
        (VendorProfile::Broadcom, TpmOp::Unseal) => (647_000, 400),
        (VendorProfile::Broadcom, TpmOp::GetRandom) => (35_000, 900),
        (VendorProfile::Broadcom, TpmOp::CounterIncrement) => (38_000, 0),
        (VendorProfile::Broadcom, TpmOp::NvAccess) => (22_000, 700),
        (VendorProfile::Broadcom, TpmOp::DrtmHash) => (14_000, 260),

        (VendorProfile::Infineon, TpmOp::Extend) => (12_000, 120),
        (VendorProfile::Infineon, TpmOp::PcrRead) => (1_200, 40),
        (VendorProfile::Infineon, TpmOp::Quote) => (331_000, 180),
        (VendorProfile::Infineon, TpmOp::Seal) => (180_000, 350),
        (VendorProfile::Infineon, TpmOp::Unseal) => (290_000, 350),
        (VendorProfile::Infineon, TpmOp::GetRandom) => (15_000, 700),
        (VendorProfile::Infineon, TpmOp::CounterIncrement) => (21_000, 0),
        (VendorProfile::Infineon, TpmOp::NvAccess) => (13_000, 500),
        (VendorProfile::Infineon, TpmOp::DrtmHash) => (9_000, 210),

        (VendorProfile::Atmel, TpmOp::Extend) => (6_000, 130),
        (VendorProfile::Atmel, TpmOp::PcrRead) => (1_500, 45),
        (VendorProfile::Atmel, TpmOp::Quote) => (798_000, 190),
        (VendorProfile::Atmel, TpmOp::Seal) => (500_000, 380),
        (VendorProfile::Atmel, TpmOp::Unseal) => (700_000, 380),
        (VendorProfile::Atmel, TpmOp::GetRandom) => (20_000, 800),
        (VendorProfile::Atmel, TpmOp::CounterIncrement) => (30_000, 0),
        (VendorProfile::Atmel, TpmOp::NvAccess) => (17_000, 600),
        (VendorProfile::Atmel, TpmOp::DrtmHash) => (11_000, 240),

        (VendorProfile::StMicro, TpmOp::Extend) => (9_000, 140),
        (VendorProfile::StMicro, TpmOp::PcrRead) => (1_400, 45),
        (VendorProfile::StMicro, TpmOp::Quote) => (899_000, 190),
        (VendorProfile::StMicro, TpmOp::Seal) => (590_000, 390),
        (VendorProfile::StMicro, TpmOp::Unseal) => (742_000, 390),
        (VendorProfile::StMicro, TpmOp::GetRandom) => (25_000, 850),
        (VendorProfile::StMicro, TpmOp::CounterIncrement) => (33_000, 0),
        (VendorProfile::StMicro, TpmOp::NvAccess) => (19_000, 650),
        (VendorProfile::StMicro, TpmOp::DrtmHash) => (12_000, 250),
    };
    Duration::from_micros(base_us) + Duration::from_nanos(per_byte_ns * payload_len as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_profile_is_free() {
        for op in [TpmOp::Quote, TpmOp::Seal, TpmOp::Extend] {
            assert_eq!(cost(VendorProfile::Instant, op, 1000), Duration::ZERO);
        }
    }

    #[test]
    fn quote_dominates_everything_else() {
        // The paper's central performance fact: quote latency is the
        // bottleneck of a trusted session on every vendor's chip.
        for v in VendorProfile::all_real() {
            let quote = cost(v, TpmOp::Quote, 20);
            for op in [
                TpmOp::Extend,
                TpmOp::PcrRead,
                TpmOp::GetRandom,
                TpmOp::NvAccess,
            ] {
                assert!(quote > cost(v, op, 20) * 5, "{:?} {:?}", v, op);
            }
        }
    }

    #[test]
    fn infineon_is_fastest_quote_broadcom_slowest() {
        let quotes: Vec<(VendorProfile, Duration)> = VendorProfile::all_real()
            .iter()
            .map(|&v| (v, cost(v, TpmOp::Quote, 20)))
            .collect();
        let fastest = quotes.iter().min_by_key(|(_, d)| *d).unwrap().0;
        let slowest = quotes.iter().max_by_key(|(_, d)| *d).unwrap().0;
        assert_eq!(fastest, VendorProfile::Infineon);
        assert_eq!(slowest, VendorProfile::Broadcom);
    }

    #[test]
    fn payload_increases_cost_monotonically() {
        let small = cost(VendorProfile::Atmel, TpmOp::Seal, 16);
        let large = cost(VendorProfile::Atmel, TpmOp::Seal, 4096);
        assert!(large > small);
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = VendorProfile::all_real().iter().map(|v| v.name()).collect();
        for (i, a) in names.iter().enumerate() {
            for b in names.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
