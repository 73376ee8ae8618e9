//! E8 (ablation) — per-transaction quote vs amortized MAC confirmation.
//!
//! The design choice DESIGN.md calls out: every confirmation can carry its
//! own `TPM_Quote`, or the client can run one attested setup session and
//! authenticate later confirmations with an HMAC under a key sealed to the
//! PAL. This ablation regenerates the trade-off per TPM vendor: amortized
//! mode swaps the quote for an unseal (cheaper on every 2011 chip, by
//! varying margins) and swaps the provider's RSA verify for one HMAC.
//!
//! Regenerate: `cargo run -p utp-bench --bin e8_amortized`

use crate::table;
use std::time::Duration;
use utp_core::amortized::{AmortizedClient, AmortizedVerifier};
use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_core::protocol::{ConfirmMode, Transaction};
use utp_core::verifier::Verifier;
use utp_platform::machine::{Machine, MachineConfig};
use utp_tpm::VendorProfile;

/// One vendor's quote-mode vs amortized comparison.
#[derive(Debug, Clone)]
pub struct AmortizedRow {
    /// The chip.
    pub vendor: VendorProfile,
    /// Machine-only session time, quote per transaction.
    pub quote_mode: Duration,
    /// Machine-only session time, amortized MAC mode (post-setup).
    pub amortized_mode: Duration,
    /// One-time setup session cost (machine-only).
    pub setup_cost: Duration,
    /// Host CPU per verification, quote mode.
    pub server_cpu_quote: Duration,
    /// Host CPU per verification, amortized mode.
    pub server_cpu_amortized: Duration,
}

impl AmortizedRow {
    /// Transactions after which amortized mode has paid back its setup.
    pub fn break_even_transactions(&self) -> u64 {
        let saved = self
            .quote_mode
            .saturating_sub(self.amortized_mode)
            .as_secs_f64();
        if saved <= 0.0 {
            return u64::MAX;
        }
        (self.setup_cost.as_secs_f64() / saved).ceil() as u64
    }
}

/// Runs the ablation for every vendor.
pub fn run(key_bits: usize) -> Vec<AmortizedRow> {
    VendorProfile::all_real()
        .iter()
        .map(|&vendor| {
            let ca = PrivacyCa::new(key_bits, 81);
            let tx = Transaction::new(1, "shop.example", 4_200, "EUR", "order");

            // Quote mode.
            let mut verifier_q = Verifier::new(ca.public_key().clone(), 82);
            let mut machine_q = Machine::new(MachineConfig::realistic(vendor, 83));
            let enrollment = ca.enroll(&mut machine_q);
            let mut client_q = Client::new(ClientConfig::fast_for_tests(), enrollment);
            let request = verifier_q.issue_request_with_mode(
                tx.clone(),
                ConfirmMode::PressEnter,
                machine_q.now(),
            );
            let mut human = ConfirmingHuman::new(Intent::approving(&tx), 84);
            let (evidence_q, report_q) = client_q
                .confirm_with_report(&mut machine_q, &request, &mut human)
                .expect("quote-mode session runs");
            let wall = std::time::Instant::now();
            verifier_q
                .verify(&evidence_q, machine_q.now())
                .expect("verifies");
            let server_cpu_quote = wall.elapsed();

            // Amortized mode.
            let mut verifier_a = AmortizedVerifier::new(ca.public_key().clone(), key_bits, 85);
            let mut machine_a = Machine::new(MachineConfig::realistic(vendor, 86));
            let enrollment = ca.enroll(&mut machine_a);
            let mut client_a = AmortizedClient::new(enrollment);
            let setup_report = client_a
                .setup(&mut machine_a, &mut verifier_a)
                .expect("setup runs");
            let request =
                verifier_a.issue_request(tx.clone(), ConfirmMode::PressEnter, machine_a.now());
            let mut human = ConfirmingHuman::new(Intent::approving(&tx), 87);
            let (evidence_a, report_a) = client_a
                .confirm_with_report(&mut machine_a, &request, &mut human)
                .expect("amortized session runs");
            let wall = std::time::Instant::now();
            verifier_a
                .verify(&evidence_a, machine_a.now())
                .expect("verifies");
            let server_cpu_amortized = wall.elapsed();

            AmortizedRow {
                vendor,
                quote_mode: report_q.timings.machine_only(),
                amortized_mode: report_a.timings.machine_only(),
                setup_cost: setup_report.timings.machine_only(),
                server_cpu_quote,
                server_cpu_amortized,
            }
        })
        .collect()
}

/// Flattens the rows into their perf artifact pair. Session times ride
/// the virtual clock (canonical, exact); the two server-CPU columns
/// are real host measurements (host class).
pub fn artifacts(rows: &[AmortizedRow], config: &str) -> utp_obs::ArtifactPair {
    let mut pair = utp_obs::ArtifactPair::new("E8", config);
    for r in rows {
        let labels: &[(&str, &str)] = &[("vendor", r.vendor.name())];
        pair.canonical
            .push_u64("e8.quote_mode_ns", labels, r.quote_mode.as_nanos() as u64);
        pair.canonical.push_u64(
            "e8.amortized_mode_ns",
            labels,
            r.amortized_mode.as_nanos() as u64,
        );
        pair.canonical
            .push_u64("e8.setup_ns", labels, r.setup_cost.as_nanos() as u64);
        pair.canonical
            .push_u64("e8.break_even_tx", labels, r.break_even_transactions());
        pair.host.push_u64(
            "e8.server_cpu_quote_ns",
            labels,
            r.server_cpu_quote.as_nanos() as u64,
        );
        pair.host.push_u64(
            "e8.server_cpu_amortized_ns",
            labels,
            r.server_cpu_amortized.as_nanos() as u64,
        );
    }
    pair
}

/// Renders the E8 table.
pub fn render(rows: &[AmortizedRow]) -> String {
    table::render(
        "E8 - ablation: per-transaction quote vs amortized MAC (machine-only ms)",
        &[
            "chip",
            "quote-mode",
            "amortized",
            "setup(once)",
            "break-even(tx)",
            "srv-cpu quote(ms)",
            "srv-cpu mac(ms)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.vendor.name().to_string(),
                    table::ms(r.quote_mode),
                    table::ms(r.amortized_mode),
                    table::ms(r.setup_cost),
                    r.break_even_transactions().to_string(),
                    format!("{:.3}", r.server_cpu_quote.as_secs_f64() * 1e3),
                    format!("{:.3}", r.server_cpu_amortized.as_secs_f64() * 1e3),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn amortized_beats_quote_mode_on_every_vendor() {
        for r in run(512) {
            assert!(
                r.amortized_mode < r.quote_mode,
                "{:?}: amortized {:?} vs quote {:?}",
                r.vendor,
                r.amortized_mode,
                r.quote_mode
            );
        }
    }

    #[test]
    fn break_even_is_finite_and_small() {
        for r in run(512) {
            let be = r.break_even_transactions();
            assert!((1..100).contains(&be), "{:?}: break-even {}", r.vendor, be);
        }
    }

    #[test]
    fn gain_is_largest_where_quote_unseal_gap_is_largest() {
        // Broadcom: quote 972 vs unseal 647 — the biggest absolute gap, so
        // the biggest saving.
        let rows = run(512);
        let saving = |v: VendorProfile| {
            let r = rows.iter().find(|r| r.vendor == v).unwrap();
            r.quote_mode.saturating_sub(r.amortized_mode)
        };
        assert!(saving(VendorProfile::Broadcom) > saving(VendorProfile::Infineon));
    }
}
