//! E9 (ablation) — batch confirmation: per-transaction machine cost vs
//! batch size. The session's fixed costs (suspend, SKINIT, quote, resume)
//! amortize as `fixed/k`, so the curve should fall hyperbolically and
//! flatten at the per-transaction floor.
//!
//! Regenerate: `cargo run -p utp-bench --bin e9_batching`

use crate::table;
use std::time::Duration;
use utp_core::batch::{BatchClient, BatchVerifier};
use utp_core::ca::PrivacyCa;
use utp_core::protocol::Transaction;
use utp_flicker::pal::{Operator, OperatorResponse};
use utp_platform::keyboard::KeyEvent;
use utp_platform::machine::{Machine, MachineConfig};
use utp_tpm::VendorProfile;

/// One batch-size measurement.
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Transactions per session.
    pub batch_size: usize,
    /// Machine-only session time.
    pub session_machine_only: Duration,
    /// Machine-only time per transaction.
    pub per_transaction: Duration,
    /// Human time per transaction.
    pub human_per_transaction: Duration,
    /// All transactions settled?
    pub all_confirmed: bool,
}

/// An operator approving everything with a fixed 2 s read-and-press time.
struct ApproveAll;
impl Operator for ApproveAll {
    fn respond(&mut self, _screen: &[String]) -> OperatorResponse {
        OperatorResponse {
            events: vec![KeyEvent::Enter],
            elapsed: Duration::from_secs(2),
        }
    }
}

/// Runs the batch-size sweep on an Infineon-profile machine.
pub fn run(key_bits: usize) -> Vec<BatchRow> {
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&k| {
            let ca = PrivacyCa::new(key_bits, 91);
            let mut verifier = BatchVerifier::new(ca.public_key().clone());
            let mut machine = Machine::new(MachineConfig::realistic(VendorProfile::Infineon, 92));
            let enrollment = ca.enroll(&mut machine);
            let mut client = BatchClient::new(enrollment);
            let transactions: Vec<Transaction> = (0..k)
                .map(|i| Transaction::new(i as u64, format!("shop-{}.example", i), 100, "EUR", ""))
                .collect();
            let request = verifier.issue_batch(transactions, machine.now());
            let mut op = ApproveAll;
            let (evidence, report) = client
                .confirm_batch(&mut machine, &request, &mut op)
                .expect("batch session runs");
            let confirmed = verifier
                .verify(&evidence, machine.now())
                .expect("batch verifies");
            let machine_only = report.timings.machine_only();
            BatchRow {
                batch_size: k,
                session_machine_only: machine_only,
                per_transaction: machine_only / k as u32,
                human_per_transaction: report.timings.human / k as u32,
                all_confirmed: confirmed.len() == k,
            }
        })
        .collect()
}

/// Renders the E9 table.
pub fn render(rows: &[BatchRow]) -> String {
    table::render(
        "E9 - ablation: batch confirmation, per-transaction machine cost (Infineon, ms)",
        &[
            "batch",
            "session machine-only",
            "per-tx machine",
            "per-tx human",
            "all confirmed",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.batch_size.to_string(),
                    table::ms(r.session_machine_only),
                    table::ms(r.per_transaction),
                    table::ms(r.human_per_transaction),
                    r.all_confirmed.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_transaction_cost_falls_with_batch_size() {
        let rows = run(512);
        for pair in rows.windows(2) {
            assert!(
                pair[1].per_transaction < pair[0].per_transaction,
                "batch {} → {} did not reduce per-tx cost",
                pair[0].batch_size,
                pair[1].batch_size
            );
        }
    }

    #[test]
    fn everything_confirms_at_every_size() {
        for r in run(512) {
            assert!(r.all_confirmed, "batch {}", r.batch_size);
        }
    }

    #[test]
    fn amortization_approaches_a_floor() {
        let rows = run(512);
        let k1 = rows.first().unwrap().per_transaction;
        let k16 = rows.last().unwrap().per_transaction;
        // Large batches should cut per-tx machine cost by at least 4x...
        assert!(k16 * 4 < k1, "k1 {:?} k16 {:?}", k1, k16);
        // ...but the human time per transaction stays roughly flat.
        let h1 = rows.first().unwrap().human_per_transaction;
        let h16 = rows.last().unwrap().human_per_transaction;
        assert!(h16 > h1 / 2 && h16 < h1 * 2);
    }
}
