//! Typed recovery: replay a snapshot plus a WAL into [`RecoveredState`].
//!
//! Replay is a pure function of bytes — no device, no clock — so the
//! crash-point sweep and the corruption fuzzers can drive it directly.
//! Its apply semantics mirror the live settlement path exactly (which
//! outcomes consume a nonce, which reject an order, which merely leave
//! an audit trail), so a recovered process is indistinguishable from
//! one that never crashed, up to the durable prefix.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use utp_core::protocol::{Transaction, TransactionRequest};
use utp_core::verifier::{PendingNonce, VerifyError};

use crate::record::{scan, JournalRecord, ScanEnd, NO_ORDER};
use crate::snapshot::decode_snapshot;

/// Recovered status of one order (mirrors the store's `OrderStatus`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveredStatus {
    /// Challenge issued, no decision journaled.
    Pending,
    /// A settle decision accepted the evidence; the account was debited.
    Confirmed,
    /// A terminal settle decision rejected the order.
    Rejected(VerifyError),
}

/// One recovered order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredOrder {
    /// Account the order debits.
    pub account: String,
    /// The transaction under confirmation.
    pub transaction: Transaction,
    /// Current status after replay.
    pub status: RecoveredStatus,
}

/// One recovered audit decision (mirrors the audit log's `AuditEntry`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredDecision {
    /// Virtual time of the decision.
    pub at: Duration,
    /// Order the decision concerned, if tracked.
    pub order_id: Option<u64>,
    /// The decision.
    pub outcome: Result<(), VerifyError>,
}

/// Everything the settlement path must remember across a crash,
/// rebuilt from the durable prefix. Deterministically ordered
/// (`BTreeMap`/`BTreeSet`) so snapshots and state summaries are
/// byte-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredState {
    /// Account balances in cents.
    pub accounts: BTreeMap<String, i64>,
    /// Orders by id.
    pub orders: BTreeMap<u64, RecoveredOrder>,
    /// Outstanding (issued, unsettled) nonces.
    pub pending: BTreeMap<[u8; 20], PendingNonce>,
    /// Consumed nonces — the replay-protection set.
    pub used: BTreeSet<[u8; 20]>,
    /// Full decision history, oldest first.
    pub audit: Vec<RecoveredDecision>,
    /// Next order id the store may hand out.
    pub next_order_id: u64,
    /// Highest transaction id seen (restart seeds its counter above it).
    pub max_tx_id: u64,
    /// Highest journal sequence number folded into this state.
    pub last_seq: u64,
}

impl RecoveredState {
    /// Applies one record. Records with `seq <= self.last_seq` are
    /// already folded in (snapshot overlap) and must be skipped by the
    /// caller.
    fn apply(&mut self, seq: u64, record: &JournalRecord) {
        self.last_seq = seq;
        match record {
            JournalRecord::OpenAccount {
                name,
                balance_cents,
            } => {
                self.accounts.insert(name.clone(), *balance_cents);
            }
            JournalRecord::CreateOrder {
                order_id,
                account,
                issued_at,
                request_bytes,
            } => {
                // The scanner validated the request bytes at decode time.
                let Ok(request) = TransactionRequest::from_bytes(request_bytes) else {
                    return;
                };
                self.next_order_id = self.next_order_id.max(order_id + 1);
                self.max_tx_id = self.max_tx_id.max(request.transaction.id);
                self.pending.insert(
                    *request.nonce.as_bytes(),
                    PendingNonce {
                        request_bytes: request_bytes.clone(),
                        transaction: request.transaction.clone(),
                        issued_at: *issued_at,
                    },
                );
                self.orders.insert(
                    *order_id,
                    RecoveredOrder {
                        account: account.clone(),
                        transaction: request.transaction,
                        status: RecoveredStatus::Pending,
                    },
                );
            }
            JournalRecord::Settle {
                order_id,
                nonce,
                at,
                outcome,
            } => {
                self.audit.push(RecoveredDecision {
                    at: *at,
                    order_id: (*order_id != NO_ORDER).then_some(*order_id),
                    outcome: *outcome,
                });
                // Nonce lifecycle, mirroring NonceLedger::settle and
                // Settler::settle_evidence: accepted and human-rejected
                // evidence consume the nonce; expiry drops the pending
                // entry; crypto failures leave it intact (retryable).
                match outcome {
                    Ok(()) | Err(VerifyError::NotConfirmed(_)) => {
                        self.pending.remove(nonce);
                        self.used.insert(*nonce);
                    }
                    Err(VerifyError::Expired) => {
                        self.pending.remove(nonce);
                    }
                    Err(_) => {}
                }
                // Order lifecycle, mirroring ServiceProvider::submit_evidence:
                // Ok settles (debit + confirm); terminal errors reject;
                // retryable errors leave the order pending.
                let Some(order) = self.orders.get_mut(order_id) else {
                    return;
                };
                match outcome {
                    Ok(()) => {
                        order.status = RecoveredStatus::Confirmed;
                        if let Some(balance) = self.accounts.get_mut(&order.account) {
                            *balance -= order.transaction.amount_cents as i64;
                        }
                    }
                    Err(
                        e @ (VerifyError::NotConfirmed(_)
                        | VerifyError::Replayed
                        | VerifyError::Expired
                        | VerifyError::UntrustedPal
                        | VerifyError::BadQuote
                        | VerifyError::TokenMismatch
                        | VerifyError::BadCertificate),
                    ) => {
                        // Confirmed is sticky, mirroring Store::reject: a
                        // settled order keeps its debit, so a later
                        // terminal error cannot demote it.
                        if order.status != RecoveredStatus::Confirmed {
                            order.status = RecoveredStatus::Rejected(*e);
                        }
                    }
                    Err(_) => {}
                }
            }
        }
    }
}

/// Why replay of the log ended (re-export of the scan verdict plus a
/// snapshot-side failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogEnd {
    /// The log ended at a frame boundary.
    Clean,
    /// The log ended mid-frame or corrupt; the suffix was discarded.
    Torn(ScanEnd),
}

/// Accounting for one recovery pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records folded into the state.
    pub records_applied: u64,
    /// Valid records skipped because the snapshot already covered them.
    pub records_skipped: u64,
    /// Settle decisions naming an order id the state had never seen.
    pub orphan_decisions: u64,
    /// How the log scan ended.
    pub log_end: LogEnd,
    /// Length of the valid log prefix in bytes (repair truncates here).
    pub valid_log_bytes: usize,
    /// Whether a snapshot seeded the state.
    pub snapshot_used: bool,
}

/// Replays `snapshot_bytes` (the snapshot device's durable contents;
/// empty slice for none) and `log_bytes` (the WAL device's durable
/// contents) into a [`RecoveredState`]. Pure, total, never panics: any
/// torn or corrupt suffix of either input is treated as a clean crash
/// at the last valid boundary.
pub fn replay_bytes(snapshot_bytes: &[u8], log_bytes: &[u8]) -> (RecoveredState, RecoveryReport) {
    let (mut state, snapshot_used) = match decode_snapshot(snapshot_bytes) {
        Some(s) => (s, true),
        None => (RecoveredState::default(), false),
    };
    let base_seq = state.last_seq;
    let scan = scan(log_bytes);
    let mut report = RecoveryReport {
        records_applied: 0,
        records_skipped: 0,
        orphan_decisions: 0,
        log_end: match scan.end {
            ScanEnd::Clean => LogEnd::Clean,
            other => LogEnd::Torn(other),
        },
        valid_log_bytes: scan.valid_len,
        snapshot_used,
    };
    for frame in &scan.frames {
        if frame.seq <= base_seq {
            report.records_skipped += 1;
            continue;
        }
        if let JournalRecord::Settle { order_id, .. } = &frame.record {
            if *order_id != NO_ORDER && !state.orders.contains_key(order_id) {
                report.orphan_decisions += 1;
            }
        }
        state.apply(frame.seq, &frame.record);
        report.records_applied += 1;
    }
    (state, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_frame;
    use utp_core::protocol::ConfirmMode;
    use utp_crypto::sha1::Sha1Digest;

    fn request(tx_id: u64, nonce_byte: u8, amount: u64) -> TransactionRequest {
        TransactionRequest {
            transaction: Transaction::new(tx_id, "shop", amount, "EUR", "m"),
            nonce: Sha1Digest([nonce_byte; 20]),
            mode: ConfirmMode::PressEnter,
        }
    }

    fn log_of(records: &[JournalRecord]) -> Vec<u8> {
        let mut log = Vec::new();
        for (i, r) in records.iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64 + 1, r));
        }
        log
    }

    fn sample_log() -> Vec<u8> {
        let req1 = request(1, 0x11, 500);
        let req2 = request(2, 0x22, 250);
        log_of(&[
            JournalRecord::OpenAccount {
                name: "alice".into(),
                balance_cents: 1_000,
            },
            JournalRecord::CreateOrder {
                order_id: 1,
                account: "alice".into(),
                issued_at: Duration::from_secs(1),
                request_bytes: req1.to_bytes(),
            },
            JournalRecord::CreateOrder {
                order_id: 2,
                account: "alice".into(),
                issued_at: Duration::from_secs(2),
                request_bytes: req2.to_bytes(),
            },
            JournalRecord::Settle {
                order_id: 1,
                nonce: [0x11; 20],
                at: Duration::from_secs(3),
                outcome: Ok(()),
            },
            JournalRecord::Settle {
                order_id: 2,
                nonce: [0x22; 20],
                at: Duration::from_secs(4),
                outcome: Err(VerifyError::Replayed),
            },
        ])
    }

    #[test]
    fn full_replay_rebuilds_balances_orders_and_ledger() {
        let (state, report) = replay_bytes(&[], &sample_log());
        assert_eq!(report.records_applied, 5);
        assert_eq!(report.log_end, LogEnd::Clean);
        assert!(!report.snapshot_used);
        assert_eq!(state.accounts["alice"], 500);
        assert_eq!(state.orders[&1].status, RecoveredStatus::Confirmed);
        assert_eq!(
            state.orders[&2].status,
            RecoveredStatus::Rejected(VerifyError::Replayed)
        );
        assert!(state.used.contains(&[0x11; 20]));
        // Replayed is a crypto-side failure: nonce 0x22 stays pending.
        assert!(state.pending.contains_key(&[0x22; 20]));
        assert_eq!(state.next_order_id, 3);
        assert_eq!(state.max_tx_id, 2);
        assert_eq!(state.audit.len(), 2);
        assert_eq!(state.last_seq, 5);
    }

    #[test]
    fn torn_suffix_is_a_clean_crash_at_the_last_boundary() {
        let log = sample_log();
        let boundaries = crate::record::frame_boundaries(&log);
        // Cut mid-way through the Ok settle frame.
        let cut = boundaries[4] - 3;
        let (state, report) = replay_bytes(&[], &log[..cut]);
        assert_eq!(report.records_applied, 3);
        assert!(matches!(report.log_end, LogEnd::Torn(_)));
        assert_eq!(report.valid_log_bytes, boundaries[3]);
        // The settle never happened: order pending, balance untouched.
        assert_eq!(state.orders[&1].status, RecoveredStatus::Pending);
        assert_eq!(state.accounts["alice"], 1_000);
        assert!(state.pending.contains_key(&[0x11; 20]));
        assert!(state.used.is_empty());
    }

    #[test]
    fn expired_drops_pending_without_consuming() {
        let req = request(1, 0x33, 100);
        let log = log_of(&[
            JournalRecord::CreateOrder {
                order_id: 1,
                account: "bob".into(),
                issued_at: Duration::from_secs(1),
                request_bytes: req.to_bytes(),
            },
            JournalRecord::Settle {
                order_id: 1,
                nonce: [0x33; 20],
                at: Duration::from_secs(400),
                outcome: Err(VerifyError::Expired),
            },
        ]);
        let (state, _) = replay_bytes(&[], &log);
        assert!(state.pending.is_empty());
        assert!(state.used.is_empty());
        assert_eq!(
            state.orders[&1].status,
            RecoveredStatus::Rejected(VerifyError::Expired)
        );
    }

    #[test]
    fn orphan_settles_are_counted_and_audited() {
        let log = log_of(&[JournalRecord::Settle {
            order_id: 42,
            nonce: [9; 20],
            at: Duration::from_secs(1),
            outcome: Ok(()),
        }]);
        let (state, report) = replay_bytes(&[], &log);
        assert_eq!(report.orphan_decisions, 1);
        assert_eq!(state.audit.len(), 1);
        assert!(state.orders.is_empty());
        // The nonce is still marked used — replay protection survives
        // even when the order record is gone.
        assert!(state.used.contains(&[9; 20]));
    }

    #[test]
    fn untracked_settle_has_no_order_in_audit() {
        let log = log_of(&[JournalRecord::Settle {
            order_id: NO_ORDER,
            nonce: [1; 20],
            at: Duration::from_secs(1),
            outcome: Err(VerifyError::UnknownNonce),
        }]);
        let (state, report) = replay_bytes(&[], &log);
        assert_eq!(report.orphan_decisions, 0);
        assert_eq!(state.audit[0].order_id, None);
        assert!(state.used.is_empty());
    }

    #[test]
    fn retryable_outcomes_leave_order_pending() {
        let req = request(1, 0x44, 100);
        for err in [
            VerifyError::MalformedEvidence,
            VerifyError::ServiceUnavailable,
        ] {
            let log = log_of(&[
                JournalRecord::CreateOrder {
                    order_id: 1,
                    account: "bob".into(),
                    issued_at: Duration::from_secs(1),
                    request_bytes: req.to_bytes(),
                },
                JournalRecord::Settle {
                    order_id: 1,
                    nonce: [0x44; 20],
                    at: Duration::from_secs(2),
                    outcome: Err(err),
                },
            ]);
            let (state, _) = replay_bytes(&[], &log);
            assert_eq!(state.orders[&1].status, RecoveredStatus::Pending, "{err:?}");
            assert!(state.pending.contains_key(&[0x44; 20]), "{err:?}");
        }
    }
}
