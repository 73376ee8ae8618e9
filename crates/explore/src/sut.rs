//! The system under test: the real provider stack, settling through the
//! provider's one sharded [`utp_server::service::Settlement`] core — the
//! same core a worker pool runs — behind one interface, plus the
//! canonical observable-state projection the oracle and the fingerprint
//! dedup work on.

use std::sync::Arc;
use std::time::Duration;

use utp_core::protocol::Evidence;
use utp_core::verifier::{VerifierConfig, VerifyError};
use utp_crypto::rsa::RsaPublicKey;
use utp_crypto::sha256::{Sha256, Sha256Digest};
use utp_journal::{
    frame_boundaries, replay_bytes, Journal, JournalConfig, RecoveredState, RecoveredStatus,
    RecoveryReport,
};
use utp_server::provider::ServiceProvider;
use utp_server::store::OrderStatus;

use crate::action::{Action, CrashKind};
use crate::scenario::Scenario;

/// RNG stream id handed to recovered providers. Exploration never
/// issues new challenges after recovery, so the value only has to be
/// fixed, not fresh.
const RECOVERY_RNG_STREAM: u64 = 0x7EC0;

/// One order as the oracle sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderView {
    /// Provider order id.
    pub id: u64,
    /// Account the order debits.
    pub account: String,
    /// Amount in cents.
    pub amount_cents: u64,
    /// Digest of the order's transaction.
    pub tx_digest: [u8; 20],
    /// Status label (`Pending`, `Confirmed`, `Rejected(<err>)`).
    pub status: String,
}

/// One audit decision as the oracle sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditView {
    /// Virtual time of the decision.
    pub at: Duration,
    /// Order the decision concerned.
    pub order_id: u64,
    /// Outcome label (`ok` or the `VerifyError` debug form).
    pub outcome: String,
}

/// Canonical observable state of a system under test: everything the
/// paper's server-side guarantees quantify over, in deterministic
/// order, plus the raw durable bytes so recovery consistency can be
/// checked by pure replay, and the settlement core's `accepted` total
/// for the oracle's counter check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateView {
    /// `(account, balance_cents)`, sorted by account name.
    pub accounts: Vec<(String, i64)>,
    /// Orders sorted by id.
    pub orders: Vec<OrderView>,
    /// Outstanding challenge nonces, sorted.
    pub pending: Vec<[u8; 20]>,
    /// Consumed nonces (the replay-protection set), sorted.
    pub used: Vec<[u8; 20]>,
    /// Audit history, oldest first.
    pub audit: Vec<AuditView>,
    /// Durable snapshot-device bytes.
    pub durable_snapshot: Vec<u8>,
    /// Durable WAL bytes.
    pub durable_log: Vec<u8>,
    /// Evidence the settlement core accepted, summed over its shards
    /// (`Settler::counters`). Recovery starts it again at 0, and it is
    /// not state the guarantees quantify over, so neither
    /// [`StateView::canonical_bytes`] nor [`StateView::semantic_diff`]
    /// reads it.
    pub accepted: u64,
}

impl StateView {
    /// Deterministic byte serialization for fingerprinting.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let push_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u64).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&(self.accounts.len() as u64).to_le_bytes());
        for (name, balance) in &self.accounts {
            push_str(&mut out, name);
            out.extend_from_slice(&balance.to_le_bytes());
        }
        out.extend_from_slice(&(self.orders.len() as u64).to_le_bytes());
        for o in &self.orders {
            out.extend_from_slice(&o.id.to_le_bytes());
            push_str(&mut out, &o.account);
            out.extend_from_slice(&o.amount_cents.to_le_bytes());
            out.extend_from_slice(&o.tx_digest);
            push_str(&mut out, &o.status);
        }
        for set in [&self.pending, &self.used] {
            out.extend_from_slice(&(set.len() as u64).to_le_bytes());
            for nonce in set {
                out.extend_from_slice(nonce);
            }
        }
        out.extend_from_slice(&(self.audit.len() as u64).to_le_bytes());
        for a in &self.audit {
            out.extend_from_slice(&a.at.as_nanos().to_le_bytes());
            out.extend_from_slice(&a.order_id.to_le_bytes());
            push_str(&mut out, &a.outcome);
        }
        out.extend_from_slice(&(self.durable_snapshot.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.durable_snapshot);
        out.extend_from_slice(&(self.durable_log.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.durable_log);
        out
    }

    /// What a crash-recovery at this instant would rebuild: the pure
    /// replay of this view's own durable bytes, projected into the same
    /// shape (durable byte fields left empty). The oracle compares this
    /// against the live view — recovery must neither invent nor forget
    /// history relative to the WAL.
    pub fn replay_durable(&self) -> StateView {
        let (state, _report) = replay_bytes(&self.durable_snapshot, &self.durable_log);
        view_of_recovered(&state)
    }

    /// First differing semantic field (accounts, orders, nonce sets,
    /// audit — durable bytes excluded, so views from before and after a
    /// WAL repair compare), as a stable label.
    pub fn semantic_diff(&self, other: &StateView) -> Option<&'static str> {
        if self.accounts != other.accounts {
            return Some("accounts");
        }
        if self.orders != other.orders {
            return Some("orders");
        }
        if self.pending != other.pending {
            return Some("pending");
        }
        if self.used != other.used {
            return Some("used");
        }
        if self.audit != other.audit {
            return Some("audit");
        }
        None
    }
}

/// SHA-256 state fingerprint over the virtual clock and the canonical
/// view bytes; equal fingerprints identify interleavings the explorer
/// prunes as equivalent.
pub fn fingerprint(now: Duration, view: &StateView) -> Sha256Digest {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&now.as_nanos().to_le_bytes());
    bytes.extend_from_slice(&view.canonical_bytes());
    Sha256::digest(&bytes)
}

/// Renders an order status exactly the way both live and recovered
/// projections must agree on.
fn status_label(status: &OrderStatus) -> String {
    match status {
        OrderStatus::Pending => "Pending".to_string(),
        OrderStatus::Confirmed => "Confirmed".to_string(),
        OrderStatus::Rejected(e) => format!("Rejected({e:?})"),
    }
}

fn recovered_status_label(status: &RecoveredStatus) -> String {
    match status {
        RecoveredStatus::Pending => "Pending".to_string(),
        RecoveredStatus::Confirmed => "Confirmed".to_string(),
        RecoveredStatus::Rejected(e) => format!("Rejected({e:?})"),
    }
}

fn outcome_label(outcome: &Result<(), VerifyError>) -> String {
    match outcome {
        Ok(()) => "ok".to_string(),
        Err(e) => format!("{e:?}"),
    }
}

/// Projects a recovered state into the canonical view shape (durable
/// byte fields empty).
pub fn view_of_recovered(state: &RecoveredState) -> StateView {
    let accounts = state
        .accounts
        .iter()
        .map(|(name, balance)| (name.clone(), *balance))
        .collect();
    let orders = state
        .orders
        .iter()
        .map(|(id, o)| OrderView {
            id: *id,
            account: o.account.clone(),
            amount_cents: o.transaction.amount_cents,
            tx_digest: *o.transaction.digest().as_bytes(),
            status: recovered_status_label(&o.status),
        })
        .collect();
    let pending = state.pending.keys().copied().collect();
    let used = state.used.iter().copied().collect();
    let audit = state
        .audit
        .iter()
        .map(|d| AuditView {
            at: d.at,
            order_id: d.order_id.unwrap_or(utp_journal::NO_ORDER),
            outcome: outcome_label(&d.outcome),
        })
        .collect();
    StateView {
        accounts,
        orders,
        pending,
        used,
        audit,
        durable_snapshot: Vec::new(),
        durable_log: Vec::new(),
        accepted: 0,
    }
}

/// The interface the explorer, the oracle self-check shims, and the
/// schedule replayer drive. Implementations must be deterministic:
/// identical call sequences produce identical views.
pub trait System {
    /// Delivers evidence against an order at virtual time `now`.
    fn submit(
        &mut self,
        order_id: u64,
        evidence: &Evidence,
        now: Duration,
    ) -> Result<(), VerifyError>;
    /// Crashes the durable substrate per `kind` and recovers.
    fn crash_recover(&mut self, kind: &CrashKind) -> RecoveryReport;
    /// Provider checkpoint (snapshot + WAL truncation); in the
    /// adversary model this also refreshes the rollback image.
    fn checkpoint(&mut self);
    /// The canonical observable state.
    fn view(&self) -> StateView;
}

/// Systems that support state forking — the explorer's branch
/// primitive. Exploration forks the provider inline, with its sharded
/// settlement core; worker threads are not forked.
pub trait Fork: System + Sized {
    /// Deep, independent copy of the system.
    fn fork(&self) -> Self;
}

/// Durable image the adversary can roll the substrate back to.
#[derive(Debug, Clone)]
pub struct DurableImage {
    /// Snapshot-device bytes.
    pub snapshot: Vec<u8>,
    /// WAL-device bytes.
    pub log: Vec<u8>,
}

/// The real stack: `ServiceProvider` + journal, settling inline through
/// its sharded settlement core.
#[derive(Debug)]
pub struct RealSystem {
    pub(crate) provider: ServiceProvider,
    ca_key: RsaPublicKey,
    verifier_config: VerifierConfig,
    journal_config: JournalConfig,
    rollback: DurableImage,
}

impl RealSystem {
    /// Wraps a journaled provider; the current durable bytes become the
    /// adversary's initial rollback image.
    pub fn new(
        provider: ServiceProvider,
        ca_key: RsaPublicKey,
        verifier_config: VerifierConfig,
        journal_config: JournalConfig,
    ) -> Self {
        let rollback = match provider.journal() {
            Some(j) => DurableImage {
                snapshot: j.durable_snapshot_bytes(),
                log: j.durable_log_bytes(),
            },
            None => DurableImage {
                snapshot: Vec::new(),
                log: Vec::new(),
            },
        };
        RealSystem {
            provider,
            ca_key,
            verifier_config,
            journal_config,
            rollback,
        }
    }

    /// The wrapped provider (tests and shims).
    pub fn provider(&self) -> &ServiceProvider {
        &self.provider
    }

    /// Mutable provider access (buggy-shim injection only).
    pub fn provider_mut(&mut self) -> &mut ServiceProvider {
        &mut self.provider
    }

    /// Rebuilds the provider from the given durable image.
    fn recover_from(&mut self, snapshot: &[u8], log: &[u8]) -> RecoveryReport {
        let journal = Arc::new(Journal::with_durable(
            self.journal_config.clone(),
            snapshot,
            log,
        ));
        let (provider, report) = ServiceProvider::recover(
            self.ca_key.clone(),
            self.verifier_config.clone(),
            RECOVERY_RNG_STREAM,
            journal,
        );
        self.provider = provider;
        report
    }
}

impl System for RealSystem {
    fn submit(
        &mut self,
        order_id: u64,
        evidence: &Evidence,
        now: Duration,
    ) -> Result<(), VerifyError> {
        self.provider
            .submit_evidence(order_id, evidence, now)
            .map(|_receipt| ())
    }

    fn crash_recover(&mut self, kind: &CrashKind) -> RecoveryReport {
        match kind {
            CrashKind::PowerLoss => {
                let journal = self
                    .provider
                    .journal()
                    .map(Arc::clone)
                    .unwrap_or_else(|| Arc::new(Journal::new(self.journal_config.clone())));
                journal.crash();
                let (provider, report) = ServiceProvider::recover(
                    self.ca_key.clone(),
                    self.verifier_config.clone(),
                    RECOVERY_RNG_STREAM,
                    journal,
                );
                self.provider = provider;
                report
            }
            // Truncation and torn tails model incomplete writes of the
            // *current run's* WAL tail, so the cut is clamped at the
            // durable base (the last checkpoint / prologue image, which
            // is always a prefix of the current log). Eroding history
            // below the base is not a crash — that is the storage-
            // rollback adversary (`CrashKind::Rollback`), which restores
            // a consistent image; destroying the media wholesale is out
            // of scope (a provider with no disk has no state to keep
            // invariant). The first exploration runs found exactly this:
            // unclamped, three stacked truncations ate the prologue's
            // `OpenAccount` record and "violated" balance conservation
            // by deleting the account.
            CrashKind::Truncate { drop_frames } => {
                let (snapshot, log) = self.durable_bytes();
                let floor = self.rollback.log.len().min(log.len());
                let boundaries = frame_boundaries(&log);
                let idx = boundaries.len().saturating_sub(1 + drop_frames);
                let cut = boundaries.get(idx).copied().unwrap_or(0).max(floor);
                self.recover_from(&snapshot.clone(), &log[..cut])
            }
            CrashKind::TornTail { bytes } => {
                let (snapshot, log) = self.durable_bytes();
                let floor = self.rollback.log.len().min(log.len());
                let cut = log.len().saturating_sub(*bytes).max(floor);
                self.recover_from(&snapshot.clone(), &log[..cut])
            }
            CrashKind::Rollback => {
                let image = self.rollback.clone();
                self.recover_from(&image.snapshot, &image.log)
            }
        }
    }

    fn checkpoint(&mut self) {
        self.provider.checkpoint();
        if let Some(j) = self.provider.journal() {
            self.rollback = DurableImage {
                snapshot: j.durable_snapshot_bytes(),
                log: j.durable_log_bytes(),
            };
        }
    }

    fn view(&self) -> StateView {
        let mut accounts: Vec<(String, i64)> = self
            .provider
            .store()
            .accounts()
            .map(|(name, a)| (name.clone(), a.balance_cents))
            .collect();
        accounts.sort();
        let mut orders: Vec<OrderView> = self
            .provider
            .store()
            .orders()
            .map(|(id, o)| OrderView {
                id: *id,
                account: o.account.clone(),
                amount_cents: o.transaction.amount_cents,
                tx_digest: *o.transaction.digest().as_bytes(),
                status: status_label(&o.status),
            })
            .collect();
        orders.sort_by_key(|o| o.id);
        let settler = self.provider.settlement().settler();
        let (pending, used) = settler.ledger_export();
        let pending = pending.into_iter().map(|(nonce, _)| nonce).collect();
        let audit = self
            .provider
            .audit()
            .entries()
            .map(|e| AuditView {
                at: e.at,
                order_id: e.order_id,
                outcome: outcome_label(&e.outcome),
            })
            .collect();
        let (durable_snapshot, durable_log) = self.durable_bytes();
        StateView {
            accounts,
            orders,
            pending,
            used,
            audit,
            durable_snapshot,
            durable_log,
            accepted: settler.counters().iter().map(|c| c.accepted).sum(),
        }
    }
}

impl RealSystem {
    fn durable_bytes(&self) -> (Vec<u8>, Vec<u8>) {
        match self.provider.journal() {
            Some(j) => (j.durable_snapshot_bytes(), j.durable_log_bytes()),
            None => (Vec::new(), Vec::new()),
        }
    }
}

impl Fork for RealSystem {
    fn fork(&self) -> Self {
        RealSystem {
            provider: self.provider.fork(),
            ca_key: self.ca_key.clone(),
            verifier_config: self.verifier_config.clone(),
            journal_config: self.journal_config.clone(),
            rollback: self.rollback.clone(),
        }
    }
}

/// Applies one action to a system, returning a deterministic result
/// label for replay traces. Inapplicable actions are no-ops labelled
/// `noop`.
pub fn apply_action<S: System>(
    sut: &mut S,
    scenario: &Scenario,
    now: &mut Duration,
    action: &Action,
) -> String {
    match action {
        Action::Deliver { order, kind } => match scenario.kit(*order, *kind) {
            Some(evidence) => {
                let order_id = scenario.orders[*order].order_id;
                match sut.submit(order_id, evidence, *now) {
                    Ok(()) => "ok".to_string(),
                    Err(e) => format!("err {e:?}"),
                }
            }
            None => "noop".to_string(),
        },
        Action::CrossDeliver {
            evidence_from,
            to_order,
        } => {
            let kit = scenario.kit(*evidence_from, crate::action::EvidenceKind::Genuine);
            match (kit, scenario.orders.get(*to_order)) {
                (Some(evidence), Some(target)) if evidence_from != to_order => {
                    match sut.submit(target.order_id, evidence, *now) {
                        Ok(()) => "ok".to_string(),
                        Err(e) => format!("err {e:?}"),
                    }
                }
                _ => "noop".to_string(),
            }
        }
        Action::Drop { .. } => "noop".to_string(),
        Action::AdvanceClock { millis } => {
            *now += Duration::from_millis(*millis);
            "done".to_string()
        }
        Action::Crash(kind) => {
            let report = sut.crash_recover(kind);
            format!(
                "recovered applied={} orphans={} snapshot={}",
                report.records_applied, report.orphan_decisions, report.snapshot_used
            )
        }
        Action::Checkpoint => {
            sut.checkpoint();
            "done".to_string()
        }
    }
}
