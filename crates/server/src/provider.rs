//! The service-provider facade.
//!
//! A [`ServiceProvider`] owns the store, the audit log and one
//! [`Settlement`] from construction. It issues challenges from its own
//! seeded [`NonceStream`], registers each with the settlement, and
//! settles evidence inline through [`Settlement::verify_settling`] (a
//! batch of one). With [`ServiceProvider::attach_service`] the same
//! settlement is handed to a [`VerifierService`] worker pool and
//! evidence settles on its workers instead, so a provider has exactly
//! one nonce ledger whether or not a pool is attached. Either way the verdict comes from `utp-core`'s one
//! settlement core, the same one a serial `Verifier` runs.

use crate::audit::AuditLog;
use crate::metrics::ServiceStats;
use crate::service::{ServiceConfig, Settlement, VerifierService};
use crate::store::{Order, OrderStatus, Store};
use std::sync::Arc;
use std::time::Duration;
use utp_core::protocol::{ConfirmMode, Evidence, Transaction, TransactionRequest};
use utp_core::verifier::{NonceStream, VerifierConfig, VerifyError};
use utp_crypto::rsa::RsaPublicKey;
use utp_journal::{
    Journal, JournalRecord, RecoveredState, RecoveredStatus, RecoveryReport, NO_ORDER,
};

/// Settlement shards of every provider's core, fixed at construction:
/// a provider settles on the same geometry inline and on workers. Eight
/// rather than four so that the explorer's E12 scenario (seed 7, two
/// orders) puts its two nonces on different shards (7 and 3; with four
/// shards both land on shard 3) and its model check crosses shards.
const SETTLEMENT_SHARDS: usize = 8;

/// A settled-transaction receipt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Receipt {
    /// The order this receipt settles.
    pub order_id: u64,
    /// Transaction as confirmed.
    pub transaction: Transaction,
    /// Code attempts the human needed.
    pub attempts: u32,
}

/// An e-commerce provider accepting trusted-path confirmations. See the
/// module docs.
#[derive(Debug)]
pub struct ServiceProvider {
    default_mode: ConfirmMode,
    /// Nonce stream for issued challenges.
    nonces: NonceStream,
    settlement: Arc<Settlement>,
    service: Option<VerifierService>,
    store: Store,
    audit: AuditLog,
    tx_counter: u64,
}

impl ServiceProvider {
    /// Creates a provider pinning the given privacy-CA key.
    pub fn new(ca_key: RsaPublicKey, seed: u64) -> Self {
        Self::with_config(ca_key, VerifierConfig::default(), seed)
    }

    /// Creates a provider with explicit verifier policy.
    pub fn with_config(ca_key: RsaPublicKey, config: VerifierConfig, seed: u64) -> Self {
        let sizing = ServiceConfig::from_verifier_config(&config, 1, SETTLEMENT_SHARDS);
        ServiceProvider {
            settlement: Arc::new(Settlement::new(ca_key, &sizing)),
            nonces: NonceStream::new(seed),
            default_mode: config.default_mode,
            service: None,
            store: Store::new(),
            audit: AuditLog::new(),
            tx_counter: 0,
        }
    }

    /// Makes the settlement path durable: account openings, order
    /// creation and every settle decision are written ahead of their
    /// effects (WAL-before-ack), and the audit log switches to durable
    /// mode. A provider keeps the first journal it is given; later calls
    /// change nothing.
    pub fn attach_journal(&mut self, journal: Arc<Journal>) {
        if self.settlement.attach_journal(Arc::clone(&journal)) {
            self.audit.attach_journal(journal);
        }
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.settlement.journal()
    }

    /// Recovers a provider from a journal after a crash: replays
    /// snapshot + WAL, rebuilds the store (accounts, orders, balances),
    /// the audit history, and the settlement's nonce ledger (pending and
    /// consumed nonces), and re-seeds the transaction-id counter. The
    /// journal's torn suffix, if any, is repaired in place.
    pub fn recover(
        ca_key: RsaPublicKey,
        config: VerifierConfig,
        seed: u64,
        journal: Arc<Journal>,
    ) -> (Self, RecoveryReport) {
        let (state, report, _read_cost) = journal.replay();
        let mut provider = Self::with_config(ca_key, config, seed);
        for (name, balance) in &state.accounts {
            provider.store.open_account(name.clone(), *balance);
        }
        for (id, order) in &state.orders {
            provider.store.restore_order(
                *id,
                Order {
                    transaction: order.transaction.clone(),
                    account: order.account.clone(),
                    status: match &order.status {
                        RecoveredStatus::Pending => OrderStatus::Pending,
                        RecoveredStatus::Confirmed => OrderStatus::Confirmed,
                        RecoveredStatus::Rejected(e) => OrderStatus::Rejected(*e),
                    },
                },
            );
        }
        for (nonce, pending) in &state.pending {
            provider
                .settlement
                .settler()
                .restore_pending(*nonce, pending.clone());
        }
        for nonce in &state.used {
            provider.settlement.settler().restore_used(*nonce);
        }
        for d in &state.audit {
            provider
                .audit
                .restore(d.at, d.order_id.unwrap_or(NO_ORDER), d.outcome);
        }
        provider.tx_counter = state.max_tx_id;
        provider.attach_journal(journal);
        (provider, report)
    }

    /// Snapshots the journaled state and truncates the WAL. The snapshot
    /// is derived by replaying the journal itself (after a sync), so it
    /// is exactly the state a crash-recovery at this instant would
    /// produce — no drift between live structures and the snapshot is
    /// possible. No-op returning `None` when no journal is attached.
    pub fn checkpoint(&mut self) -> Option<RecoveredState> {
        let journal = self.journal()?;
        journal.sync();
        let (state, _report, _cost) = journal.replay();
        journal.install_snapshot(&state);
        Some(state)
    }

    /// Deep copy of the provider for state-space branching: the store,
    /// the audit history, the nonce stream and the settlement (ledgers,
    /// cache, counters and the journal's media *and* unflushed
    /// caches) are all copied, so the fork and the original evolve
    /// independently. An attached worker pool is not copied: the fork
    /// settles inline, on its copy of the same ledger.
    pub fn fork(&self) -> Self {
        let settlement = self.settlement.fork();
        let mut audit = self.audit.clone();
        if let Some(j) = settlement.journal() {
            // Point the cloned audit log at the forked journal, not the
            // original: durable paging must read the fork's timeline.
            audit.attach_journal(Arc::clone(j));
        }
        ServiceProvider {
            default_mode: self.default_mode,
            nonces: self.nonces.clone(),
            settlement: Arc::new(settlement),
            service: None,
            store: self.store.clone(),
            audit,
            tx_counter: self.tx_counter,
        }
    }

    /// Starts a [`VerifierService`] pool of `threads` workers around this
    /// provider's settlement and routes all subsequent evidence
    /// submissions through it. A pool already attached is shut down
    /// first.
    pub fn attach_service(&mut self, threads: usize) {
        self.detach_service();
        let pool = ServiceConfig::new(threads, SETTLEMENT_SHARDS);
        self.service = Some(VerifierService::serve(Arc::clone(&self.settlement), pool));
    }

    /// Shuts down an attached service (draining in-flight jobs) and
    /// returns its final counters; `None` if none was attached. Evidence
    /// settles inline again, on the same ledger.
    pub fn detach_service(&mut self) -> Option<ServiceStats> {
        self.service.take().map(VerifierService::shutdown)
    }

    /// The settlement (nonce ledgers, certificate cache, counters).
    pub fn settlement(&self) -> &Settlement {
        &self.settlement
    }

    /// The underlying store (accounts, orders).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Mutable store access (account provisioning).
    ///
    /// Prefer [`ServiceProvider::open_account`] when a journal is
    /// attached: direct store mutation is not journaled and will not
    /// survive a crash.
    pub fn store_mut(&mut self) -> &mut Store {
        &mut self.store
    }

    /// Opens an account durably: the opening is journaled (and flushed)
    /// before the store mutation becomes visible.
    pub fn open_account(&mut self, name: &str, balance_cents: i64) {
        if let Some(journal) = self.settlement.journal() {
            journal.append_record(&JournalRecord::OpenAccount {
                name: name.to_string(),
                balance_cents,
            });
            journal.sync();
        }
        self.store.open_account(name, balance_cents);
    }

    /// The audit log of verification decisions.
    pub fn audit(&self) -> &AuditLog {
        &self.audit
    }

    /// Places an order: creates the transaction and issues the
    /// confirmation challenge. Returns `(order_id, request)` — the request
    /// travels to the client.
    pub fn place_order(
        &mut self,
        account: &str,
        payee: &str,
        amount_cents: u64,
        currency: &str,
        memo: &str,
        now: Duration,
    ) -> (u64, TransactionRequest) {
        self.tx_counter += 1;
        let tx = Transaction::new(self.tx_counter, payee, amount_cents, currency, memo);
        let order_id = self.store.create_order(account, tx.clone());
        let request = self.nonces.request(tx, self.default_mode);
        if let Some(journal) = self.settlement.journal() {
            // WAL-before-challenge: the order/nonce binding must be
            // durable before the request leaves the provider, or a crash
            // would orphan the evidence the client sends back.
            journal.append_record(&JournalRecord::CreateOrder {
                order_id,
                account: account.to_string(),
                issued_at: now,
                request_bytes: request.to_bytes(),
            });
            journal.sync();
        }
        self.settlement.settler().register(&request, now);
        (order_id, request)
    }

    /// Binds the evidence to *this* order before dispatch: the token
    /// carries the digest of the transaction the human saw, and it must
    /// be the transaction this order would settle. Without this check,
    /// evidence confirming order A delivered against order B would debit
    /// B's amount on A's approval — a settle without a matching
    /// human-confirmed quote. Unparseable tokens pass through: the
    /// settlement rejects them with the precise crypto error.
    fn check_order_binding(&self, order_id: u64, evidence: &Evidence) -> Result<(), VerifyError> {
        let Ok(token) = evidence.token() else {
            return Ok(());
        };
        let mismatch = self
            .store
            .order(order_id)
            .is_some_and(|o| token.tx_digest != o.transaction.digest());
        if mismatch {
            return Err(VerifyError::TokenMismatch);
        }
        Ok(())
    }

    /// Accepts evidence for an order.
    ///
    /// Settled on the attached [`VerifierService`]'s workers when one is
    /// present, otherwise inline as a batch of one
    /// ([`Settlement::verify_settling`]); both settle through the one
    /// [`crate::service::Batch`], whose verdicts come out only after a
    /// covering journal flush.
    ///
    /// # Errors
    ///
    /// Returns the settlement's typed rejection; the order is marked
    /// rejected for settled-but-unconfirmed outcomes and stays pending on
    /// retryable ones.
    pub fn submit_evidence(
        &mut self,
        order_id: u64,
        evidence: &Evidence,
        now: Duration,
    ) -> Result<Receipt, VerifyError> {
        // The binding check dominates every path to settlement below —
        // the authorization-flow pass proves this stays true.
        if let Err(e) = self.check_order_binding(order_id, evidence) {
            // Same WAL-before-effect discipline as settlement: the
            // terminal decision is durable before the audit log, store or
            // caller see it.
            let mut decision = self.settlement.batch();
            decision.reject(order_id, evidence, now, e);
            decision.commit();
            self.audit.record(now, order_id, Err(e));
            self.store.reject(order_id, e);
            return Err(e);
        }
        let outcome = match &self.service {
            Some(service) => {
                match service.submit_evidence_for_order(order_id, evidence.clone(), now) {
                    Ok(ticket) => ticket.wait(),
                    Err(_) => Err(VerifyError::ServiceUnavailable),
                }
            }
            None => self.settlement.verify_settling(order_id, evidence, now),
        };
        match outcome {
            Ok(verified) => {
                self.audit.record(now, order_id, Ok(()));
                // `try_settle`: order ids arrive from outside the process,
                // so an unknown id must not panic the server.
                self.store.try_settle(order_id);
                Ok(Receipt {
                    order_id,
                    transaction: verified.transaction,
                    attempts: verified.attempts,
                })
            }
            Err(e) => {
                self.audit.record(now, order_id, Err(e));
                // Terminal outcomes mark the order; transport-level ones
                // leave it pending for retry.
                match e {
                    VerifyError::NotConfirmed(_)
                    | VerifyError::Replayed
                    | VerifyError::Expired
                    | VerifyError::UntrustedPal
                    | VerifyError::BadQuote
                    | VerifyError::TokenMismatch
                    | VerifyError::BadCertificate => self.store.reject(order_id, e),
                    _ => {}
                }
                Err(e)
            }
        }
    }

    /// True if the order is confirmed.
    pub fn is_confirmed(&self, order_id: u64) -> bool {
        matches!(
            self.store.order(order_id).map(|o| &o.status),
            Some(OrderStatus::Confirmed)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utp_core::ca::PrivacyCa;
    use utp_core::client::{Client, ClientConfig};
    use utp_core::operator::{ConfirmingHuman, Intent};
    use utp_core::verifier::Verifier;
    use utp_platform::machine::{Machine, MachineConfig};

    fn setup() -> (ServiceProvider, Machine, Client) {
        let ca = PrivacyCa::new(512, 91);
        let mut provider = ServiceProvider::new(ca.public_key().clone(), 92);
        provider.store_mut().open_account("alice", 100_000);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(93));
        let enrollment = ca.enroll(&mut machine);
        let client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        (provider, machine, client)
    }

    #[test]
    fn order_confirmed_and_settled() {
        let (mut provider, mut machine, mut client) = setup();
        let (order_id, request) =
            provider.place_order("alice", "bookshop", 4_200, "EUR", "order 7", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request.transaction), 94);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        let receipt = provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap();
        assert_eq!(receipt.transaction.payee, "bookshop");
        assert!(provider.is_confirmed(order_id));
        assert_eq!(
            provider.store().account("alice").unwrap().balance_cents,
            95_800
        );
    }

    #[test]
    fn human_rejection_marks_order_rejected_without_debit() {
        let (mut provider, mut machine, mut client) = setup();
        let (order_id, request) =
            provider.place_order("alice", "attacker", 99_999, "EUR", "??", machine.now());
        let mut human = ConfirmingHuman::new(Intent::rejecting(), 95);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        let err = provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap_err();
        assert!(matches!(err, VerifyError::NotConfirmed(_)));
        assert!(!provider.is_confirmed(order_id));
        assert_eq!(
            provider.store().account("alice").unwrap().balance_cents,
            100_000
        );
    }

    #[test]
    fn replayed_evidence_cannot_settle_twice() {
        let (mut provider, mut machine, mut client) = setup();
        let (order_id, request) =
            provider.place_order("alice", "shop", 1_000, "EUR", "", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request.transaction), 96);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap();
        // Malware re-submits the same evidence against a *new* order:
        // the order-binding check rejects it before the ledger is even
        // consulted (the token digests a different transaction).
        let (order2, _request2) =
            provider.place_order("alice", "shop", 1_000, "EUR", "", machine.now());
        let err = provider
            .submit_evidence(order2, &evidence, machine.now())
            .unwrap_err();
        assert_eq!(err, VerifyError::TokenMismatch);
        assert_eq!(
            provider.store().account("alice").unwrap().balance_cents,
            99_000
        );
        // Replaying against the *same* order is the ledger's business.
        let err = provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap_err();
        assert_eq!(err, VerifyError::Replayed);
        assert_eq!(
            provider.store().account("alice").unwrap().balance_cents,
            99_000
        );
    }

    #[test]
    fn attached_service_confirms_and_settles() {
        let (mut provider, mut machine, mut client) = setup();
        provider.attach_service(2);
        let (order_id, request) =
            provider.place_order("alice", "bookshop", 4_200, "EUR", "order 7", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request.transaction), 97);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap();
        assert!(provider.is_confirmed(order_id));
        // Replay against a new order is caught by the order-binding
        // check before the request ever reaches the shards.
        let (order2, _) = provider.place_order("alice", "shop", 1_000, "EUR", "", machine.now());
        let err = provider
            .submit_evidence(order2, &evidence, machine.now())
            .unwrap_err();
        assert_eq!(err, VerifyError::TokenMismatch);
        // Replay against its *own* order reaches the sharded ledger.
        let err = provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap_err();
        assert_eq!(err, VerifyError::Replayed);
        assert!(provider.is_confirmed(order_id), "confirmed is sticky");
        let stats = provider.detach_service().unwrap();
        assert_eq!(stats.totals().accepted, 1);
        assert_eq!(stats.totals().replayed, 1);
        assert_eq!(stats.totals().registered, 2);
        // Detached: new orders settle inline, on the same ledger.
        let (order3, request3) =
            provider.place_order("alice", "shop", 500, "EUR", "", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request3.transaction), 98);
        let evidence3 = client.confirm(&mut machine, &request3, &mut human).unwrap();
        provider
            .submit_evidence(order3, &evidence3, machine.now())
            .unwrap();
        assert!(provider.is_confirmed(order3));
    }

    /// Genuine evidence settled through an attached pool: `(provider,
    /// order, evidence, now)`, with alice debited once (95 800 left).
    fn settled_through_service() -> (ServiceProvider, u64, Evidence, Duration) {
        let (mut provider, mut machine, mut client) = setup();
        provider.attach_service(2);
        let (order_id, request) =
            provider.place_order("alice", "bookshop", 4_200, "EUR", "order 7", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request.transaction), 99);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap();
        (provider, order_id, evidence, machine.now())
    }

    fn alice(provider: &ServiceProvider) -> i64 {
        provider.store().account("alice").unwrap().balance_cents
    }

    #[test]
    fn replay_after_detach_service_is_caught() {
        let (mut provider, order_id, evidence, now) = settled_through_service();
        provider.detach_service();
        let err = provider
            .submit_evidence(order_id, &evidence, now)
            .unwrap_err();
        assert_eq!(err, VerifyError::Replayed);
        assert_eq!(alice(&provider), 95_800, "one debit");
    }

    #[test]
    fn replay_on_a_fork_of_an_attached_provider_is_caught() {
        let (provider, order_id, evidence, now) = settled_through_service();
        let mut fork = provider.fork();
        let err = fork.submit_evidence(order_id, &evidence, now).unwrap_err();
        assert_eq!(err, VerifyError::Replayed);
        assert_eq!(alice(&fork), 95_800, "one debit");
        assert_eq!(alice(&provider), 95_800);
    }

    fn journal() -> Arc<Journal> {
        Arc::new(Journal::new(utp_journal::JournalConfig::fast_for_tests()))
    }

    #[test]
    fn journaled_settlement_survives_crash() {
        let ca = PrivacyCa::new(512, 191);
        let mut provider = ServiceProvider::new(ca.public_key().clone(), 192);
        let journal = journal();
        provider.attach_journal(Arc::clone(&journal));
        provider.open_account("alice", 100_000);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(193));
        let enrollment = ca.enroll(&mut machine);
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        let (order_id, request) =
            provider.place_order("alice", "bookshop", 4_200, "EUR", "order", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request.transaction), 194);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap();
        // A second order is still awaiting confirmation when power fails.
        let (pending_id, pending_request) =
            provider.place_order("alice", "cafe", 900, "EUR", "", machine.now());
        drop(provider);
        journal.crash();

        let (mut recovered, report) = ServiceProvider::recover(
            ca.public_key().clone(),
            VerifierConfig::default(),
            195,
            Arc::clone(&journal),
        );
        // open + order + settle + pending order, all durable pre-crash.
        assert_eq!(report.records_applied, 4);
        assert!(recovered.is_confirmed(order_id));
        assert_eq!(
            recovered.store().account("alice").unwrap().balance_cents,
            95_800
        );
        assert_eq!(recovered.audit().len(), 1);
        // Replaying the settled evidence against a fresh order trips
        // the order-binding check; against its own (recovered) order,
        // the consumed nonce stays consumed.
        let (order2, _) = recovered.place_order("alice", "shop", 1_000, "EUR", "", machine.now());
        assert_eq!(
            recovered
                .submit_evidence(order2, &evidence, machine.now())
                .unwrap_err(),
            VerifyError::TokenMismatch
        );
        assert_eq!(
            recovered
                .submit_evidence(order_id, &evidence, machine.now())
                .unwrap_err(),
            VerifyError::Replayed
        );
        // The order pending at crash time settles exactly once.
        let mut human = ConfirmingHuman::new(Intent::approving(&pending_request.transaction), 196);
        let evidence2 = client
            .confirm(&mut machine, &pending_request, &mut human)
            .unwrap();
        recovered
            .submit_evidence(pending_id, &evidence2, machine.now())
            .unwrap();
        assert!(recovered.is_confirmed(pending_id));
        assert_eq!(
            recovered.store().account("alice").unwrap().balance_cents,
            94_900
        );
    }

    #[test]
    fn checkpoint_truncates_log_and_recovery_uses_snapshot() {
        let ca = PrivacyCa::new(512, 201);
        let mut provider = ServiceProvider::new(ca.public_key().clone(), 202);
        let journal = journal();
        provider.attach_journal(Arc::clone(&journal));
        provider.open_account("alice", 50_000);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(203));
        let enrollment = ca.enroll(&mut machine);
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        let (o1, r1) = provider.place_order("alice", "shop", 2_000, "EUR", "", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&r1.transaction), 204);
        let evidence = client.confirm(&mut machine, &r1, &mut human).unwrap();
        provider
            .submit_evidence(o1, &evidence, machine.now())
            .unwrap();

        assert!(!journal.durable_log_bytes().is_empty());
        let state = provider.checkpoint().expect("journal attached");
        assert_eq!(state.accounts.get("alice"), Some(&48_000));
        assert!(
            journal.durable_log_bytes().is_empty(),
            "checkpoint truncates the WAL"
        );

        // Post-checkpoint activity lands on the (now short) log.
        let (o2, r2) = provider.place_order("alice", "cafe", 500, "EUR", "", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&r2.transaction), 205);
        let evidence2 = client.confirm(&mut machine, &r2, &mut human).unwrap();
        provider
            .submit_evidence(o2, &evidence2, machine.now())
            .unwrap();
        drop(provider);
        journal.crash();

        let (recovered, report) = ServiceProvider::recover(
            ca.public_key().clone(),
            VerifierConfig::default(),
            206,
            Arc::clone(&journal),
        );
        assert!(report.snapshot_used, "recovery seeds from the snapshot");
        assert_eq!(report.records_applied, 2, "only post-checkpoint records");
        assert!(recovered.is_confirmed(o1));
        assert!(recovered.is_confirmed(o2));
        assert_eq!(
            recovered.store().account("alice").unwrap().balance_cents,
            47_500
        );
    }

    #[test]
    fn journaled_service_settles_durably_before_ack() {
        let ca = PrivacyCa::new(512, 211);
        let mut provider = ServiceProvider::new(ca.public_key().clone(), 212);
        let journal = journal();
        provider.attach_journal(Arc::clone(&journal));
        provider.open_account("alice", 10_000);
        provider.attach_service(2);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(213));
        let enrollment = ca.enroll(&mut machine);
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        let (order_id, request) =
            provider.place_order("alice", "bookshop", 4_200, "EUR", "", machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&request.transaction), 214);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap();
        // WAL-before-ack: by the time the ticket resolved, the settle
        // record was flushed — a crash right now must not forget it.
        provider.detach_service();
        drop(provider);
        journal.crash();
        let (recovered, _report) = ServiceProvider::recover(
            ca.public_key().clone(),
            VerifierConfig::default(),
            215,
            Arc::clone(&journal),
        );
        assert!(recovered.is_confirmed(order_id));
        assert_eq!(
            recovered.store().account("alice").unwrap().balance_cents,
            5_800
        );
    }

    #[test]
    fn provider_and_verifier_from_one_seed_issue_the_same_nonces() {
        let ca_key = PrivacyCa::new(512, 91).public_key().clone();
        let mut provider = ServiceProvider::new(ca_key.clone(), 92);
        let mut verifier = Verifier::new(ca_key, 92);
        for _ in 0..3 {
            let (_, request) = provider.place_order("alice", "shop", 1, "EUR", "", Duration::ZERO);
            let issued = verifier.issue_request(request.transaction.clone(), Duration::ZERO);
            assert_eq!(request, issued);
        }
    }

    #[test]
    fn transaction_ids_are_unique_per_provider() {
        let (mut provider, machine, _client) = setup();
        let (_, r1) = provider.place_order("alice", "a", 1, "EUR", "", machine.now());
        let (_, r2) = provider.place_order("alice", "b", 1, "EUR", "", machine.now());
        assert_ne!(r1.transaction.id, r2.transaction.id);
        assert_ne!(r1.nonce, r2.nonce);
    }
}
