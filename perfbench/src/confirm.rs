//! `confirm_e2e`: the paper's headline flow, one whole transaction at a
//! time.
//!
//! One client in a closed loop runs transactions through
//! `utp_server::flow::run_transaction` on a realistic Infineon machine
//! (1024-bit CA and AIK), a broadband link and a journaled (NVMe)
//! provider verifying on its serial path; the service queue is not
//! involved. One confirmation in sixteen is declined by the human and
//! must come back `NotConfirmed`. Rounds of transactions each run against
//! a fresh provider and journal, so memory does not grow with the number
//! of rounds the host managed.
//!
//! The traced run composes the same public calls `run_transaction` makes
//! (`one_way_delay`, `place_order`, `confirm_with_report`,
//! `submit_evidence`) with a span around each.

use crate::probe::{self, EvidenceSet};
use crate::report::{ratio, Metrics};
use crate::spans::{SpanLog, SpanStats};
use crate::{careful_human, journal_config, Bench, Tally, KEY_SEED};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_core::pal::ConfirmationPal;
use utp_core::protocol::{Transaction, Verdict};
use utp_core::verifier::VerifyError;
use utp_crypto::rsa::RsaPublicKey;
use utp_journal::Journal;
use utp_netsim::{Link, LinkConfig};
use utp_platform::machine::{Machine, MachineConfig};
use utp_server::flow::{run_transaction, E2eReport};
use utp_server::metrics::{host_timed, HostStopwatch};
use utp_server::provider::{Receipt, ServiceProvider};
use utp_tpm::VendorProfile;

const ACCOUNT: &str = "alice";
const PAYEE: &str = "bookshop.example";
const AMOUNT_CENTS: u64 = 4_200;
const MEMO: &str = "order 4711: two paperbacks";
const OPENING_BALANCE: i64 = 1 << 40;
/// Matches the order-intent size `run_transaction` charges the link.
const ORDER_INTENT_LEN: usize = 256;
/// One transaction in `DECLINE_EVERY` is declined.
const DECLINE_EVERY: u64 = 16;
/// Genuine confirmations kept for the layer probes.
const PROBE_ITEMS: usize = 64;
/// Transactions per round (one provider and journal each).
const PER_ROUND: u64 = 64;

/// The `confirm_e2e` workload.
#[derive(Debug, Clone, Copy)]
pub struct Confirm;

/// The client side, which lives across rounds.
pub struct ConfirmWorld {
    seed: u64,
    ca_key: RsaPublicKey,
    machine: Machine,
    client: Client,
    link: Link,
    rounds: u64,
}

/// Per-layer accumulators over the rounds.
#[derive(Debug, Default)]
pub struct ConfirmLayers {
    txs: u64,
    session_machine: Duration,
    attest: Duration,
    network: Duration,
    durability: Duration,
    tpm_ops: u64,
    appends: u64,
    syncs: u64,
    elided: u64,
    bytes: u64,
    last_journal: Option<Arc<Journal>>,
    probe_set: Option<EvidenceSet>,
}

fn approving_intent() -> Intent {
    Intent::approving(&Transaction::new(0, PAYEE, AMOUNT_CENTS, "EUR", MEMO))
}

/// `run_transaction`, composed from the same public calls with a span
/// around each call into a layer.
fn traced_transaction(
    w: &mut ConfirmWorld,
    provider: &mut ServiceProvider,
    human: &mut ConfirmingHuman,
    log: &mut SpanLog,
    layers: &mut ConfirmLayers,
) -> Result<E2eReport, utp_core::UtpError> {
    let op = log.new_op();
    let root = log.begin(op, None, Confirm::ROOT_SPAN);
    let machine = &mut w.machine;
    let link = &mut w.link;
    let journal_time =
        |p: &ServiceProvider| p.journal().map_or(Duration::ZERO, |j| j.device_time());
    let t0 = machine.now();
    let mut network = Duration::ZERO;
    let mut durability = Duration::ZERO;

    let d = log.time(op, Some(root), "net.one_way_delay", || {
        link.one_way_delay(ORDER_INTENT_LEN)
    });
    machine.advance(d);
    network += d;
    let j0 = journal_time(provider);
    let now = machine.now();
    let (order_id, request) = log.time(op, Some(root), "provider.place_order", || {
        provider.place_order(ACCOUNT, PAYEE, AMOUNT_CENTS, "EUR", MEMO, now)
    });
    let dj = journal_time(provider).saturating_sub(j0);
    machine.advance(dj);
    durability += dj;

    let request_len = request.to_bytes().len();
    let d = log.time(op, Some(root), "net.one_way_delay", || {
        link.one_way_delay(request_len)
    });
    machine.advance(d);
    network += d;

    let confirmed = log.time(op, Some(root), "client.confirm_with_report", || {
        w.client.confirm_with_report(machine, &request, human)
    });
    let (evidence, report) = match confirmed {
        Ok(v) => v,
        Err(e) => {
            log.end(root);
            return Err(e);
        }
    };

    let evidence_len = evidence.to_bytes().len();
    let d = log.time(op, Some(root), "net.one_way_delay", || {
        link.one_way_delay(evidence_len)
    });
    machine.advance(d);
    network += d;

    let j0 = journal_time(provider);
    let now = machine.now();
    let (outcome, verify_cpu) = log.time(op, Some(root), "provider.submit_evidence", || {
        host_timed(|| provider.submit_evidence(order_id, &evidence, now))
    });
    machine.advance(verify_cpu);
    let dj = journal_time(provider).saturating_sub(j0);
    machine.advance(dj);
    durability += dj;
    log.end(root);

    if outcome.is_ok() {
        let set = layers.probe_set.get_or_insert_with(|| EvidenceSet {
            ca_key: w.ca_key.clone(),
            pals: HashSet::from([ConfirmationPal::v1().measurement()]),
            items: Vec::new(),
        });
        if set.items.len() < PROBE_ITEMS {
            set.items.push((request, evidence));
        }
    }
    Ok(E2eReport {
        outcome,
        session: report.timings,
        network,
        verify_cpu,
        total: machine.now() - t0,
        durability,
    })
}

impl Bench for Confirm {
    type World = ConfirmWorld;
    type Layers = ConfirmLayers;
    const ROOT_SPAN: &'static str = "flow.transaction";
    /// Set-up is a few tenths of a second: take the median of more.
    const SLICES: u32 = 7;

    fn setup(&self, seed: u64) -> ConfirmWorld {
        let ca = PrivacyCa::new(1024, KEY_SEED);
        let mut machine = Machine::new(MachineConfig::realistic(
            VendorProfile::Infineon,
            KEY_SEED ^ 0x4d41_4348,
        ));
        let enrollment = ca.enroll(&mut machine);
        machine.drain_tpm_op_journal();
        ConfirmWorld {
            seed,
            ca_key: ca.public_key().clone(),
            machine,
            client: Client::new(ClientConfig::fast_for_tests(), enrollment),
            link: Link::new(LinkConfig::broadband(), seed ^ 0x4c49_4e4b),
            rounds: 0,
        }
    }

    fn round(
        &self,
        w: &mut ConfirmWorld,
        tally: &mut Tally,
        log: &mut SpanLog,
        layers: &mut ConfirmLayers,
    ) {
        w.rounds += 1;
        let round_seed = w.seed ^ (w.rounds << 20);
        let journal = Arc::new(Journal::new(journal_config()));
        let mut provider = ServiceProvider::new(w.ca_key.clone(), round_seed);
        provider.attach_journal(Arc::clone(&journal));
        provider.open_account(ACCOUNT, OPENING_BALANCE);
        let mut settled = 0u64;
        for i in 0..PER_ROUND {
            let declines = (round_seed.wrapping_add(i)) % DECLINE_EVERY == 0;
            let intent = if declines {
                Intent::rejecting()
            } else {
                approving_intent()
            };
            let mut human = careful_human(intent, round_seed ^ (i << 4));
            let sw = HostStopwatch::start();
            let result = if log.is_enabled() {
                traced_transaction(w, &mut provider, &mut human, log, layers)
            } else {
                run_transaction(
                    &mut w.machine,
                    &mut w.client,
                    &mut provider,
                    &mut w.link,
                    ACCOUNT,
                    PAYEE,
                    AMOUNT_CENTS,
                    MEMO,
                    &mut human,
                )
            };
            let latency = sw.elapsed();
            tally.attempted += 1;
            tally.host.record(latency.as_nanos() as f64);
            let report = match result {
                Ok(r) => r,
                Err(e) => {
                    tally.fail(format!("transaction {i}: client error {e:?}"));
                    continue;
                }
            };
            tally
                .confirm
                .record(report.machine_only().as_nanos() as f64);
            let ok = match (&report.outcome, declines) {
                (Ok(Receipt { transaction, .. }), false) => {
                    transaction.payee == PAYEE && transaction.amount_cents == AMOUNT_CENTS
                }
                (Err(VerifyError::NotConfirmed(Verdict::Rejected)), true) => true,
                _ => false,
            };
            if ok && !declines {
                settled += 1;
            }
            if !ok {
                tally.fail(format!(
                    "transaction {i}: declined={declines}, outcome {:?}",
                    report.outcome.as_ref().map(|r| r.order_id)
                ));
            }
            // WAL-before-ack: every decision acknowledged so far is durable.
            if journal.durable_seq() < journal.stats().appends {
                tally.fail(format!(
                    "transaction {i}: {} records journaled, only {} durable",
                    journal.stats().appends,
                    journal.durable_seq()
                ));
            }
            layers.txs += 1;
            layers.session_machine += report.session.machine_only();
            layers.attest += report.session.attest;
            layers.network += report.network;
            layers.durability += report.durability;
        }
        // Drained every round, which also keeps the TPM's bounded command
        // journal from overflowing.
        layers.tpm_ops += w.machine.drain_tpm_op_journal().len() as u64;
        let balance = provider
            .store()
            .account(ACCOUNT)
            .map_or(0, |a| a.balance_cents);
        let spent = OPENING_BALANCE - balance;
        if spent != (settled * AMOUNT_CENTS) as i64 {
            tally.fail(format!(
                "round {}: account drained by {spent}, expected {} settled x {AMOUNT_CENTS}",
                w.rounds, settled
            ));
        }
        let jstats = journal.stats();
        layers.appends += jstats.appends;
        layers.syncs += jstats.syncs;
        layers.elided += jstats.sync_elided;
        layers.bytes += journal.log_counters().bytes_appended;
        layers.last_journal = Some(journal);
    }

    fn layer_metrics(
        &self,
        _world: &ConfirmWorld,
        l: &ConfirmLayers,
        spans: &BTreeMap<&'static str, SpanStats>,
        probe_budget: Duration,
        m: &mut Metrics,
    ) {
        let mean_us = |name: &str| spans.get(name).map_or(0.0, SpanStats::mean_us);
        let txs = l.txs as f64;
        let per_tx_ms = |d: Duration| ratio(d.as_secs_f64() * 1e3, txs);
        m.set("provider.place_order_us", mean_us("provider.place_order"));
        m.set(
            "provider.submit_evidence_us",
            mean_us("provider.submit_evidence"),
        );
        m.set("client.confirm_us", mean_us("client.confirm_with_report"));
        m.set("net.one_way_delay_us", mean_us("net.one_way_delay"));
        m.set("client.session_machine_ms", per_tx_ms(l.session_machine));
        m.set("client.attest_ms", per_tx_ms(l.attest));
        m.set("client.tpm_ops_per_tx", ratio(l.tpm_ops as f64, txs));
        m.set("net.link_ms_per_tx", per_tx_ms(l.network));
        m.set("journal.device_us_per_op", per_tx_ms(l.durability) * 1e3);
        m.set("journal.appends_per_op", ratio(l.appends as f64, txs));
        m.set("journal.syncs_per_op", ratio(l.syncs as f64, txs));
        m.set(
            "journal.sync_elided_ratio",
            ratio(l.elided as f64, (l.syncs + l.elided) as f64),
        );
        m.set("journal.bytes_per_op", ratio(l.bytes as f64, txs));
        let journal_budget = probe_budget / 10;
        if let Some(j) = &l.last_journal {
            m.set(
                "journal.append_sync_us",
                probe::journal_append_sync_us(j, journal_budget),
            );
        }
        if let Some(set) = &l.probe_set {
            probe::crypto_and_core(set, probe_budget - journal_budget, m);
        }
    }
}
