//! `settle_hot` and `settle_cold`: the provider's production settle path.
//!
//! One submitter thread keeps a fixed window of evidence in flight
//! against a `VerifierService` with one worker and a journal, through
//! `register`, `submit_evidence_for_order` and `Ticket::wait`: a closed
//! loop, two threads in all. Each round starts a fresh service and
//! journal and re-registers the same requests, so the evidence generated
//! once at set-up is reused for the whole run. A round's mix is mostly
//! genuine evidence, plus replays of evidence settled earlier in the
//! round (expected `Replayed`) and quotes with a flipped signature bit
//! (expected `BadQuote`). The single worker takes jobs in submission
//! order, so every expectation is exact.
//!
//! On `settle_hot` a handful of enrolled clients ship the same
//! certificate every time, so after one miss per client every lookup hits
//! the certificate cache. On `settle_cold` every item carries a
//! certificate minted for it alone (`PrivacyCa::certify` on the same AIK:
//! new serial, new bytes), so every lookup misses, and a round holds more
//! distinct certificates than the cache, so LRU eviction runs.

use crate::probe::{self, EvidenceSet};
use crate::report::{ratio, Metrics};
use crate::spans::{SpanId, SpanLog, SpanStats};
use crate::{careful_human, journal_config, Bench, Tally, KEY_SEED};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;
use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::Intent;
use utp_core::pal::ConfirmationPal;
use utp_core::protocol::{Evidence, Transaction};
use utp_core::verifier::{VerifiedTransaction, Verifier, VerifyError};
use utp_crypto::rsa::RsaPublicKey;
use utp_journal::Journal;
use utp_platform::machine::{Machine, MachineConfig};
use utp_server::metrics::HostStopwatch;
use utp_server::service::{ServiceConfig, Ticket, VerifierService};
use utp_trace::{keys, names, Recorder, Value};

/// Virtual time every request is registered at; evidence arrives one
/// second later, well inside the nonce lifetime.
const ISSUED_AT: Duration = Duration::from_secs(1);
const SUBMIT_AT: Duration = Duration::from_secs(2);
/// Nonce-settlement shards.
const SHARDS: usize = 4;

/// Enrolled clients producing the evidence.
pub const CLIENTS: usize = 3;
/// Genuine evidence items per round.
pub const GENUINE: usize = 192;
/// Every `FORGE_EVERY`-th genuine item is preceded by a forgery of it.
pub const FORGE_EVERY: usize = 12;
/// Every `REPLAY_EVERY`-th genuine item is followed by a replay of it.
const REPLAY_EVERY: usize = 12;
/// Submissions kept in flight.
const WINDOW: usize = 4;
/// Certificate-cache capacity, below the distinct certificates of a
/// cold round.
pub const CACHE: usize = 64;
const _: () = assert!(
    GENUINE + GENUINE / FORGE_EVERY > CACHE,
    "a cold round must look up more distinct certificates than the cache holds"
);

/// `settle_hot` (`cold == false`) or `settle_cold`.
#[derive(Debug, Clone, Copy)]
pub struct Settle {
    /// Mint a fresh certificate for every item.
    pub cold: bool,
}

impl Settle {
    /// The `settle_hot` workload.
    pub const HOT: Settle = Settle { cold: false };
    /// The `settle_cold` workload.
    pub const COLD: Settle = Settle { cold: true };

    /// Whether the certificate cache still holds a certificate after
    /// `gap` other certificates were validated, read from the cache's
    /// effect: on a fresh service with the workloads' cache, settle
    /// genuine item 0, then `gap` other items of the cold mix (each with
    /// a certificate of its own), then one more item of the same client
    /// carrying item 0's certificate, and report whether that last lookup
    /// hit.
    pub fn cert_cached_after(&self, world: &SettleWorld, gap: usize) -> bool {
        assert!(self.cold, "needs a certificate per item");
        let genuine: Vec<(usize, &Item)> = world
            .items
            .iter()
            .filter_map(|item| match item.expect {
                Expect::Settles(i) => Some((i, item)),
                _ => None,
            })
            .collect();
        let last = (gap + 1..GENUINE)
            .find(|k| k % CLIENTS == 0)
            .expect("gap leaves an item of client 0");
        let mut represented = genuine[last].1.evidence.clone();
        represented.aik_cert = genuine[0].1.evidence.aik_cert.clone();
        let mut order: Vec<(usize, Evidence)> = genuine[..=gap]
            .iter()
            .map(|(i, item)| (*i, item.evidence.clone()))
            .collect();
        order.push((last, represented));

        let mut config = ServiceConfig::new(1, SHARDS);
        config.trusted_pals = world.inputs.pals.clone();
        config.cert_cache_capacity = CACHE;
        let service = VerifierService::start(world.inputs.ca_key.clone(), config);
        for (i, evidence) in order {
            let request = &world.inputs.items[i].0;
            service.register(request, ISSUED_AT);
            let verdict = service
                .submit_evidence_for_order(request.transaction.id, evidence, SUBMIT_AT)
                .expect("an idle service admits")
                .wait();
            assert!(verdict.is_ok(), "item {i}: {verdict:?}");
        }
        service.shutdown().cert_cache_hits > 0
    }
}

/// What one submission must come back as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Settles request `i`.
    Settles(usize),
    /// A replay of an already settled item.
    Replayed,
    /// A forged quote.
    BadQuote,
}

/// A submission awaiting its verdict.
struct InFlight {
    ticket: Ticket<VerifiedTransaction>,
    idx: usize,
    submitted: HostStopwatch,
    op: u64,
    root: SpanId,
}

#[derive(Debug, Clone)]
struct Item {
    evidence: Evidence,
    order: u64,
    expect: Expect,
}

/// The issued requests with their genuine evidence, and a round's
/// submissions in order.
#[derive(Debug)]
pub struct SettleWorld {
    inputs: EvidenceSet,
    items: Vec<Item>,
    forged: usize,
    replays: usize,
}

/// Per-layer accumulators over the rounds.
#[derive(Debug, Default)]
pub struct SettleLayers {
    ops: u64,
    hits: u64,
    misses: u64,
    shed: u64,
    accepted: u64,
    replayed: u64,
    rejected: u64,
    watermark: u64,
    appends: u64,
    syncs: u64,
    elided: u64,
    bytes: u64,
    device: Duration,
    wait_ns: crate::hist::Hist,
    queue_wait_ns: crate::hist::Hist,
    verify_ns: crate::hist::Hist,
    last_journal: Option<Arc<Journal>>,
}

impl Bench for Settle {
    type World = SettleWorld;
    type Layers = SettleLayers;
    const ROOT_SPAN: &'static str = "settle.decision";

    fn setup(&self, seed: u64) -> SettleWorld {
        let ca = PrivacyCa::new(1024, KEY_SEED);
        let mut issuer = Verifier::new(ca.public_key().clone(), seed ^ 0x1551);
        let mut machines = Vec::new();
        let mut clients = Vec::new();
        for c in 0..CLIENTS as u64 {
            let mut machine = Machine::new(MachineConfig {
                tpm: utp_tpm::TpmConfig {
                    vendor: utp_tpm::VendorProfile::Instant,
                    key_bits: 1024,
                    seed: KEY_SEED ^ (0x4d00 + c),
                    fault_rate: 0.0,
                },
                ..MachineConfig::fast_for_tests(KEY_SEED ^ (0x4d00 + c))
            });
            let enrollment = ca.enroll(&mut machine);
            clients.push(Client::new(ClientConfig::fast_for_tests(), enrollment));
            machines.push(machine);
        }
        let aik_keys: Vec<RsaPublicKey> = clients
            .iter()
            .map(|c| {
                RsaPublicKey::from_bytes(&c.enrollment().certificate.aik_pub)
                    .expect("an enrolled AIK decodes")
            })
            .collect();
        let mut inputs = EvidenceSet {
            ca_key: ca.public_key().clone(),
            pals: HashSet::from([ConfirmationPal::v1().measurement()]),
            items: Vec::new(),
        };
        for i in 0..GENUINE {
            let c = i % CLIENTS;
            let tx = Transaction::new(
                i as u64 + 1,
                format!("shop-{}.example", i % 7),
                100 + (seed.wrapping_add(i as u64) % 9_900),
                "EUR",
                "settle",
            );
            let request = issuer.issue_request(tx.clone(), ISSUED_AT);
            let mut human = careful_human(Intent::approving(&tx), seed ^ ((i as u64) << 8));
            let evidence = clients[c]
                .confirm(&mut machines[c], &request, &mut human)
                .expect("an enrolled client confirms");
            inputs.items.push((request, evidence));
        }
        // The cold mix: a certificate of its own for every item the
        // service will look a certificate up for (replays stop at the
        // nonce check before any lookup).
        let cert_for = |i: usize| -> Option<Vec<u8>> {
            self.cold
                .then(|| ca.certify(&aik_keys[i % CLIENTS]).to_bytes())
        };
        let mut items = Vec::new();
        let (mut forged, mut replays) = (0, 0);
        for (i, (request, evidence)) in inputs.items.iter().enumerate() {
            let order = request.transaction.id;
            if i % FORGE_EVERY == FORGE_EVERY / 2 {
                let mut bad = evidence.clone();
                bad.quote.signature[7] ^= 0x10;
                if let Some(cert) = cert_for(i) {
                    bad.aik_cert = cert;
                }
                items.push(Item {
                    evidence: bad,
                    order,
                    expect: Expect::BadQuote,
                });
                forged += 1;
            }
            let mut good = evidence.clone();
            if let Some(cert) = cert_for(i) {
                good.aik_cert = cert;
            }
            items.push(Item {
                evidence: good.clone(),
                order,
                expect: Expect::Settles(i),
            });
            if i % REPLAY_EVERY == REPLAY_EVERY - 1 {
                items.push(Item {
                    evidence: good,
                    order,
                    expect: Expect::Replayed,
                });
                replays += 1;
            }
        }
        SettleWorld {
            inputs,
            items,
            forged,
            replays,
        }
    }

    fn round(
        &self,
        world: &mut SettleWorld,
        tally: &mut Tally,
        log: &mut SpanLog,
        layers: &mut SettleLayers,
    ) {
        let journal = Arc::new(Journal::new(journal_config()));
        // The service's own flight records, in the traced run only.
        let recorder = log.is_enabled().then(|| Arc::new(Recorder::new()));
        let mut config = ServiceConfig::new(1, SHARDS);
        config.trusted_pals = world.inputs.pals.clone();
        config.cert_cache_capacity = CACHE;
        config.journal = Some(Arc::clone(&journal));
        config.recorder = recorder.clone();

        let round_op = log.new_op();
        let service = log.time(round_op, None, "service.start", || {
            VerifierService::start(world.inputs.ca_key.clone(), config)
        });
        for (request, _) in &world.inputs.items {
            log.time(round_op, None, "service.register", || {
                service.register(request, ISSUED_AT)
            });
        }

        let mut in_flight = VecDeque::with_capacity(WINDOW);
        let mut latencies = Vec::with_capacity(world.items.len());
        let mut resolve = |log: &mut SpanLog, flight: InFlight, tally: &mut Tally| {
            let wait_sw = HostStopwatch::start();
            let verdict = log.time(flight.op, Some(flight.root), "service.wait", || {
                flight.ticket.wait()
            });
            layers.wait_ns.record(wait_sw.elapsed().as_nanos() as f64);
            let latency = flight.submitted.elapsed();
            log.end(flight.root);
            let item = &world.items[flight.idx];
            let ok = match (item.expect, &verdict) {
                (Expect::Settles(i), Ok(v)) => v.transaction == world.inputs.items[i].0.transaction,
                (Expect::Replayed, Err(VerifyError::Replayed)) => true,
                (Expect::BadQuote, Err(VerifyError::BadQuote)) => true,
                _ => false,
            };
            if !ok {
                tally.fail(format!(
                    "settle item {}: expected {:?}, got {:?}",
                    flight.idx,
                    item.expect,
                    verdict.map(|v| v.transaction.id)
                ));
            }
            tally.attempted += 1;
            tally.host.record(latency.as_nanos() as f64);
            latencies.push(latency);
        };
        for (idx, item) in world.items.iter().enumerate() {
            if in_flight.len() == WINDOW {
                let head = in_flight.pop_front().expect("window is full");
                resolve(log, head, tally);
            }
            let op = log.new_op();
            let root = log.begin(op, None, Self::ROOT_SPAN);
            let submitted = HostStopwatch::start();
            let ticket = log.time(op, Some(root), "service.submit", || {
                service.submit_evidence_for_order(item.order, item.evidence.clone(), SUBMIT_AT)
            });
            match ticket {
                Ok(ticket) => in_flight.push_back(InFlight {
                    ticket,
                    idx,
                    submitted,
                    op,
                    root,
                }),
                Err(e) => {
                    log.end(root);
                    tally.attempted += 1;
                    tally.fail(format!("settle item {idx}: submit failed: {e}"));
                }
            }
        }
        while let Some(head) = in_flight.pop_front() {
            resolve(log, head, tally);
        }
        let stats = log.time(round_op, None, "service.drain", || service.shutdown());

        let totals = stats.totals();
        let expected = (
            world.inputs.items.len() as u64,
            world.replays as u64,
            world.forged as u64,
        );
        if (totals.accepted, totals.replayed, totals.rejected) != expected {
            tally.fail(format!(
                "settle round: accepted/replayed/rejected {:?}, expected {expected:?}",
                (totals.accepted, totals.replayed, totals.rejected)
            ));
        }
        let jstats = journal.stats();
        if journal.durable_seq() < jstats.appends {
            tally.fail(format!(
                "settle round: {} decisions journaled, only {} durable",
                jstats.appends,
                journal.durable_seq()
            ));
        }
        // The user's wait: host submit→verdict plus the modeled disk
        // barrier each decision waited for, as `run_transaction` folds
        // journal device time into its timeline.
        let device_per_op = journal.device_time() / world.items.len().max(1) as u32;
        for l in &latencies {
            tally.confirm.record((*l + device_per_op).as_nanos() as f64);
        }

        layers.ops += world.items.len() as u64;
        layers.hits += stats.cert_cache_hits;
        layers.misses += stats.cert_cache_misses;
        layers.shed += stats.jobs_shed;
        layers.accepted += totals.accepted;
        layers.replayed += totals.replayed;
        layers.rejected += totals.rejected;
        layers.watermark = layers.watermark.max(stats.queue_depth_watermark);
        layers.appends += jstats.appends;
        layers.syncs += jstats.syncs;
        layers.elided += jstats.sync_elided;
        layers.bytes += journal.log_counters().bytes_appended;
        layers.device += journal.device_time();
        for rec in recorder.iter().flat_map(|r| r.records()) {
            if rec.name != names::SVC_JOB {
                continue;
            }
            for (k, v) in &rec.fields {
                match (*k, v) {
                    (keys::WAIT_HOST, Value::HostNs(ns)) => layers.queue_wait_ns.record(*ns as f64),
                    (keys::VERIFY_HOST, Value::HostNs(ns)) => layers.verify_ns.record(*ns as f64),
                    _ => {}
                }
            }
        }
        layers.last_journal = Some(journal);
    }

    fn layer_metrics(
        &self,
        world: &SettleWorld,
        l: &SettleLayers,
        spans: &BTreeMap<&'static str, SpanStats>,
        probe_budget: Duration,
        m: &mut Metrics,
    ) {
        let mean_us = |name: &str| spans.get(name).map_or(0.0, SpanStats::mean_us);
        m.set("service.start_us", mean_us("service.start"));
        m.set("service.register_us", mean_us("service.register"));
        m.set("service.submit_us", mean_us("service.submit"));
        m.set("service.drain_us", mean_us("service.drain"));
        let ops = l.ops as f64;
        let lookups = (l.hits + l.misses) as f64;
        m.set(
            "service.cert_cache_hit_ratio",
            ratio(l.hits as f64, lookups),
        );
        m.set("service.cert_cache_lookups_per_op", ratio(lookups, ops));
        m.set(
            "service.cert_cache_misses_per_op",
            ratio(l.misses as f64, ops),
        );
        m.set("service.queue_depth_watermark", l.watermark as f64);
        m.set("service.accepted_per_op", ratio(l.accepted as f64, ops));
        m.set("service.replayed_per_op", ratio(l.replayed as f64, ops));
        m.set("service.rejected_per_op", ratio(l.rejected as f64, ops));
        m.set("service.shed_per_op", ratio(l.shed as f64, ops));
        m.set("service.wait_p50_us", l.wait_ns.quantile(0.5) / 1e3);
        m.set("service.wait_p99_us", l.wait_ns.quantile(0.99) / 1e3);
        m.set(
            "service.queue_wait_p50_us",
            l.queue_wait_ns.quantile(0.5) / 1e3,
        );
        m.set("service.verify_cpu_p50_us", l.verify_ns.quantile(0.5) / 1e3);
        m.set("journal.appends_per_op", ratio(l.appends as f64, ops));
        m.set("journal.syncs_per_op", ratio(l.syncs as f64, ops));
        m.set(
            "journal.sync_elided_ratio",
            ratio(l.elided as f64, (l.syncs + l.elided) as f64),
        );
        m.set("journal.bytes_per_op", ratio(l.bytes as f64, ops));
        m.set(
            "journal.device_us_per_op",
            ratio(l.device.as_secs_f64() * 1e6, ops),
        );
        let journal_budget = probe_budget / 10;
        if let Some(j) = &l.last_journal {
            m.set(
                "journal.append_sync_us",
                probe::journal_append_sync_us(j, journal_budget),
            );
        }
        probe::crypto_and_core(&world.inputs, probe_budget - journal_budget, m);
    }
}
