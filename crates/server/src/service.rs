//! Nonce settlement on the provider: the settlement, and the worker
//! pool around it.
//!
//! The provider-side cost of the trusted path is one certificate check,
//! two hashes and one RSA quote verify per transaction, all stateless;
//! only nonce settlement needs serialization. Every verdict is decided
//! by `utp-core`'s one settlement core, [`Settler`] (parse → preflight
//! → `check_evidence` → settle → verdict, on nonce ledgers **sharded**
//! by `hash(nonce) % shards`). Two types here add what that core cannot
//! know:
//!
//! * [`Settlement`] — the core plus an **LRU cache of validated AIK
//!   certificates** keyed by certificate digest (a repeat client costs
//!   one RSA verify, not two) and the optional settlement journal.
//!   [`Settlement::verify_settling`] is the core's `settle_evidence`
//!   with certificates resolved through the cache, followed by
//!   WAL-before-ack, on the calling thread; `Settlement::fork`
//!   deep-copies it so the explorer can branch on it.
//! * [`VerifierService`] — a bounded submission queue and a pool of
//!   worker threads around an `Arc<Settlement>`. A full queue blocks
//!   (or, via [`VerifierService::try_submit_evidence`], reports
//!   [`SubmitError::QueueFull`]) instead of buffering without limit;
//!   **graceful shutdown** drains every in-flight job before joining,
//!   so every outstanding [`Ticket`] resolves. Optional **flight
//!   recording**: hand [`ServiceConfig::recorder`] a
//!   [`utp_trace::Recorder`] and each worker installs a `worker/{i}`
//!   sink, emitting per-job *volatile* records (queue wait, verify CPU,
//!   outcome, queue depth) while submissions emit deterministic
//!   `svc.submit` events on the caller's own sink. Emission never
//!   happens while a shard or cache lock is held.

use crate::metrics::{Counter, Gauge, HostStopwatch, ServiceStats};
use crossbeam::channel::{self, TrySendError};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;
use utp_core::ca::AikCertificate;
use utp_core::protocol::{Evidence, TransactionRequest};
use utp_core::verifier::{Settler, VerifiedTransaction, VerifierConfig, VerifyError};
use utp_crypto::rsa::RsaPublicKey;
use utp_crypto::sha1::{Sha1, Sha1Digest};
use utp_journal::{Journal, JournalRecord, NO_ORDER};
use utp_netsim::{Admission, AdmissionConfig};
use utp_trace::{keys, names, Recorder, Value};

/// Sizing and policy knobs for [`Settlement`] and [`VerifierService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (minimum 1).
    pub threads: usize,
    /// Nonce-settlement shards (minimum 1).
    pub shards: usize,
    /// Bounded submission-queue depth; submissions beyond it block.
    pub queue_depth: usize,
    /// Validated-AIK cache capacity in certificates; `0` disables the
    /// cache (every job pays the full certificate validation).
    pub cert_cache_capacity: usize,
    /// Nonce lifetime, as [`VerifierConfig::nonce_ttl`].
    pub nonce_ttl: Duration,
    /// Measurements of PAL versions the provider accepts.
    pub trusted_pals: HashSet<Sha1Digest>,
    /// Flight recorder the workers install per-thread sinks on; `None`
    /// (the default) disables tracing entirely.
    pub recorder: Option<Arc<Recorder>>,
    /// Settlement journal. When set, every settle decision is written
    /// ahead of its acknowledgement (WAL-before-ack): the settlement
    /// appends a `Settle` record and waits for a covering flush before
    /// the verdict is returned (or its ticket resolves), so no accepted
    /// (or consumed-nonce) outcome can be forgotten by a crash.
    pub journal: Option<Arc<Journal>>,
    /// Admission control for [`VerifierService::try_submit_evidence`]:
    /// when set, submissions arriving while the policy's bound of jobs
    /// is already waiting in the queue are shed *early* with a typed
    /// retry-after hint ([`SubmitError::Overloaded`]) instead of racing
    /// the channel and reporting a bare [`SubmitError::QueueFull`].
    /// `None` keeps the legacy behavior. The policy type is shared with
    /// `utp-netsim`'s fleet simulator, whose E13 saturation sweep tunes
    /// it.
    pub admission: Option<AdmissionConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new(2, 4)
    }
}

impl ServiceConfig {
    /// Default policy with explicit pool geometry.
    pub fn new(threads: usize, shards: usize) -> Self {
        Self::from_verifier_config(&VerifierConfig::default(), threads, shards)
    }

    /// Derives service sizing from a verifier policy, so a provider's
    /// settlement keeps that policy's acceptance rules (TTL, trusted
    /// PALs).
    pub fn from_verifier_config(config: &VerifierConfig, threads: usize, shards: usize) -> Self {
        ServiceConfig {
            threads,
            shards,
            queue_depth: 256,
            cert_cache_capacity: 1024,
            nonce_ttl: config.nonce_ttl,
            trusted_pals: config.trusted_pals.clone(),
            recorder: None,
            journal: None,
            admission: None,
        }
    }
}

/// Why a submission was not enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue is at capacity (backpressure; retry or shed).
    QueueFull,
    /// Admission control shed the submission before it touched the
    /// queue; the client should retry no sooner than `retry_after`.
    /// Only returned when [`ServiceConfig::admission`] is set.
    Overloaded {
        /// Back-off hint proportional to the backlog at shed time.
        retry_after: Duration,
    },
    /// The service has shut down and accepts no further work.
    ShutDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull => write!(f, "submission queue full"),
            SubmitError::Overloaded { retry_after } => {
                write!(f, "service overloaded; retry after {retry_after:?}")
            }
            SubmitError::ShutDown => write!(f, "verification service shut down"),
        }
    }
}

impl Error for SubmitError {}

/// A claim on one in-flight verification; [`Ticket::wait`] blocks until
/// the worker publishes the verdict.
#[derive(Debug)]
pub struct Ticket<T> {
    rx: channel::Receiver<Result<T, VerifyError>>,
}

impl<T> Ticket<T> {
    /// Blocks for the verdict. If the service lost the worker before the
    /// job completed (it never does in normal operation, including
    /// shutdown, which drains the queue first), this resolves to
    /// [`VerifyError::ServiceUnavailable`] rather than hanging.
    pub fn wait(self) -> Result<T, VerifyError> {
        self.rx
            .recv()
            .unwrap_or(Err(VerifyError::ServiceUnavailable))
    }
}

/// One cached, already-validated AIK public key.
#[derive(Debug, Clone)]
struct CacheEntry {
    /// Last-touch tick for LRU eviction.
    tick: u64,
    aik: RsaPublicKey,
}

/// LRU cache of validated AIK certificates, keyed by the SHA-1 digest of
/// the exact certificate bytes (so a hit is sound: those bytes already
/// validated under the pinned CA key).
#[derive(Debug)]
struct CertCache {
    capacity: usize,
    state: Mutex<CacheState>,
    hits: Counter,
    misses: Counter,
}

#[derive(Debug, Clone, Default)]
struct CacheState {
    entries: HashMap<[u8; 20], CacheEntry>,
    tick: u64,
}

impl CertCache {
    fn new(capacity: usize) -> Self {
        CertCache {
            capacity,
            state: Mutex::new(CacheState::default()),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    fn fork(&self) -> Self {
        let state = self.state.lock().clone();
        CertCache {
            capacity: self.capacity,
            state: Mutex::new(state),
            hits: self.hits.clone(),
            misses: self.misses.clone(),
        }
    }

    /// Parses + validates `cert_bytes` under `ca_key`, serving repeat
    /// certificates from cache. `None` maps to `BadCertificate`.
    ///
    /// Cache hits and misses emit a volatile `svc.cache` trace event on
    /// the calling thread's sink — always after the state lock is
    /// released, never under it.
    fn resolve(&self, cert_bytes: &[u8], ca_key: &RsaPublicKey) -> Option<RsaPublicKey> {
        if self.capacity == 0 {
            self.misses.incr();
            self.trace_lookup(false);
            return AikCertificate::from_bytes(cert_bytes)?.validate(ca_key);
        }
        let key = *Sha1::digest(cert_bytes).as_bytes();
        {
            let mut state = self.state.lock();
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.entries.get_mut(&key) {
                entry.tick = tick;
                let aik = entry.aik.clone();
                drop(state);
                self.hits.incr();
                self.trace_lookup(true);
                return Some(aik);
            }
        }
        self.misses.incr();
        self.trace_lookup(false);
        let aik = AikCertificate::from_bytes(cert_bytes)?.validate(ca_key)?;
        let mut state = self.state.lock();
        state.tick += 1;
        let tick = state.tick;
        if state.entries.len() >= self.capacity && !state.entries.contains_key(&key) {
            // O(capacity) eviction scan; capacities are small (certs are
            // one per client fleet, not one per transaction).
            if let Some(victim) = state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| *k)
            {
                state.entries.remove(&victim);
            }
        }
        state.entries.insert(
            key,
            CacheEntry {
                tick,
                aik: aik.clone(),
            },
        );
        Some(aik)
    }

    /// Emits the volatile hit/miss event (no-op on untraced threads).
    fn trace_lookup(&self, hit: bool) {
        utp_trace::event_volatile(
            names::SVC_CACHE,
            Duration::ZERO,
            &[(keys::HIT, Value::Bool(hit))],
        );
    }
}

/// The provider's settlement: the core [`Settler`] (sharded nonce
/// ledgers, per-shard counters, CA key and trusted PALs) plus the two
/// things it cannot know — the AIK certificate cache and the settlement
/// journal. See the module docs. Every method takes `&self`, so one
/// settlement can serve an inline caller and a worker pool through the
/// same `Arc`.
#[derive(Debug)]
pub struct Settlement {
    settler: Settler,
    cache: CertCache,
    /// Settlement WAL (see [`ServiceConfig::journal`]); set at most once.
    journal: OnceLock<Arc<Journal>>,
}

impl Settlement {
    /// A settlement pinning `ca_key`, sized and configured by `config`'s
    /// `shards` (clamped to ≥ 1), `cert_cache_capacity`, `nonce_ttl`,
    /// `trusted_pals` and `journal`; the pool fields are ignored.
    pub(crate) fn new(ca_key: RsaPublicKey, config: &ServiceConfig) -> Self {
        Settlement {
            settler: Settler::new(
                ca_key,
                config.trusted_pals.clone(),
                config.nonce_ttl,
                config.shards,
            ),
            cache: CertCache::new(config.cert_cache_capacity),
            journal: config
                .journal
                .clone()
                .map(OnceLock::from)
                .unwrap_or_default(),
        }
    }

    /// Deep copy for state-space branching: ledgers, cache, counters
    /// and the journal (media *and* unflushed caches) are all copied, so
    /// the fork and the original settle independently.
    pub(crate) fn fork(&self) -> Settlement {
        Settlement {
            settler: self.settler.fork(),
            cache: self.cache.fork(),
            journal: self
                .journal
                .get()
                .map(|j| OnceLock::from(Arc::new(j.fork())))
                .unwrap_or_default(),
        }
    }

    /// Starts journaling settle decisions to `journal`. A settlement
    /// keeps the first journal it is given: returns `false`, and changes
    /// nothing, if one is already attached.
    pub(crate) fn attach_journal(&self, journal: Arc<Journal>) -> bool {
        self.journal.set(journal).is_ok()
    }

    /// The attached journal, if any.
    pub(crate) fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.get()
    }

    /// The settlement core: shards, counters and nonce-ledger state.
    pub fn settler(&self) -> &Settler {
        &self.settler
    }

    /// Settles evidence for `order` and journals the verdict: the core's
    /// [`Settler::settle_evidence`] with AIK certificates served from the
    /// cache, then the decision written ahead of returning it
    /// (WAL-before-ack).
    ///
    /// # Errors
    ///
    /// As [`Settler::settle_evidence`].
    pub fn verify_settling(
        &self,
        order: u64,
        evidence: &Evidence,
        now: Duration,
    ) -> Result<VerifiedTransaction, VerifyError> {
        let outcome = self.settler.settle_evidence(evidence, now, |cert| {
            self.cache.resolve(cert, self.settler.ca_key())
        });
        self.journal_verdict(order, evidence, now, &outcome);
        outcome
    }

    /// Journals a verdict on `order`'s evidence and waits for a covering
    /// flush, so the decision is durable before anyone acts on it. The
    /// nonce comes from the token; evidence that did not even parse is
    /// journaled under the zero nonce (no ledger effect on recovery). A
    /// no-op without a journal.
    pub(crate) fn journal_verdict<T>(
        &self,
        order: u64,
        evidence: &Evidence,
        now: Duration,
        outcome: &Result<T, VerifyError>,
    ) {
        if let Some(journal) = self.journal.get() {
            let nonce = evidence
                .token()
                .map(|t| *t.nonce.as_bytes())
                .unwrap_or([0u8; 20]);
            let receipt = journal.append_record(&JournalRecord::Settle {
                order_id: order,
                nonce,
                at: now,
                outcome: outcome.as_ref().map(|_| ()).map_err(|e| *e),
            });
            journal.sync_to(receipt.seq);
        }
    }
}

/// Pool state shared between the handle and the workers.
#[derive(Debug)]
struct Inner {
    settlement: Arc<Settlement>,
    /// Jobs accepted into the queue and not yet picked up by a worker
    /// (a worker decrements it on dequeue, before verifying).
    queue_gauge: Gauge,
    /// Allocates one sequence number per accepted submission, shared by
    /// the deterministic `svc.submit` event and the worker's `svc.job`
    /// record so the two can be joined offline.
    submit_seq: Counter,
    /// Submissions bounced by `try_submit_evidence` on a full queue —
    /// the shed-rate numerator fleet-scale admission control keys on.
    shed: Counter,
    /// Jobs executed per worker thread (utilization spread).
    worker_jobs: Vec<Counter>,
    /// Host nanoseconds the final drain took (set once by `finish`).
    drain_ns: Counter,
    /// Early-shed policy (see [`ServiceConfig::admission`]).
    admission: Option<AdmissionConfig>,
    /// Submissions shed by admission control with a typed retry-after
    /// (a subset of the overload signal `shed` does not cover: these
    /// never raced the channel).
    shed_admission: Counter,
}

impl Inner {
    /// Runs one dequeued job on worker `worker`, emitting the volatile
    /// per-job flight record (queue wait, verify CPU, outcome) on the
    /// worker's sink. No lock is held at any emission point. The verdict
    /// is journaled inside [`Settlement::verify_settling`], so the ticket
    /// resolves only after a covering flush.
    fn run(&self, queued: Queued, worker: usize) {
        let wait = queued.enqueued.elapsed();
        self.queue_gauge.decr();
        self.worker_jobs[worker].incr();
        utp_trace::event_volatile(
            names::SVC_QUEUE_DEPTH,
            Duration::ZERO,
            &[(keys::DEPTH, Value::U64(self.queue_gauge.get()))],
        );
        let WorkItem {
            evidence,
            now,
            order,
            reply,
        } = queued.item;
        let (outcome, cpu) =
            crate::metrics::host_timed(|| self.settlement.verify_settling(order, &evidence, now));
        utp_trace::span_volatile(
            names::SVC_JOB,
            now,
            cpu,
            &[
                (keys::SEQ, Value::U64(queued.seq)),
                (keys::WORKER, Value::U64(worker as u64)),
                (keys::OUTCOME, Value::Str(outcome_label(&outcome))),
                (keys::WAIT_HOST, Value::HostNs(wait.as_nanos() as u64)),
                (keys::VERIFY_HOST, Value::HostNs(cpu.as_nanos() as u64)),
            ],
        );
        let _ = reply.send(outcome);
    }
}

/// One queued unit of work: settling verification of raw evidence
/// against registered nonces.
struct WorkItem {
    evidence: Evidence,
    now: Duration,
    /// Store order id the evidence settles, or [`NO_ORDER`].
    order: u64,
    reply: channel::Sender<Result<VerifiedTransaction, VerifyError>>,
}

/// A [`WorkItem`] with its flight-recording envelope: the submission
/// sequence number and the host stopwatch measuring enqueue-to-dequeue
/// wait across the channel.
struct Queued {
    item: WorkItem,
    seq: u64,
    enqueued: HostStopwatch,
}

/// Flattens an outcome to the label the trace's `outcome` field carries.
fn outcome_label<T>(outcome: &Result<T, VerifyError>) -> String {
    match outcome {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("{e:?}"),
    }
}

/// The bounded queue and worker pool around a [`Settlement`]. See the
/// module docs.
///
/// Dropping the service (or calling [`VerifierService::shutdown`]) stops
/// intake, drains every queued job, and joins the workers.
#[derive(Debug)]
pub struct VerifierService {
    inner: Arc<Inner>,
    queue: Option<channel::Sender<Queued>>,
    workers: Vec<JoinHandle<()>>,
}

impl VerifierService {
    /// Starts the worker pool around a new [`Settlement`] built from
    /// `config`. Thread/shard counts are clamped to ≥ 1.
    pub fn start(ca_key: RsaPublicKey, config: ServiceConfig) -> Self {
        let settlement = Arc::new(Settlement::new(ca_key, &config));
        Self::serve(settlement, config)
    }

    /// Starts the worker pool around an existing settlement, which keeps
    /// its own shards, cache, policy and journal: only `config`'s
    /// `threads`, `queue_depth`, `recorder` and `admission` apply.
    pub(crate) fn serve(settlement: Arc<Settlement>, config: ServiceConfig) -> Self {
        let threads = config.threads.max(1);
        let inner = Arc::new(Inner {
            settlement,
            queue_gauge: Gauge::new(),
            submit_seq: Counter::new(),
            shed: Counter::new(),
            worker_jobs: (0..threads).map(|_| Counter::new()).collect(),
            drain_ns: Counter::new(),
            admission: config.admission,
            shed_admission: Counter::new(),
        });
        let (queue, intake) = channel::bounded::<Queued>(config.queue_depth.max(1));
        let workers = (0..threads)
            .map(|worker| {
                let inner = Arc::clone(&inner);
                let intake = intake.clone();
                let recorder = config.recorder.clone();
                std::thread::spawn(move || {
                    // Holds the worker's trace sink for the thread's whole
                    // life; dropping it at exit flushes the ring.
                    let _sink = recorder
                        .as_ref()
                        .map(|r| r.install(&format!("worker/{worker}")));
                    // `recv` drains remaining items after the handle drops
                    // the sender, so shutdown never abandons a ticket.
                    while let Ok(queued) = intake.recv() {
                        inner.run(queued, worker);
                    }
                })
            })
            .collect();
        VerifierService {
            inner,
            queue: Some(queue),
            workers,
        }
    }

    /// Registers an issued request with its settlement shard, enabling
    /// later evidence submission for its nonce.
    pub fn register(&self, request: &TransactionRequest, now: Duration) {
        self.inner.settlement.settler().register(request, now);
    }

    /// Submits evidence for settling verification, blocking while the
    /// queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] once [`VerifierService::shutdown`] ran.
    pub fn submit_evidence(
        &self,
        evidence: Evidence,
        now: Duration,
    ) -> Result<Ticket<VerifiedTransaction>, SubmitError> {
        self.submit_evidence_for_order(NO_ORDER, evidence, now)
    }

    /// As [`VerifierService::submit_evidence`], but tags the settle
    /// decision with the store order it concerns so the journaled record
    /// (and recovered audit history) can name the order.
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] once [`VerifierService::shutdown`] ran.
    pub fn submit_evidence_for_order(
        &self,
        order: u64,
        evidence: Evidence,
        now: Duration,
    ) -> Result<Ticket<VerifiedTransaction>, SubmitError> {
        self.enqueue(order, evidence, now, true)
    }

    /// Non-blocking variant of [`VerifierService::submit_evidence`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when admission control
    /// ([`ServiceConfig::admission`]) sheds the submission early with a
    /// retry-after hint, [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShutDown`] after shutdown.
    pub fn try_submit_evidence(
        &self,
        evidence: Evidence,
        now: Duration,
    ) -> Result<Ticket<VerifiedTransaction>, SubmitError> {
        if let Some(policy) = &self.inner.admission {
            let depth = self.inner.queue_gauge.get() as usize;
            if let Admission::Shed { retry_after } = policy.decide(depth) {
                self.inner.shed.incr();
                self.inner.shed_admission.incr();
                return Err(SubmitError::Overloaded { retry_after });
            }
        }
        self.enqueue(NO_ORDER, evidence, now, false)
    }

    /// Queues one job, blocking on a full queue when `block` is set and
    /// bouncing it with [`SubmitError::QueueFull`] otherwise.
    fn enqueue(
        &self,
        order: u64,
        evidence: Evidence,
        now: Duration,
        block: bool,
    ) -> Result<Ticket<VerifiedTransaction>, SubmitError> {
        let (reply, rx) = channel::bounded(1);
        let queue = self.queue.as_ref().ok_or(SubmitError::ShutDown)?;
        let seq = self.inner.submit_seq.next();
        self.inner.queue_gauge.incr();
        let queued = Queued {
            item: WorkItem {
                evidence,
                now,
                order,
                reply,
            },
            seq,
            enqueued: HostStopwatch::start(),
        };
        let sent = if block {
            queue.send(queued).map_err(|_| SubmitError::ShutDown)
        } else {
            queue.try_send(queued).map_err(|e| match e {
                TrySendError::Full(_) => {
                    self.inner.shed.incr();
                    SubmitError::QueueFull
                }
                TrySendError::Disconnected(_) => SubmitError::ShutDown,
            })
        };
        if let Err(e) = sent {
            self.inner.queue_gauge.decr();
            return Err(e);
        }
        utp_trace::event(names::SVC_SUBMIT, now, &[(keys::SEQ, Value::U64(seq))]);
        Ok(Ticket { rx })
    }

    /// Submits a batch of evidence and waits for all verdicts,
    /// positionally aligned with the input.
    pub fn verify_evidence_batch(
        &self,
        batch: Vec<Evidence>,
        now: Duration,
    ) -> Vec<Result<VerifiedTransaction, VerifyError>> {
        let tickets: Vec<_> = batch
            .into_iter()
            .map(|evidence| self.submit_evidence(evidence, now))
            .collect();
        tickets
            .into_iter()
            .map(|t| match t {
                Ok(ticket) => ticket.wait(),
                Err(_) => Err(VerifyError::ServiceUnavailable),
            })
            .collect()
    }

    /// Jobs waiting in the queue — accepted, not yet picked up by a
    /// worker (running jobs are not counted) — sampled from the live
    /// gauge. This is the depth admission control reads.
    pub fn queue_depth(&self) -> u64 {
        self.inner.queue_gauge.get()
    }

    /// Snapshot of per-shard settlement counters, cache hit counters,
    /// and the overload instrumentation (sheds, queue watermark,
    /// per-worker utilization; drain time once shutdown ran).
    pub fn stats(&self) -> ServiceStats {
        let settlement = &self.inner.settlement;
        ServiceStats {
            shards: settlement.settler().counters(),
            cert_cache_hits: settlement.cache.hits.get(),
            cert_cache_misses: settlement.cache.misses.get(),
            jobs_shed: self.inner.shed.get(),
            jobs_shed_admission: self.inner.shed_admission.get(),
            queue_depth_watermark: self.inner.queue_gauge.watermark(),
            drain_time: Duration::from_nanos(self.inner.drain_ns.get()),
            worker_jobs: self.inner.worker_jobs.iter().map(Counter::get).collect(),
        }
    }

    /// Stops intake, drains every queued job (their tickets resolve) and
    /// joins the workers. Returns the final counter snapshot.
    pub fn shutdown(mut self) -> ServiceStats {
        self.finish();
        self.stats()
    }

    fn finish(&mut self) {
        // Dropping the sender disconnects the intake queue; workers drain
        // what was already accepted and exit.
        let was_running = self.queue.take().is_some();
        if was_running {
            utp_trace::event_volatile(
                names::SVC_DRAIN,
                Duration::ZERO,
                &[(keys::PENDING, Value::U64(self.inner.queue_gauge.get()))],
            );
        }
        let drain = HostStopwatch::start();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        if was_running {
            self.inner.drain_ns.add(drain.elapsed().as_nanos() as u64);
        }
        if was_running {
            utp_trace::event_volatile(
                names::SVC_DRAIN,
                Duration::ZERO,
                &[(keys::PENDING, Value::U64(self.inner.queue_gauge.get()))],
            );
        }
    }
}

impl Drop for VerifierService {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use utp_core::ca::PrivacyCa;
    use utp_core::client::{Client, ClientConfig};
    use utp_core::operator::{ConfirmingHuman, Intent};
    use utp_core::protocol::Transaction;
    use utp_core::verifier::Verifier;
    use utp_platform::machine::{Machine, MachineConfig};

    struct World {
        ca_key: RsaPublicKey,
        requests: Vec<TransactionRequest>,
        evidence: Vec<Evidence>,
        now: Duration,
    }

    /// `n` genuine confirmations from one enrolled client.
    fn world(n: usize, seed: u64) -> World {
        let ca = PrivacyCa::new(512, seed);
        let mut verifier = Verifier::new(ca.public_key().clone(), seed + 1);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(seed + 2));
        let enrollment = ca.enroll(&mut machine);
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        let mut requests = Vec::new();
        let mut evidence = Vec::new();
        for i in 0..n {
            let tx = Transaction::new(i as u64, "shop", 100 + i as u64, "EUR", "svc");
            let request = verifier.issue_request(tx.clone(), machine.now());
            let mut human = ConfirmingHuman::new(Intent::approving(&tx), 300 + i as u64);
            evidence.push(client.confirm(&mut machine, &request, &mut human).unwrap());
            requests.push(request);
        }
        World {
            ca_key: ca.public_key().clone(),
            requests,
            evidence,
            now: machine.now(),
        }
    }

    fn service(w: &World, threads: usize, shards: usize) -> VerifierService {
        let svc = VerifierService::start(w.ca_key.clone(), ServiceConfig::new(threads, shards));
        for r in &w.requests {
            svc.register(r, w.now);
        }
        svc
    }

    #[test]
    fn accepts_genuine_evidence_on_every_shard() {
        let w = world(8, 1000);
        let svc = service(&w, 2, 4);
        // Settle the first job alone so both workers cannot miss the
        // cache concurrently on the same certificate.
        let first = svc.submit_evidence(w.evidence[0].clone(), w.now).unwrap();
        assert!(first.wait().is_ok());
        let verdicts = svc.verify_evidence_batch(w.evidence[1..].to_vec(), w.now);
        assert!(verdicts.iter().all(|v| v.is_ok()), "{:?}", verdicts);
        let stats = svc.shutdown();
        assert_eq!(stats.totals().accepted, 8);
        assert_eq!(stats.totals().registered, 8);
        // Single client: first job misses, the rest hit the cert cache.
        assert_eq!(stats.cert_cache_misses, 1);
        assert_eq!(stats.cert_cache_hits, 7);
    }

    #[test]
    fn replay_and_unknown_nonce_are_counted() {
        let w = world(2, 1100);
        let svc = service(&w, 1, 2);
        assert!(svc
            .submit_evidence(w.evidence[0].clone(), w.now)
            .unwrap()
            .wait()
            .is_ok());
        let replay = svc
            .submit_evidence(w.evidence[0].clone(), w.now)
            .unwrap()
            .wait();
        assert_eq!(replay, Err(VerifyError::Replayed));
        // Evidence for a nonce never registered here.
        let other = world(1, 1200);
        let unknown = svc
            .submit_evidence(other.evidence[0].clone(), w.now)
            .unwrap()
            .wait();
        assert_eq!(unknown, Err(VerifyError::UnknownNonce));
        let totals = svc.stats().totals();
        assert_eq!(totals.accepted, 1);
        assert_eq!(totals.replayed, 1);
        assert_eq!(totals.rejected, 1);
    }

    #[test]
    fn every_worker_job_is_counted_once() {
        let w = world(1, 1250);
        let svc = service(&w, 1, 4);
        let mut tampered = w.evidence[0].clone();
        tampered.quote.signature[0] ^= 1;
        let mut garbage = w.evidence[0].clone();
        garbage.token_bytes = vec![1, 2, 3];
        let submissions = [
            w.evidence[0].clone(),
            w.evidence[0].clone(),
            tampered,
            garbage,
        ];
        let _ = svc.verify_evidence_batch(submissions.to_vec(), w.now);
        let stats = svc.shutdown();
        let t = stats.totals();
        assert_eq!(
            t.accepted + t.rejected + t.replayed,
            stats.worker_jobs.iter().sum::<u64>(),
            "{t:?}"
        );
    }

    #[test]
    fn expired_nonce_rejected() {
        let w = world(1, 1300);
        let svc = service(&w, 1, 1);
        let late = w.now + Duration::from_secs(301);
        let verdict = svc
            .submit_evidence(w.evidence[0].clone(), late)
            .unwrap()
            .wait();
        assert_eq!(verdict, Err(VerifyError::Expired));
        assert!(svc.inner.settlement.settler().ledger_export().0.is_empty());
    }

    #[test]
    fn corrupted_signature_rejected_and_nonce_stays_pending() {
        let w = world(1, 1400);
        let svc = service(&w, 1, 1);
        let mut bad = w.evidence[0].clone();
        bad.quote.signature[0] ^= 1;
        let verdict = svc.submit_evidence(bad, w.now).unwrap().wait();
        assert_eq!(verdict, Err(VerifyError::BadQuote));
        // Crypto failures are retryable: the genuine evidence still lands.
        assert_eq!(svc.inner.settlement.settler().ledger_export().0.len(), 1);
        assert!(svc
            .submit_evidence(w.evidence[0].clone(), w.now)
            .unwrap()
            .wait()
            .is_ok());
    }

    #[test]
    fn shutdown_drains_in_flight_jobs() {
        let w = world(16, 1500);
        let svc = service(&w, 2, 2);
        let tickets: Vec<_> = w
            .evidence
            .iter()
            .map(|e| svc.submit_evidence(e.clone(), w.now).unwrap())
            .collect();
        // Shut down immediately: every ticket must still resolve Ok.
        let stats = svc.shutdown();
        for t in tickets {
            assert!(t.wait().is_ok());
        }
        assert_eq!(stats.totals().accepted, 16);
    }

    #[test]
    fn tiny_queue_applies_backpressure_without_loss() {
        let w = world(24, 1600);
        let mut config = ServiceConfig::new(2, 2);
        config.queue_depth = 1;
        let svc = VerifierService::start(w.ca_key.clone(), config);
        for r in &w.requests {
            svc.register(r, w.now);
        }
        // Blocking sends ride the backpressure; nothing is dropped.
        let verdicts = svc.verify_evidence_batch(w.evidence.clone(), w.now);
        assert!(verdicts.iter().all(|v| v.is_ok()));
    }

    #[test]
    fn try_submit_retry_loop_completes_under_backpressure() {
        let w = world(12, 1700);
        let mut config = ServiceConfig::new(1, 1);
        config.queue_depth = 1;
        let svc = VerifierService::start(w.ca_key.clone(), config);
        for r in &w.requests {
            svc.register(r, w.now);
        }
        let mut tickets = Vec::new();
        for e in &w.evidence {
            loop {
                match svc.try_submit_evidence(e.clone(), w.now) {
                    Ok(t) => {
                        tickets.push(t);
                        break;
                    }
                    Err(SubmitError::QueueFull) => std::thread::yield_now(),
                    Err(e) => panic!("no admission policy configured: {e}"),
                }
            }
        }
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
    }

    #[test]
    fn overload_counters_track_sheds_watermark_and_drain() {
        let w = world(12, 2600);
        let mut config = ServiceConfig::new(1, 1);
        config.queue_depth = 1;
        let svc = VerifierService::start(w.ca_key.clone(), config);
        for r in &w.requests {
            svc.register(r, w.now);
        }
        let mut tickets = Vec::new();
        let mut sheds = 0u64;
        for e in &w.evidence {
            loop {
                match svc.try_submit_evidence(e.clone(), w.now) {
                    Ok(t) => {
                        tickets.push(t);
                        break;
                    }
                    Err(SubmitError::QueueFull) => {
                        sheds += 1;
                        std::thread::yield_now();
                    }
                    Err(e) => panic!("no admission policy configured: {e}"),
                }
            }
        }
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
        let stats = svc.shutdown();
        assert_eq!(stats.jobs_shed, sheds, "every QueueFull bounce is counted");
        assert!(
            stats.queue_depth_watermark >= 1,
            "at least one job sat in the queue"
        );
        assert!(
            stats.drain_time > Duration::ZERO,
            "shutdown measured its drain"
        );
        assert_eq!(stats.worker_jobs.len(), 1);
        assert_eq!(
            stats.worker_jobs.iter().sum::<u64>(),
            12,
            "every job ran on a worker"
        );
    }

    #[test]
    fn admission_policy_sheds_early_with_typed_retry_after() {
        let w = world(1, 2700);
        let mut config = ServiceConfig::new(1, 1);
        config.queue_depth = 64;
        // One queued job is the ceiling; hint grows 200µs per queued job.
        config.admission = Some(AdmissionConfig::for_service_time(
            1,
            Duration::from_micros(200),
        ));
        let svc = VerifierService::start(w.ca_key.clone(), config);
        for r in &w.requests {
            svc.register(r, w.now);
        }
        // Burst far faster than one worker can verify: cloning and
        // enqueueing evidence is orders of magnitude cheaper than an RSA
        // verify, so the gauge is non-zero for most submissions and the
        // policy must fire. Replays of one evidence still pay the
        // full crypto path before the settle table rejects them.
        let mut tickets = Vec::new();
        let mut overloaded = 0u64;
        let mut hint = Duration::ZERO;
        for _ in 0..512 {
            match svc.try_submit_evidence(w.evidence[0].clone(), w.now) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Overloaded { retry_after }) => {
                    overloaded += 1;
                    hint = hint.max(retry_after);
                }
                Err(e) => panic!("queue is deeper than the policy: {e}"),
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        assert!(overloaded > 0, "the burst must trip admission control");
        // floor (200µs) + at least one queued job's worth (200µs).
        assert!(
            hint >= Duration::from_micros(400),
            "retry hint must reflect the backlog: {hint:?}"
        );
        let stats = svc.shutdown();
        assert_eq!(
            stats.jobs_shed_admission, overloaded,
            "every typed shed is counted"
        );
        assert_eq!(
            stats.jobs_shed, overloaded,
            "admission sheds roll up into the overall shed counter"
        );
    }

    #[test]
    fn cache_disabled_still_verifies() {
        let w = world(3, 1800);
        let mut config = ServiceConfig::new(1, 1);
        config.cert_cache_capacity = 0;
        let svc = VerifierService::start(w.ca_key.clone(), config);
        for r in &w.requests {
            svc.register(r, w.now);
        }
        let verdicts = svc.verify_evidence_batch(w.evidence.clone(), w.now);
        assert!(verdicts.iter().all(|v| v.is_ok()));
        let stats = svc.stats();
        assert_eq!(stats.cert_cache_hits, 0);
        assert_eq!(stats.cert_cache_misses, 3);
    }

    #[test]
    fn flight_recorder_captures_submit_and_job_records() {
        let w = world(4, 1900);
        let recorder = Arc::new(Recorder::new());
        let mut config = ServiceConfig::new(2, 2);
        config.recorder = Some(Arc::clone(&recorder));
        let svc = VerifierService::start(w.ca_key.clone(), config);
        for r in &w.requests {
            svc.register(r, w.now);
        }
        {
            let _sink = recorder.install("client");
            let verdicts = svc.verify_evidence_batch(w.evidence.clone(), w.now);
            assert!(verdicts.iter().all(|v| v.is_ok()));
            assert_eq!(svc.queue_depth(), 0, "all jobs completed");
            svc.shutdown();
        }
        let recs = recorder.records();
        let count = |n: &str| recs.iter().filter(|r| r.name == n).count();
        assert_eq!(count(names::SVC_SUBMIT), 4, "one submit event per job");
        assert_eq!(count(names::SVC_JOB), 4, "one worker record per job");
        assert_eq!(count(names::SVC_CACHE), 4, "one cache lookup per job");
        assert_eq!(count(names::SVC_QUEUE_DEPTH), 4);
        assert_eq!(count(names::SVC_DRAIN), 2, "drain start and end markers");
        // Submitter-side events are deterministic; worker-side records
        // are volatile and stay out of the canonical export.
        let canonical = recorder.export_jsonl(utp_trace::Export::Canonical);
        assert!(canonical.contains("svc.submit"));
        assert!(!canonical.contains("svc.job"));
        assert!(!canonical.contains("svc.cache"));
        let full = recorder.export_jsonl(utp_trace::Export::Full);
        assert!(full.contains("wait_host"));
        assert!(full.contains("verify_host"));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let cache = CertCache::new(2);
        let cas: Vec<PrivacyCa> = (0..3).map(|i| PrivacyCa::new(512, 2000 + i)).collect();
        let ca_key = cas[0].public_key().clone();
        // Three distinct certs all signed by CA 0 so they validate.
        let certs: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                let pair = utp_crypto::rsa::RsaKeyPair::generate(512, 2100 + i as u64);
                cas[0].certify(pair.public()).to_bytes()
            })
            .collect();
        assert!(cache.resolve(&certs[0], &ca_key).is_some()); // miss
        assert!(cache.resolve(&certs[1], &ca_key).is_some()); // miss
        assert!(cache.resolve(&certs[0], &ca_key).is_some()); // hit (0 fresh)
        assert!(cache.resolve(&certs[2], &ca_key).is_some()); // miss, evicts 1
        assert!(cache.resolve(&certs[0], &ca_key).is_some()); // hit (0 survived)
        assert!(cache.resolve(&certs[1], &ca_key).is_some()); // miss: was evicted
        assert_eq!(cache.hits.get(), 2);
        assert_eq!(cache.misses.get(), 4);
    }
}
