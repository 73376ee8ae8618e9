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
//!   Decisions settle through a [`Batch`]: each is the core's
//!   `settle_evidence` with certificates resolved through the cache,
//!   and its verdict is appended to the journal; [`Batch::commit`]
//!   issues **one covering flush per batch**, not one per decision, and
//!   only then releases the verdicts (WAL-before-ack).
//!   [`Settlement::verify_settling`], the inline path, is a batch of
//!   one on the calling thread; `Settlement::fork` deep-copies the
//!   settlement so the explorer can branch on it.
//! * [`VerifierService`] — a bounded submission queue and a pool of
//!   worker threads around an `Arc<Settlement>`. Each worker commits
//!   the job it dequeued plus whatever is already queued as one batch,
//!   then resolves their tickets in submission order. A full queue blocks
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
    /// appends a `Settle` record per decision and waits for one covering
    /// flush per batch (see [`Batch`]) before the verdicts are returned
    /// (or their tickets resolve), so no accepted (or consumed-nonce)
    /// outcome can be forgotten by a crash.
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

    /// Opens an empty [`Batch`] of settle decisions on this settlement.
    pub fn batch(&self) -> Batch<'_> {
        Batch {
            settlement: self,
            outcomes: Vec::new(),
            last_seq: None,
        }
    }

    /// Settles evidence for `order` as a batch of one: the decision
    /// goes through [`Batch::settle`] and comes back from
    /// [`Batch::commit`], so it is durable before it is returned
    /// (WAL-before-ack) at one append and one barrier.
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
        let mut batch = self.batch();
        batch.settle(order, evidence, now);
        batch
            .commit()
            .pop()
            .unwrap_or(Err(VerifyError::ServiceUnavailable))
    }
}

/// Settle decisions appended to the journal and not yet covered by a
/// flush: one group commit in the making. The verdicts stay sealed
/// inside; [`Batch::commit`] issues the one covering barrier and only
/// then hands them out, so no caller can act on a decision that a crash
/// could still forget (WAL-before-ack). A batch dropped uncommitted
/// releases nothing.
#[derive(Debug)]
#[must_use = "a batch releases its verdicts only through `commit`"]
pub struct Batch<'s> {
    settlement: &'s Settlement,
    outcomes: Vec<Result<VerifiedTransaction, VerifyError>>,
    /// Journal sequence number of the last appended verdict.
    last_seq: Option<u64>,
}

impl Batch<'_> {
    /// Settles evidence for `order` and appends the verdict: the core's
    /// [`Settler::settle_evidence`] with AIK certificates served from
    /// the settlement's cache. The nonce is consumed at once, so a later
    /// decision of the same batch already sees it.
    pub fn settle(&mut self, order: u64, evidence: &Evidence, now: Duration) {
        let settlement = self.settlement;
        let outcome = settlement.settler.settle_evidence(evidence, now, |cert| {
            settlement.cache.resolve(cert, settlement.settler.ca_key())
        });
        self.append(order, evidence, now, outcome);
    }

    /// Appends a rejection decided before settlement (the provider's
    /// order-binding check) under the same discipline as a settled
    /// verdict.
    pub(crate) fn reject(
        &mut self,
        order: u64,
        evidence: &Evidence,
        now: Duration,
        e: VerifyError,
    ) {
        self.append(order, evidence, now, Err(e));
    }

    /// Journals a verdict on `order`'s evidence (no flush) and seals it
    /// in the batch. The nonce comes from the token; evidence that did
    /// not even parse is journaled under the zero nonce (no ledger
    /// effect on recovery). Without a journal only the verdict is kept.
    fn append(
        &mut self,
        order: u64,
        evidence: &Evidence,
        now: Duration,
        outcome: Result<VerifiedTransaction, VerifyError>,
    ) {
        if let Some(journal) = self.settlement.journal.get() {
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
            self.last_seq = Some(receipt.seq);
        }
        self.outcomes.push(outcome);
    }

    /// The group commit: one [`Journal::sync_to`] at the batch's last
    /// sequence number, then the verdicts, in the order they were
    /// settled.
    pub fn commit(self) -> Vec<Result<VerifiedTransaction, VerifyError>> {
        if let Some(journal) = self.settlement.journal.get() {
            if let Some(seq) = self.last_seq {
                journal.sync_to(seq);
            }
        }
        self.outcomes
    }
}

/// Pool state shared between the handle and the workers.
#[derive(Debug)]
struct Inner {
    settlement: Arc<Settlement>,
    /// Jobs accepted into the queue and not yet picked up by a worker
    /// (a worker decrements it as it dequeues each job of a batch,
    /// before verifying any).
    queue_gauge: Gauge,
    /// Allocates one sequence number per accepted submission, shared by
    /// the deterministic `svc.submit` event and the worker's `svc.job`
    /// record so the two can be joined offline.
    submit_seq: Counter,
    /// Submissions bounced by `try_submit_evidence` on a full queue —
    /// the shed-rate numerator fleet-scale admission control keys on.
    shed: Counter,
    /// Jobs (not batches) executed per worker thread (utilization
    /// spread).
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
    /// Takes a job the worker `worker` just dequeued: the gauge falls at
    /// once, so admission control reads the queue as it is, and the
    /// job's queue wait is read off its stopwatch.
    fn take(&self, queued: Queued, worker: usize) -> Job {
        let wait = queued.enqueued.elapsed();
        self.queue_gauge.decr();
        self.worker_jobs[worker].incr();
        utp_trace::event_volatile(
            names::SVC_QUEUE_DEPTH,
            Duration::ZERO,
            &[(keys::DEPTH, Value::U64(self.queue_gauge.get()))],
        );
        Job {
            item: queued.item,
            seq: queued.seq,
            wait,
            cpu: Duration::ZERO,
        }
    }

    /// Runs the dequeued `jobs` on worker `worker` as one group commit:
    /// each settles and appends its verdict through one [`Batch`], one
    /// covering flush follows, and only then do the tickets resolve, in
    /// dequeue (submission) order. Each job's volatile flight record
    /// keeps its own queue wait and verify CPU (settle plus append); no
    /// lock is held at any emission point.
    fn run(&self, jobs: &mut Vec<Job>, worker: usize) {
        let mut batch = self.settlement.batch();
        for job in jobs.iter_mut() {
            let item = &job.item;
            job.cpu =
                crate::metrics::host_timed(|| batch.settle(item.order, &item.evidence, item.now)).1;
        }
        let outcomes = batch.commit();
        for (job, outcome) in jobs.drain(..).zip(outcomes) {
            utp_trace::span_volatile(
                names::SVC_JOB,
                job.item.now,
                job.cpu,
                &[
                    (keys::SEQ, Value::U64(job.seq)),
                    (keys::WORKER, Value::U64(worker as u64)),
                    (keys::OUTCOME, Value::Str(outcome_label(&outcome))),
                    (keys::WAIT_HOST, Value::HostNs(job.wait.as_nanos() as u64)),
                    (keys::VERIFY_HOST, Value::HostNs(job.cpu.as_nanos() as u64)),
                ],
            );
            let _ = job.item.reply.send(outcome);
        }
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

/// A dequeued [`WorkItem`] in a worker's batch, with its submission
/// sequence number and host-measured queue wait and verify CPU.
struct Job {
    item: WorkItem,
    seq: u64,
    wait: Duration,
    cpu: Duration,
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
                    // A batch is the job `recv` returned plus whatever is
                    // already queued, up to an even share of the backlog
                    // over the pool, so no other worker idles while one
                    // holds the queue. `recv` and `try_recv` drain
                    // remaining items after the handle drops the sender,
                    // so shutdown never abandons a ticket.
                    let mut jobs = Vec::new();
                    while let Ok(queued) = intake.recv() {
                        let share = (inner.queue_gauge.get() as usize).div_ceil(threads);
                        jobs.push(inner.take(queued, worker));
                        while jobs.len() < share {
                            let Ok(queued) = intake.try_recv() else {
                                break;
                            };
                            jobs.push(inner.take(queued, worker));
                        }
                        inner.run(&mut jobs, worker);
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
    use utp_journal::{DeviceProfile, JournalConfig, JournalStats};
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
        // Holding the certificate cache stalls the worker inside the
        // first job, so the burst meets a queue nobody drains, however
        // the threads are scheduled: the first job runs, the second
        // waits at the ceiling, and every later one is shed.
        let stall = svc.inner.settlement.cache.state.lock();
        let first = svc.try_submit_evidence(w.evidence[0].clone(), w.now);
        let mut tickets = vec![first.expect("an idle service admits")];
        while svc.queue_depth() > 0 {
            std::thread::yield_now();
        }
        let mut overloaded = 0u64;
        let mut hint = Duration::ZERO;
        for _ in 1..512 {
            match svc.try_submit_evidence(w.evidence[0].clone(), w.now) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::Overloaded { retry_after }) => {
                    overloaded += 1;
                    hint = hint.max(retry_after);
                }
                Err(e) => panic!("queue is deeper than the policy: {e}"),
            }
        }
        drop(stall);
        for t in tickets {
            let _ = t.wait();
        }
        assert_eq!(overloaded, 510, "all but the running and the queued job");
        // floor (200µs) + the one queued job's worth (200µs).
        assert_eq!(
            hint,
            Duration::from_micros(400),
            "retry hint must reflect the backlog"
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

    /// A journal whose own group commit is wider than any batch here, so
    /// every flush is a barrier the settlement asked for.
    fn barrier_only_journal() -> Arc<Journal> {
        Arc::new(Journal::new(JournalConfig::new(
            DeviceProfile::fast_for_tests(),
            64,
        )))
    }

    /// A settlement over `w`'s CA with every request registered and a
    /// [`barrier_only_journal`].
    fn journaled(w: &World) -> (Settlement, Arc<Journal>) {
        let journal = barrier_only_journal();
        let mut config = ServiceConfig::new(1, 2);
        config.journal = Some(Arc::clone(&journal));
        let settlement = Settlement::new(w.ca_key.clone(), &config);
        for r in &w.requests {
            settlement.settler().register(r, w.now);
        }
        (settlement, journal)
    }

    #[test]
    fn batch_of_four_pays_one_barrier_before_its_verdicts() {
        let w = world(3, 2800);
        let (settlement, journal) = journaled(&w);
        let mut batch = settlement.batch();
        // The replay of item 0 sees the nonce its own batch consumed.
        for (order, i) in [0, 1, 0, 2].into_iter().enumerate() {
            batch.settle(order as u64, &w.evidence[i], w.now);
        }
        let appended = JournalStats {
            appends: 4,
            ..JournalStats::default()
        };
        assert_eq!(journal.stats(), appended, "appended, no barrier yet");
        assert_eq!(journal.durable_seq(), 0);
        let verdicts = batch.commit();
        assert_eq!(journal.durable_seq(), 4, "released only once covered");
        assert_eq!(
            journal.stats(),
            JournalStats {
                syncs: 1,
                ..appended
            }
        );
        let verdicts: Vec<_> = verdicts.iter().map(|v| v.as_ref().map(|_| ())).collect();
        assert_eq!(
            verdicts,
            [Ok(()), Ok(()), Err(&VerifyError::Replayed), Ok(())]
        );
    }

    #[test]
    fn verify_settling_is_a_batch_of_one() {
        let w = world(3, 2900);
        let (settlement, journal) = journaled(&w);
        for (i, evidence) in w.evidence.iter().enumerate() {
            assert!(settlement
                .verify_settling(i as u64, evidence, w.now)
                .is_ok());
            let n = i as u64 + 1;
            let one_barrier_each = JournalStats {
                appends: n,
                syncs: n,
                ..JournalStats::default()
            };
            assert_eq!(journal.stats(), one_barrier_each);
            assert_eq!(journal.durable_seq(), n);
        }
    }

    /// Five jobs behind a worker stalled inside its first batch: the
    /// gauge falls as a job is dequeued, not when it settles; the jobs
    /// queued meanwhile share at most one more barrier; every job keeps
    /// its own count and flight record; shutdown drains them all.
    #[test]
    fn worker_group_commits_what_queued_behind_it() {
        let w = world(5, 3000);
        let journal = barrier_only_journal();
        let recorder = Arc::new(Recorder::new());
        let mut config = ServiceConfig::new(1, 2);
        config.journal = Some(Arc::clone(&journal));
        config.recorder = Some(Arc::clone(&recorder));
        let svc = VerifierService::start(w.ca_key.clone(), config);
        for r in &w.requests {
            svc.register(r, w.now);
        }
        // Holding the certificate cache stalls the worker mid-verify.
        let stall = svc.inner.settlement.cache.state.lock();
        let mut tickets = vec![svc.submit_evidence(w.evidence[0].clone(), w.now).unwrap()];
        while svc.queue_depth() > 0 {
            std::thread::yield_now();
        }
        for e in &w.evidence[1..] {
            tickets.push(svc.submit_evidence(e.clone(), w.now).unwrap());
        }
        drop(stall);
        let stats = svc.shutdown();
        assert!(tickets.into_iter().all(|t| t.wait().is_ok()));
        assert_eq!(stats.worker_jobs, [5], "jobs, not batches");
        let jstats = journal.stats();
        assert_eq!(jstats.appends, 5);
        assert!(jstats.syncs <= 2, "one barrier per batch: {jstats:?}");
        assert_eq!(journal.durable_seq(), 5);
        let recs = recorder.records();
        let field = |r: &utp_trace::TraceRecord, key: &str| {
            r.fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.clone())
        };
        let mut seqs = Vec::new();
        for r in recs.iter().filter(|r| r.name == names::SVC_JOB) {
            assert!(matches!(field(r, keys::WAIT_HOST), Some(Value::HostNs(_))));
            assert!(matches!(field(r, keys::VERIFY_HOST), Some(Value::HostNs(ns)) if ns > 0));
            match field(r, keys::SEQ) {
                Some(Value::U64(seq)) => seqs.push(seq),
                other => panic!("svc.job without a seq: {other:?}"),
            }
        }
        seqs.sort_unstable();
        assert_eq!(seqs, [0, 1, 2, 3, 4], "one flight record per job");
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
