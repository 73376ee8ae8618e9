//! Fleet scenarios: wire a topology, an arrival curve, and a modeled
//! provider together; run the event loop to drain; report.
//!
//! # Model
//!
//! The provider is modeled as a bounded queue in front of a worker
//! pool whose only cost is `verify_cost` of virtual time per evidence
//! verification — calibrated against the real `VerifierService` (an
//! RSA-2048 verify dominates at ~45 µs/op on the reference host).
//! Order placement and challenge issuance are modeled as free: they
//! are WAL appends and RNG draws, orders of magnitude cheaper than
//! the verify, and modeling them would only shift the knee without
//! changing its shape.
//!
//! A sampled fraction of clients can be wired to a
//! [`FullStackHook`] that drives the *real* provider + journal +
//! `VerifierService` stack per submission; the model still charges the
//! same virtual cost, so hooked clients measure correctness (double
//! spends, replay handling) without distorting the saturation curve.
//!
//! # Determinism
//!
//! Everything derives from the scenario seed and the virtual clock:
//! arrival draws, jitter, loss, reorder, backoff jitter, and the
//! event queue's stable tie-break. Two runs of the same scenario
//! produce byte-identical [`FleetReport::digest`] output.

use crate::admission::{Admission, AdmissionConfig};
use crate::bus::{ClassStats, Frame, MessageBus, Payload};
use crate::event::EventQueue;
use crate::fleet::{ArrivalCurve, FleetClient, Phase, RetryPolicy};
use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;
use utp_trace::LatencyHistogram;

/// Modeled provider parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProviderConfig {
    /// Verification worker count.
    pub workers: u32,
    /// Virtual time one evidence verification occupies a worker.
    pub verify_cost: Duration,
    /// Hard queue bound. With admission control off, arrivals beyond
    /// it are dropped silently (the legacy collapse mode).
    pub queue_limit: usize,
    /// Early-shed policy; `None` reproduces the silent-drop behavior.
    pub admission: Option<AdmissionConfig>,
}

impl Default for ProviderConfig {
    fn default() -> Self {
        ProviderConfig {
            workers: 4,
            verify_cost: Duration::from_micros(120),
            queue_limit: 256,
            admission: None,
        }
    }
}

/// Wire sizes per message kind, in bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSizes {
    /// Client → provider order placement.
    pub order: u32,
    /// Provider → client challenge.
    pub challenge: u32,
    /// Client → provider evidence (quote + cert chain dominate).
    pub evidence: u32,
    /// Provider → client receipt.
    pub receipt: u32,
    /// Provider → client retry-after notice.
    pub retry_after: u32,
}

impl Default for WireSizes {
    fn default() -> Self {
        WireSizes {
            order: 256,
            challenge: 128,
            evidence: 2_048,
            receipt: 512,
            retry_after: 64,
        }
    }
}

/// Outcome of one full-stack submission driven through a hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookOutcome {
    /// Evidence accepted; transaction settled.
    Settled,
    /// Caught as a replay of an already-settled transaction.
    Replayed,
    /// Evidence rejected.
    Rejected,
}

/// Drives the real provider stack for sampled clients. Called when the
/// modeled worker finishes a hooked client's verification, in a
/// deterministic order.
pub trait FullStackHook {
    /// Submit (or re-submit, when `replay`) the client's evidence.
    fn submit(&mut self, fleet_index: u32, replay: bool, at: Duration) -> HookOutcome;
}

/// A hook that never runs the real stack (pure-model scenarios).
pub struct NullHook;

impl FullStackHook for NullHook {
    fn submit(&mut self, _fleet_index: u32, _replay: bool, _at: Duration) -> HookOutcome {
        HookOutcome::Settled
    }
}

/// Tallies for the sampled full-stack clients.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullStackTally {
    /// Hook submissions issued.
    pub submitted: u64,
    /// First-time settlements.
    pub settled: u64,
    /// Replays caught by the real stack.
    pub replayed: u64,
    /// Rejections from the real stack.
    pub rejected: u64,
}

/// One fleet experiment: topology + arrivals + provider model.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Master seed; every random draw in the run derives from it.
    pub seed: u64,
    /// The network.
    pub topology: Topology,
    /// When orders arrive.
    pub arrival: ArrivalCurve,
    /// Arrival horizon (the run itself continues until drained).
    pub horizon: Duration,
    /// Client timeout/backoff policy.
    pub retry: RetryPolicy,
    /// Provider model parameters.
    pub provider: ProviderConfig,
    /// Message sizes.
    pub wire: WireSizes,
    /// Every Nth client drives the real stack through the hook
    /// (0 = pure model).
    pub full_stack_every: u32,
    /// Free-form run label, carried into the report.
    pub run_tag: String,
}

impl Scenario {
    /// A scenario over `topology` with default policies.
    pub fn new(
        topology: Topology,
        arrival: ArrivalCurve,
        horizon: Duration,
        seed: u64,
    ) -> Scenario {
        Scenario {
            seed,
            topology,
            arrival,
            horizon,
            retry: RetryPolicy::default(),
            provider: ProviderConfig::default(),
            wire: WireSizes::default(),
            full_stack_every: 0,
            run_tag: String::new(),
        }
    }

    /// Labels the run; the tag is serialized into the report and its
    /// artifacts (treated as a telemetry sink by `utp-analyze`).
    pub fn tag_run(&mut self, label: &str) {
        self.run_tag = label.to_string();
    }

    /// Runs the pure model (no full-stack clients).
    pub fn run(&self) -> FleetReport {
        self.run_with(&mut NullHook)
    }

    /// Runs the scenario to full drain, driving sampled clients
    /// through `hook`.
    pub fn run_with(&self, hook: &mut dyn FullStackHook) -> FleetReport {
        Sim::new(self, hook).run()
    }
}

/// Event vocabulary of the fleet loop.
enum Ev {
    /// The `i`-th arrival (in arrival-time order) fires.
    Arrive(u32),
    /// A frame survived the network and reaches its destination.
    Net(Frame),
    /// A client's wait (challenge or receipt) expires. Stale when the
    /// epoch moved on.
    Timeout { client: u32, epoch: u16 },
    /// A backoff or retry-after wait ends; resend for the current
    /// phase. Stale when the epoch moved on.
    Resend { client: u32, epoch: u16 },
    /// A provider worker finishes verifying `txn`.
    WorkerDone { txn: u32, replay: bool },
}

struct Sim<'a> {
    sc: &'a Scenario,
    hook: &'a mut dyn FullStackHook,
    q: EventQueue<Ev>,
    bus: MessageBus,
    rng: StdRng,
    clients: Vec<FleetClient>,
    epochs: Vec<u16>,
    /// Fleet index -> node id.
    node_of: Vec<NodeId>,
    /// Node id -> fleet index (u32::MAX for non-clients).
    fleet_of: Vec<u32>,
    /// Arrival order: fleet indices sorted by birth time.
    arrival_order: Vec<u32>,
    /// Provider state.
    workers_free: u32,
    queue: VecDeque<(u32, bool)>,
    settled: Vec<bool>,
    /// Virtual time of the last event that did real work. Stale timers
    /// popping after the fleet drained must not stretch the makespan.
    last_progress: Duration,
    report: FleetReport,
}

impl<'a> Sim<'a> {
    fn new(sc: &'a Scenario, hook: &'a mut dyn FullStackHook) -> Sim<'a> {
        let node_of: Vec<NodeId> = sc.topology.clients().collect();
        let n = node_of.len();
        let mut fleet_of = vec![u32::MAX; sc.topology.node_count() as usize];
        for (i, node) in node_of.iter().enumerate() {
            fleet_of[node.0 as usize] = i as u32;
        }
        let plan = sc.arrival.plan(sc.seed, n as u32, sc.horizon);
        let mut clients = Vec::with_capacity(n);
        for i in 0..n {
            let flaky = plan.flaky.get(i).copied().unwrap_or(false);
            clients.push(FleetClient::new(plan.born_at[i], flaky));
        }
        let mut arrival_order: Vec<u32> = (0..n as u32).collect();
        arrival_order.sort_by_key(|i| (clients[*i as usize].born_at, *i));
        let report = FleetReport {
            run_tag: sc.run_tag.clone(),
            fleet: n as u64,
            ..FleetReport::default()
        };
        Sim {
            sc,
            hook,
            q: EventQueue::new(),
            bus: MessageBus::new(sc.topology.clone(), sc.seed),
            rng: StdRng::seed_from_u64(sc.seed ^ 0x464c_4545_u64),
            clients,
            epochs: vec![0; n],
            node_of,
            fleet_of,
            arrival_order,
            workers_free: sc.provider.workers,
            queue: VecDeque::new(),
            settled: vec![false; n],
            last_progress: Duration::ZERO,
            report,
        }
    }

    fn run(mut self) -> FleetReport {
        if !self.arrival_order.is_empty() {
            let first = self.arrival_order[0];
            self.q
                .schedule(self.clients[first as usize].born_at, Ev::Arrive(0));
        }
        while let Some((now, ev)) = self.q.pop() {
            self.report.events_processed += 1;
            match ev {
                Ev::Arrive(order_idx) => {
                    self.last_progress = now;
                    self.on_arrive(order_idx, now);
                }
                Ev::Net(frame) => {
                    self.last_progress = now;
                    self.on_frame(frame, now);
                }
                Ev::Timeout { client, epoch } => self.on_timeout(client, epoch, now),
                Ev::Resend { client, epoch } => self.on_resend(client, epoch, now),
                Ev::WorkerDone { txn, replay } => {
                    self.last_progress = now;
                    self.on_worker_done(txn, replay, now);
                }
            }
        }
        self.report.makespan = self.last_progress;
        self.report.queue_depth_watermark = self
            .report
            .queue_depth_watermark
            .max(self.queue.len() as u64);
        self.report.link_stats = self
            .sc
            .topology
            .classes()
            .iter()
            .map(|(name, _)| name.clone())
            .zip(self.bus.class_stats().iter().copied())
            .collect();
        self.report
    }

    fn provider(&self) -> NodeId {
        self.sc.topology.provider()
    }

    fn bump_epoch(&mut self, client: u32) -> u16 {
        let e = &mut self.epochs[client as usize];
        *e = e.wrapping_add(1);
        *e
    }

    fn send(&mut self, frame: Frame, now: Duration) {
        if let Some(delay) = self.bus.transit(&frame, now) {
            self.q.schedule(now + delay, Ev::Net(frame));
        }
    }

    fn arm_timeout(&mut self, client: u32, now: Duration) {
        let epoch = self.epochs[client as usize];
        self.q
            .schedule(now + self.sc.retry.timeout, Ev::Timeout { client, epoch });
    }

    fn on_arrive(&mut self, order_idx: u32, now: Duration) {
        // Chain to the next arrival so the heap never holds the whole
        // fleet's arrival schedule at once.
        if let Some(next) = self.arrival_order.get(order_idx as usize + 1) {
            let at = self.clients[*next as usize].born_at;
            self.q.schedule(at, Ev::Arrive(order_idx + 1));
        }
        let client = self.arrival_order[order_idx as usize];
        let c = &mut self.clients[client as usize];
        c.phase = Phase::AwaitChallenge;
        c.attempts = 1;
        self.report.placed += 1;
        self.send_current(client, now);
    }

    /// (Re)sends whatever the client's phase calls for and arms the
    /// timeout for it.
    fn send_current(&mut self, client: u32, now: Duration) {
        let src = self.node_of[client as usize];
        let dst = self.provider();
        let (payload, bytes) = match self.clients[client as usize].phase {
            Phase::AwaitChallenge => (Payload::PlaceOrder, self.sc.wire.order),
            Phase::AwaitReceipt => {
                let replay = self.clients[client as usize].evidence_sent;
                self.clients[client as usize].evidence_sent = true;
                if replay {
                    self.report.replays_sent += 1;
                }
                (Payload::Evidence { replay }, self.sc.wire.evidence)
            }
            _ => return,
        };
        self.bump_epoch(client);
        self.send(
            Frame {
                src,
                dst,
                payload,
                bytes,
                txn: u64::from(client),
            },
            now,
        );
        self.arm_timeout(client, now);
    }

    fn on_frame(&mut self, frame: Frame, now: Duration) {
        if frame.dst == self.provider() {
            self.on_provider_frame(frame, now);
        } else {
            self.on_client_frame(frame, now);
        }
    }

    fn on_provider_frame(&mut self, frame: Frame, now: Duration) {
        let client = self.fleet_of[frame.src.0 as usize];
        match frame.payload {
            Payload::PlaceOrder => {
                // Placement and challenge issuance are modeled free
                // (WAL append + RNG draw, no RSA); re-placement just
                // re-issues the challenge.
                self.send(
                    Frame {
                        src: self.provider(),
                        dst: frame.src,
                        payload: Payload::Challenge,
                        bytes: self.sc.wire.challenge,
                        txn: frame.txn,
                    },
                    now,
                );
            }
            Payload::Evidence { replay } => self.on_evidence(client, replay, now),
            _ => {}
        }
    }

    fn on_evidence(&mut self, client: u32, replay: bool, now: Duration) {
        let depth = self.queue.len();
        self.report.queue_depth_watermark = self.report.queue_depth_watermark.max(depth as u64 + 1);
        if let Some(admission) = &self.sc.provider.admission {
            if let Admission::Shed { retry_after } = admission.decide(depth) {
                self.report.shed_admission += 1;
                self.send(
                    Frame {
                        src: self.provider(),
                        dst: self.node_of[client as usize],
                        payload: Payload::RetryAfter { delay: retry_after },
                        bytes: self.sc.wire.retry_after,
                        txn: u64::from(client),
                    },
                    now,
                );
                return;
            }
        } else if depth >= self.sc.provider.queue_limit {
            // Legacy mode: the queue is full and the submitter learns
            // nothing — the silent collapse E13 quantifies.
            self.report.dropped_queue_full += 1;
            return;
        }
        self.queue.push_back((client, replay));
        self.start_workers(now);
    }

    fn start_workers(&mut self, now: Duration) {
        while self.workers_free > 0 {
            let Some((txn, replay)) = self.queue.pop_front() else {
                break;
            };
            self.workers_free -= 1;
            self.q.schedule(
                now + self.sc.provider.verify_cost,
                Ev::WorkerDone { txn, replay },
            );
        }
    }

    fn on_worker_done(&mut self, txn: u32, replay: bool, now: Duration) {
        self.workers_free += 1;
        self.report.verify_jobs += 1;
        self.report.worker_busy += self.sc.provider.verify_cost;
        let hooked = self.sc.full_stack_every > 0 && txn.is_multiple_of(self.sc.full_stack_every);
        let outcome = if hooked {
            let o = self.hook.submit(txn, replay, now);
            self.report.full_stack.submitted += 1;
            match o {
                HookOutcome::Settled => self.report.full_stack.settled += 1,
                HookOutcome::Replayed => self.report.full_stack.replayed += 1,
                HookOutcome::Rejected => self.report.full_stack.rejected += 1,
            }
            o
        } else if self.settled[txn as usize] {
            HookOutcome::Replayed
        } else {
            HookOutcome::Settled
        };
        let settled_now = match outcome {
            HookOutcome::Settled => {
                self.settled[txn as usize] = true;
                true
            }
            HookOutcome::Replayed => {
                self.report.duplicate_settle_attempts += 1;
                // The receipt is idempotent: the client still learns
                // the transaction settled.
                true
            }
            HookOutcome::Rejected => false,
        };
        self.send(
            Frame {
                src: self.provider(),
                dst: self.node_of[txn as usize],
                payload: Payload::Receipt {
                    settled: settled_now,
                },
                bytes: self.sc.wire.receipt,
                txn: u64::from(txn),
            },
            now,
        );
        self.start_workers(now);
    }

    fn on_client_frame(&mut self, frame: Frame, now: Duration) {
        let client = self.fleet_of[frame.dst.0 as usize];
        let phase = self.clients[client as usize].phase;
        if phase.is_terminal() {
            return; // late duplicate receipt/challenge
        }
        match frame.payload {
            Payload::Challenge if phase == Phase::AwaitChallenge => {
                self.clients[client as usize].phase = Phase::AwaitReceipt;
                self.send_current(client, now);
            }
            Payload::Receipt { settled }
                if phase == Phase::AwaitReceipt || phase == Phase::Backoff =>
            {
                let born = self.clients[client as usize].born_at;
                self.bump_epoch(client);
                if settled {
                    self.clients[client as usize].phase = Phase::Settled;
                    self.report.settled += 1;
                    self.report.latency.record(now - born);
                } else {
                    self.clients[client as usize].phase = Phase::Rejected;
                    self.report.rejected += 1;
                }
            }
            Payload::RetryAfter { delay } if phase == Phase::AwaitReceipt => {
                let c = &mut self.clients[client as usize];
                if c.attempts >= self.sc.retry.max_attempts {
                    c.phase = Phase::GaveUp;
                    self.report.gave_up += 1;
                    self.bump_epoch(client);
                    return;
                }
                c.attempts += 1;
                c.phase = Phase::Backoff;
                let epoch = self.bump_epoch(client);
                // A pinch of jitter decorrelates the shed cohort's
                // comeback.
                let wake = delay + delay.mul_f64(0.1 * self.rng.gen::<f64>());
                self.q.schedule(now + wake, Ev::Resend { client, epoch });
                self.report.retries += 1;
            }
            _ => {}
        }
    }

    fn on_timeout(&mut self, client: u32, epoch: u16, now: Duration) {
        if self.epochs[client as usize] != epoch {
            return; // stale timer
        }
        let c = &mut self.clients[client as usize];
        if c.phase.is_terminal() || c.phase == Phase::Backoff {
            return;
        }
        self.last_progress = now;
        self.report.timeouts += 1;
        if c.flaky {
            c.phase = Phase::Abandoned;
            self.report.abandoned += 1;
            self.bump_epoch(client);
            return;
        }
        if c.attempts >= self.sc.retry.max_attempts {
            c.phase = Phase::GaveUp;
            self.report.gave_up += 1;
            self.bump_epoch(client);
            return;
        }
        c.attempts += 1;
        let attempts = c.attempts;
        let epoch = self.bump_epoch(client);
        let jitter: f64 = self.rng.gen();
        let backoff = self.sc.retry.backoff(attempts, jitter);
        self.report.retries += 1;
        self.q.schedule(now + backoff, Ev::Resend { client, epoch });
    }

    fn on_resend(&mut self, client: u32, epoch: u16, now: Duration) {
        if self.epochs[client as usize] != epoch {
            return;
        }
        let c = &mut self.clients[client as usize];
        if c.phase.is_terminal() {
            return;
        }
        self.last_progress = now;
        if c.phase == Phase::Backoff {
            c.phase = Phase::AwaitReceipt;
        }
        self.send_current(client, now);
    }
}

/// The measured outcome of one scenario run.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// The scenario's run tag.
    pub run_tag: String,
    /// Fleet size.
    pub fleet: u64,
    /// Orders placed (every client that arrived).
    pub placed: u64,
    /// Transactions settled (receipt delivered, first or replayed).
    pub settled: u64,
    /// Transactions rejected by the provider.
    pub rejected: u64,
    /// Clients that exhausted their retry budget.
    pub gave_up: u64,
    /// Flaky clients that churned away after a timeout.
    pub abandoned: u64,
    /// Client-side waits that expired.
    pub timeouts: u64,
    /// Resends scheduled (timeout- and shed-driven).
    pub retries: u64,
    /// Evidence frames sent with the replay flag.
    pub replays_sent: u64,
    /// Submissions shed by admission control with a retry-after.
    pub shed_admission: u64,
    /// Submissions silently dropped at the full queue (admission off).
    pub dropped_queue_full: u64,
    /// Verifications that found the transaction already settled.
    pub duplicate_settle_attempts: u64,
    /// Worker verifications completed.
    pub verify_jobs: u64,
    /// Total virtual worker-busy time.
    pub worker_busy: Duration,
    /// Highest provider queue depth observed.
    pub queue_depth_watermark: u64,
    /// Virtual time from first arrival to full drain.
    pub makespan: Duration,
    /// Events the loop processed.
    pub events_processed: u64,
    /// End-to-end settle latency (arrival → receipt).
    pub latency: LatencyHistogram,
    /// Per-link-class traffic accounting.
    pub link_stats: Vec<(String, ClassStats)>,
    /// Sampled full-stack client tallies.
    pub full_stack: FullStackTally,
    /// Free-form annotations (a telemetry sink: `utp-analyze` gates
    /// what may flow in here).
    pub notes: Vec<(String, String)>,
}

impl FleetReport {
    /// Settled transactions per virtual second of makespan.
    pub fn goodput_per_sec(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.settled as f64 / secs
    }

    /// Fraction of evidence submissions turned away (shed or silently
    /// dropped), in `[0, 1]`.
    pub fn shed_rate(&self) -> f64 {
        let turned_away = self.shed_admission + self.dropped_queue_full;
        let total = self.verify_jobs + turned_away;
        if total == 0 {
            return 0.0;
        }
        turned_away as f64 / total as f64
    }

    /// Attaches a free-form note, serialized into the digest and the
    /// artifact config. Treated as a telemetry sink by the
    /// `secret-taint` analyzer pass: secrets must not flow here.
    pub fn annotate(&mut self, key: &str, value: &str) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// A canonical, line-oriented rendering of every deterministic
    /// field — the byte-identity surface the determinism tests and
    /// `fleet_smoke` compare.
    pub fn digest(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "run_tag={}", self.run_tag);
        let _ = writeln!(s, "fleet={}", self.fleet);
        let _ = writeln!(s, "placed={}", self.placed);
        let _ = writeln!(s, "settled={}", self.settled);
        let _ = writeln!(s, "rejected={}", self.rejected);
        let _ = writeln!(s, "gave_up={}", self.gave_up);
        let _ = writeln!(s, "abandoned={}", self.abandoned);
        let _ = writeln!(s, "timeouts={}", self.timeouts);
        let _ = writeln!(s, "retries={}", self.retries);
        let _ = writeln!(s, "replays_sent={}", self.replays_sent);
        let _ = writeln!(s, "shed_admission={}", self.shed_admission);
        let _ = writeln!(s, "dropped_queue_full={}", self.dropped_queue_full);
        let _ = writeln!(s, "dup_settle_attempts={}", self.duplicate_settle_attempts);
        let _ = writeln!(s, "verify_jobs={}", self.verify_jobs);
        let _ = writeln!(s, "worker_busy_ns={}", self.worker_busy.as_nanos());
        let _ = writeln!(s, "queue_watermark={}", self.queue_depth_watermark);
        let _ = writeln!(s, "makespan_ns={}", self.makespan.as_nanos());
        let _ = writeln!(s, "events={}", self.events_processed);
        let _ = writeln!(
            s,
            "latency count={} sum_ns={} p50_ns={} p99_ns={} p999_ns={}",
            self.latency.count(),
            self.latency.sum().as_nanos(),
            self.latency.p50().as_nanos(),
            self.latency.p99().as_nanos(),
            self.latency.p999().as_nanos()
        );
        for (class, st) in &self.link_stats {
            let _ = writeln!(
                s,
                "link class={class} carried={}/{}B dropped={}/{}B",
                st.messages_carried, st.bytes_carried, st.messages_dropped, st.bytes_dropped
            );
        }
        let fs = self.full_stack;
        let _ = writeln!(
            s,
            "fullstack submitted={} settled={} replayed={} rejected={}",
            fs.submitted, fs.settled, fs.replayed, fs.rejected
        );
        for (k, v) in &self.notes {
            let _ = writeln!(s, "note {k}={v}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkProfile;
    use crate::LinkConfig;

    fn small_scenario(seed: u64) -> Scenario {
        let leaf = LinkProfile::clean(LinkConfig::broadband());
        let topo = Topology::star(200, leaf);
        let mut sc = Scenario::new(topo, ArrivalCurve::Steady, Duration::from_secs(2), seed);
        sc.provider.workers = 2;
        sc.provider.verify_cost = Duration::from_micros(200);
        sc
    }

    #[test]
    fn clean_underload_settles_everyone() {
        let report = small_scenario(7).run();
        assert_eq!(report.placed, 200);
        assert_eq!(report.settled, 200);
        assert_eq!(report.gave_up, 0);
        assert_eq!(report.dropped_queue_full, 0);
        assert_eq!(report.latency.count(), 200);
        assert!(report.goodput_per_sec() > 0.0);
        assert!(report.makespan >= Duration::from_millis(100));
    }

    #[test]
    fn same_seed_identical_digest_different_seed_not() {
        let a = small_scenario(7).run().digest();
        let b = small_scenario(7).run().digest();
        assert_eq!(a, b, "same seed must reproduce byte-identically");
        let c = small_scenario(8).run().digest();
        assert_ne!(a, c, "the seed must actually steer the draws");
    }

    #[test]
    fn lossy_link_forces_replays_but_no_double_settles() {
        let leaf = LinkProfile::clean(LinkConfig::broadband()).with_loss_ppm(150_000);
        let topo = Topology::star(300, leaf);
        let mut sc = Scenario::new(topo, ArrivalCurve::Steady, Duration::from_secs(2), 11);
        sc.provider.workers = 2;
        sc.provider.verify_cost = Duration::from_micros(100);
        sc.retry.timeout = Duration::from_millis(200);
        let report = sc.run();
        assert!(report.timeouts > 0, "15% loss must cost timeouts");
        assert!(report.replays_sent > 0, "retries resend evidence");
        // Settles are unique per client even under replay pressure.
        assert!(report.settled <= report.placed);
        assert_eq!(
            report.settled + report.gave_up + report.abandoned + report.rejected,
            report.placed,
            "every client ends in exactly one terminal state"
        );
        let dropped: u64 = report
            .link_stats
            .iter()
            .map(|(_, s)| s.messages_dropped)
            .sum();
        assert!(dropped > 0, "loss must land in the dropped counters");
    }

    #[test]
    fn overload_without_admission_drops_silently() {
        let mut sc = small_scenario(13);
        sc.horizon = Duration::from_secs(1);
        sc.provider.workers = 1;
        sc.provider.verify_cost = Duration::from_millis(50); // capacity 20/s << offered 200/s
        sc.provider.queue_limit = 4;
        sc.retry.timeout = Duration::from_millis(500);
        let report = sc.run();
        assert!(report.dropped_queue_full > 0, "legacy mode sheds silently");
        assert_eq!(report.shed_admission, 0);
        assert!(report.gave_up > 0, "silent drops burn retry budgets");
    }

    #[test]
    fn admission_control_sheds_with_retry_after_instead() {
        let mut sc = small_scenario(13);
        sc.provider.workers = 1;
        sc.provider.verify_cost = Duration::from_millis(20);
        sc.provider.queue_limit = 4;
        sc.provider.admission = Some(AdmissionConfig::for_service_time(
            4,
            Duration::from_millis(20),
        ));
        sc.retry.timeout = Duration::from_millis(500);
        let report = sc.run();
        assert!(report.shed_admission > 0, "admission sheds typed");
        assert_eq!(
            report.dropped_queue_full, 0,
            "no silent drops with admission"
        );
        assert!(
            report.queue_depth_watermark <= 5,
            "queue stays bounded: {}",
            report.queue_depth_watermark
        );
    }

    #[test]
    fn full_stack_hook_sees_sampled_clients_deterministically() {
        struct Recorder {
            calls: Vec<(u32, bool)>,
        }
        impl FullStackHook for Recorder {
            fn submit(&mut self, i: u32, replay: bool, _at: Duration) -> HookOutcome {
                self.calls.push((i, replay));
                if replay {
                    HookOutcome::Replayed
                } else {
                    HookOutcome::Settled
                }
            }
        }
        let mut sc = small_scenario(21);
        sc.full_stack_every = 50;
        let mut h1 = Recorder { calls: Vec::new() };
        let r1 = sc.run_with(&mut h1);
        let mut h2 = Recorder { calls: Vec::new() };
        let _ = sc.run_with(&mut h2);
        assert!(!h1.calls.is_empty(), "sampled clients reach the hook");
        assert_eq!(h1.calls, h2.calls, "hook call order is deterministic");
        assert_eq!(r1.full_stack.submitted, h1.calls.len() as u64);
        assert!(h1.calls.iter().all(|(i, _)| i % 50 == 0));
    }

    #[test]
    fn annotate_and_tag_flow_into_the_digest() {
        let mut sc = small_scenario(3);
        sc.tag_run("unit");
        let mut report = sc.run();
        report.annotate("purpose", "test");
        let digest = report.digest();
        assert!(digest.contains("run_tag=unit"));
        assert!(digest.contains("note purpose=test"));
    }
}
