//! The journal facade: WAL with group commit, snapshots, recovery.
//!
//! One [`Journal`] owns two [`StorageDevice`]s — the append-only log
//! and the snapshot area — behind a single mutex. Device time is
//! serialized: the journal keeps its own virtual device timeline
//! (`device_time`), advanced by every append/flush/read cost, modeling
//! one disk servicing requests in order regardless of which worker
//! thread issued them.
//!
//! **Group commit**: [`Journal::append_record`] stages the frame in the
//! device write cache; once `group_commit` records are staged, one
//! flush persists them all. [`Journal::sync_to`] is the ack barrier —
//! if a concurrent worker's flush already covered this record's
//! sequence number, it returns instantly, which is exactly how group
//! commit amortizes fsync across workers.
//!
//! **Durability contract (WAL-before-ack)**: a settle outcome may be
//! acknowledged only after `sync_to(receipt.seq)` returns.

use std::time::Duration;

use parking_lot::Mutex;
use utp_trace::{event_volatile, keys, names, span_volatile, Value};

use crate::device::{DeviceCounters, DeviceProfile, FaultPlan, StorageDevice};
use crate::record::{encode_frame, frame_boundaries, scan, Frame, JournalRecord};
use crate::recover::{replay_bytes, RecoveredState, RecoveryReport};
use crate::snapshot::encode_snapshot;

/// Journal configuration.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Device cost model (shared by log and snapshot devices).
    pub profile: DeviceProfile,
    /// Records staged per flush. `1` means flush-per-record (no group
    /// commit); the service's ack path still guarantees durability at
    /// every setting via [`Journal::sync_to`].
    pub group_commit: usize,
    /// Fault plan for the log device.
    pub log_faults: FaultPlan,
}

impl JournalConfig {
    /// Fault-free config with the given profile and batch size.
    pub fn new(profile: DeviceProfile, group_commit: usize) -> Self {
        JournalConfig {
            profile,
            group_commit: group_commit.max(1),
            log_faults: FaultPlan::none(),
        }
    }

    /// Small fast config for tests: test profile, batch of 4.
    pub fn fast_for_tests() -> Self {
        Self::new(DeviceProfile::fast_for_tests(), 4)
    }
}

/// Receipt for one appended record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendReceipt {
    /// Sequence number assigned to the record.
    pub seq: u64,
    /// Virtual device time consumed by this call (append, plus a flush
    /// if this append filled the batch).
    pub cost: Duration,
    /// Whether this call itself triggered the batch flush.
    pub flushed: bool,
}

/// Aggregate journal statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended since creation (or last recovery).
    pub appends: u64,
    /// Flush barriers issued.
    pub syncs: u64,
    /// [`Journal::sync_to`] calls satisfied by an earlier flush — the
    /// group-commit win.
    pub sync_elided: u64,
    /// Snapshots installed.
    pub snapshots: u64,
}

#[derive(Debug, Clone)]
struct Inner {
    log: StorageDevice,
    snap: StorageDevice,
    group_commit: usize,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Highest sequence number known durable (covered by a flush).
    durable_seq: u64,
    /// Records staged in the cache since the last flush.
    staged: usize,
    /// Serialized device timeline.
    device_time: Duration,
    stats: JournalStats,
}

impl Inner {
    fn flush_log(&mut self) -> Duration {
        let cost = self.log.flush();
        self.device_time += cost;
        self.durable_seq = self.next_seq - 1;
        self.staged = 0;
        self.stats.syncs += 1;
        cost
    }
}

/// Crash-safe write-ahead journal for the settlement path.
#[derive(Debug)]
pub struct Journal {
    // Not named `inner`: lock-discipline keys its order graph by field
    // name workspace-wide, and `inner` is the parking_lot shim's own
    // mutex field, which would merge this lock with every `.lock()` in
    // the workspace.
    mu: Mutex<Inner>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new(config: JournalConfig) -> Self {
        Journal {
            mu: Mutex::new(Inner {
                log: StorageDevice::with_faults(config.profile.clone(), config.log_faults),
                snap: StorageDevice::new(config.profile),
                group_commit: config.group_commit.max(1),
                next_seq: 1,
                durable_seq: 0,
                staged: 0,
                device_time: Duration::ZERO,
                stats: JournalStats::default(),
            }),
        }
    }

    /// A journal whose devices already hold the given durable images —
    /// rehydrates disk contents captured with
    /// [`Journal::durable_snapshot_bytes`] / [`Journal::durable_log_bytes`],
    /// so a crash-point sweep can restart a provider from *every* prefix
    /// of a recorded run. Sequence counters are seeded from a replay of
    /// the images; the fault plan in `config` still applies to future
    /// appends.
    pub fn with_durable(config: JournalConfig, snapshot_bytes: &[u8], log_bytes: &[u8]) -> Self {
        let j = Journal::new(config);
        {
            let mut inner = j.mu.lock();
            inner.snap.seed_media(snapshot_bytes);
            inner.log.seed_media(log_bytes);
            let (state, _report) = replay_bytes(snapshot_bytes, log_bytes);
            inner.next_seq = state.last_seq + 1;
            inner.durable_seq = state.last_seq;
        }
        j
    }

    /// Deep copy of the journal — devices (media *and* unflushed
    /// caches), sequence counters, device timeline and statistics. The
    /// fork and the original share nothing; this is the branch
    /// primitive the adversarial state-space explorer uses to try
    /// different action interleavings against the same durable history.
    pub fn fork(&self) -> Journal {
        Journal {
            mu: Mutex::new(self.mu.lock().clone()),
        }
    }

    /// Appends one record, staging it in the device cache. If the batch
    /// is full this call also flushes. Emits a volatile `journal.append`
    /// (and `journal.flush`) event after releasing the lock.
    pub fn append_record(&self, record: &JournalRecord) -> AppendReceipt {
        let (receipt, at, flush_cost) = {
            let mut inner = self.mu.lock();
            let seq = inner.next_seq;
            inner.next_seq += 1;
            let frame = encode_frame(seq, record);
            let frame_len = frame.len();
            let mut cost = inner.log.append(&frame);
            inner.device_time += cost;
            inner.staged += 1;
            inner.stats.appends += 1;
            let mut flushed = false;
            let mut flush_cost = Duration::ZERO;
            if inner.staged >= inner.group_commit {
                flush_cost = inner.flush_log();
                cost += flush_cost;
                flushed = true;
            }
            (
                AppendReceipt { seq, cost, flushed },
                (inner.device_time, frame_len),
                flush_cost,
            )
        };
        let (now, frame_len) = at;
        event_volatile(
            names::JOURNAL_APPEND,
            now,
            &[
                (keys::SEQ, Value::U64(receipt.seq)),
                (keys::BYTES, Value::U64(frame_len as u64)),
            ],
        );
        if receipt.flushed {
            span_volatile(
                names::JOURNAL_FLUSH,
                now.saturating_sub(flush_cost),
                flush_cost,
                &[(keys::SEQ, Value::U64(receipt.seq))],
            );
        }
        receipt
    }

    /// Flushes any staged records unconditionally. Returns the cost
    /// (zero if nothing was staged).
    pub fn sync(&self) -> Duration {
        let (cost, now, did) = {
            let mut inner = self.mu.lock();
            if inner.staged == 0 {
                inner.stats.sync_elided += 1;
                (Duration::ZERO, inner.device_time, false)
            } else {
                let c = inner.flush_log();
                (c, inner.device_time, true)
            }
        };
        if did {
            span_volatile(names::JOURNAL_FLUSH, now.saturating_sub(cost), cost, &[]);
        }
        cost
    }

    /// The ack barrier: ensures record `seq` is durable, flushing only
    /// if no concurrent flush already covered it. Returns the cost paid
    /// by *this* caller (zero when elided — the group-commit win).
    pub fn sync_to(&self, seq: u64) -> Duration {
        let (cost, now, did) = {
            let mut inner = self.mu.lock();
            if inner.durable_seq >= seq {
                inner.stats.sync_elided += 1;
                (Duration::ZERO, inner.device_time, false)
            } else {
                let c = inner.flush_log();
                (c, inner.device_time, true)
            }
        };
        if did {
            span_volatile(
                names::JOURNAL_FLUSH,
                now.saturating_sub(cost),
                cost,
                &[(keys::SEQ, Value::U64(seq))],
            );
        }
        cost
    }

    /// Installs a snapshot of `state` and truncates the log. Ordering is
    /// crash-safe: flush the log, append + flush the snapshot frame,
    /// only then truncate the log — a crash between any two steps leaves
    /// either the old (snapshot, log) pair or the new one, never a gap.
    /// Returns the total device cost.
    pub fn install_snapshot(&self, state: &RecoveredState) -> Duration {
        let mut inner = self.mu.lock();
        let mut cost = Duration::ZERO;
        if inner.staged > 0 {
            cost += inner.flush_log();
        }
        let frame = encode_snapshot(state);
        let c = inner.snap.append(&frame);
        inner.device_time += c;
        cost += c;
        let c = inner.snap.flush();
        inner.device_time += c;
        cost += c;
        let c = inner.log.truncate();
        inner.device_time += c;
        cost += c;
        inner.staged = 0;
        inner.stats.snapshots += 1;
        cost
    }

    /// Simulated power loss on both devices: unflushed caches are lost
    /// (modulo the fault plan's torn tail on the log).
    pub fn crash(&self) {
        let mut inner = self.mu.lock();
        inner.log.crash();
        inner.snap.crash();
        inner.staged = 0;
        // What was staged-but-unflushed is gone; sequence bookkeeping is
        // rebuilt by replay().
    }

    /// Recovers from the durable bytes: replays snapshot + log, repairs
    /// the log media (truncating any torn/corrupt suffix so future
    /// appends extend a clean prefix), and re-seeds the sequence
    /// counters. Returns the recovered state, the report, and the
    /// virtual read cost of the recovery pass.
    pub fn replay(&self) -> (RecoveredState, RecoveryReport, Duration) {
        let mut inner = self.mu.lock();
        let snap_bytes = inner.snap.durable().to_vec();
        let log_bytes = inner.log.durable().to_vec();
        let read_cost =
            inner.snap.read_cost(snap_bytes.len()) + inner.log.read_cost(log_bytes.len());
        inner.device_time += read_cost;
        let (state, report) = replay_bytes(&snap_bytes, &log_bytes);
        inner.log.discard_after(report.valid_log_bytes);
        inner.next_seq = state.last_seq + 1;
        inner.durable_seq = state.last_seq;
        inner.staged = 0;
        (state, report, read_cost)
    }

    /// Replays over the **appended** view (media + unflushed cache) —
    /// what a live, uncrashed process can still read back. Used by the
    /// audit log's durable paging, which wants history including
    /// records staged but not yet flushed.
    pub fn replay_live(&self) -> RecoveredState {
        let inner = self.mu.lock();
        let (state, _) = replay_bytes(inner.snap.durable(), &inner.log.appended());
        state
    }

    /// Decoded frames currently on the durable log media.
    pub fn durable_frames(&self) -> Vec<Frame> {
        scan(self.mu.lock().log.durable()).frames
    }

    /// Raw durable log bytes (for crash-point sweeps).
    pub fn durable_log_bytes(&self) -> Vec<u8> {
        self.mu.lock().log.durable().to_vec()
    }

    /// Raw durable snapshot bytes.
    pub fn durable_snapshot_bytes(&self) -> Vec<u8> {
        self.mu.lock().snap.durable().to_vec()
    }

    /// Frame boundaries of the durable log (crash-point sweep support).
    pub fn durable_boundaries(&self) -> Vec<usize> {
        frame_boundaries(self.mu.lock().log.durable())
    }

    /// Total serialized device time consumed so far.
    pub fn device_time(&self) -> Duration {
        self.mu.lock().device_time
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> JournalStats {
        self.mu.lock().stats
    }

    /// Log-device operation counters.
    pub fn log_counters(&self) -> DeviceCounters {
        self.mu.lock().log.counters()
    }

    /// Highest sequence number currently durable.
    pub fn durable_seq(&self) -> u64 {
        self.mu.lock().durable_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NO_ORDER;

    fn settle(n: u8) -> JournalRecord {
        JournalRecord::Settle {
            order_id: NO_ORDER,
            nonce: [n; 20],
            at: Duration::from_millis(n as u64),
            outcome: Ok(()),
        }
    }

    #[test]
    fn group_commit_flushes_every_batch() {
        let j = Journal::new(JournalConfig::fast_for_tests()); // batch 4
        for i in 0..7 {
            let r = j.append_record(&settle(i));
            assert_eq!(r.seq, i as u64 + 1);
            assert_eq!(r.flushed, i == 3, "i={i}");
        }
        assert_eq!(j.durable_seq(), 4);
        assert_eq!(j.durable_frames().len(), 4);
        // sync_to for an already-durable seq is free.
        assert_eq!(j.sync_to(3), Duration::ZERO);
        // sync_to past the durable point flushes the rest.
        assert!(j.sync_to(7) > Duration::ZERO);
        assert_eq!(j.durable_frames().len(), 7);
        let stats = j.stats();
        assert_eq!(stats.appends, 7);
        assert_eq!(stats.syncs, 2);
        assert_eq!(stats.sync_elided, 1);
        assert_eq!(j.log_counters().appends, 7, "one device append each");
    }

    #[test]
    fn crash_loses_staged_records_and_replay_repairs() {
        let j = Journal::new(JournalConfig::fast_for_tests());
        for i in 0..6 {
            j.append_record(&settle(i));
        }
        // 4 durable (one batch), 2 staged.
        j.crash();
        let (state, report, _cost) = j.replay();
        assert_eq!(report.records_applied, 4);
        assert_eq!(state.last_seq, 4);
        assert_eq!(state.used.len(), 4);
        // Appending after recovery continues the sequence cleanly.
        let r = j.append_record(&settle(99));
        assert_eq!(r.seq, 5);
        j.sync();
        assert_eq!(j.durable_frames().len(), 5);
    }

    #[test]
    fn torn_tail_is_discarded_on_replay() {
        let cfg = JournalConfig {
            log_faults: FaultPlan {
                torn_tail_bytes: 5,
                corrupt_torn_tail: true,
                ..FaultPlan::none()
            },
            ..JournalConfig::fast_for_tests()
        };
        let j = Journal::new(cfg);
        for i in 0..5 {
            j.append_record(&settle(i));
        }
        j.crash(); // 4 durable + 5 torn bytes of record 5
        let before = j.durable_log_bytes().len();
        let (state, report, _) = j.replay();
        assert_eq!(report.records_applied, 4);
        assert!(report.valid_log_bytes < before, "torn tail detected");
        assert_eq!(state.last_seq, 4);
        // The torn suffix is gone from the media; a fresh append + sync
        // yields a clean 5-frame log.
        j.append_record(&settle(50));
        j.sync();
        assert_eq!(j.durable_frames().len(), 5);
    }

    #[test]
    fn dropped_flush_means_lost_records_on_crash() {
        let cfg = JournalConfig {
            log_faults: FaultPlan {
                drop_flushes: [1].into_iter().collect(),
                ..FaultPlan::none()
            },
            ..JournalConfig::fast_for_tests()
        };
        let j = Journal::new(cfg);
        for i in 0..4 {
            j.append_record(&settle(i)); // batch flush #1 is dropped
        }
        j.crash();
        let (state, _, _) = j.replay();
        assert_eq!(state.last_seq, 0, "lying drive lost the whole batch");
    }

    #[test]
    fn snapshot_truncates_log_and_replay_uses_it() {
        let j = Journal::new(JournalConfig::fast_for_tests());
        for i in 0..4 {
            j.append_record(&settle(i));
        }
        let (state, _, _) = j.replay();
        j.install_snapshot(&state);
        assert!(j.durable_log_bytes().is_empty(), "log truncated");
        // More records after the snapshot.
        for i in 10..12 {
            j.append_record(&settle(i));
        }
        j.sync();
        j.crash();
        let (recovered, report, _) = j.replay();
        assert!(report.snapshot_used);
        assert_eq!(report.records_applied, 2);
        assert_eq!(recovered.used.len(), 6);
        assert_eq!(recovered.last_seq, 6);
    }

    #[test]
    fn crash_between_snapshot_and_nothing_preserves_old_state() {
        // Snapshot install is atomic from the caller's view: crash right
        // after install keeps the snapshot (it was flushed before the
        // log truncate).
        let j = Journal::new(JournalConfig::fast_for_tests());
        for i in 0..4 {
            j.append_record(&settle(i));
        }
        let (state, _, _) = j.replay();
        j.install_snapshot(&state);
        j.crash();
        let (recovered, report, _) = j.replay();
        assert!(report.snapshot_used);
        assert_eq!(recovered, state);
    }

    #[test]
    fn device_time_is_monotone_and_billed_per_operation() {
        let j = Journal::new(JournalConfig::fast_for_tests());
        let t0 = j.device_time();
        j.append_record(&settle(1));
        let t1 = j.device_time();
        assert!(t1 > t0);
        j.sync();
        assert!(j.device_time() > t1);
    }
}
