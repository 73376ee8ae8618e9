//! E11 — WAL group commit vs. flush-per-record, and recovery cost.
//!
//! All numbers here are **virtual** device time from the simulated
//! [`StorageDevice`](utp_journal::StorageDevice) profiles, not host
//! wall-clock: the journal serializes every append and barrier onto
//! one deterministic device timeline, so two runs of this experiment
//! produce identical tables.
//!
//! **Part A** saturates a journal with settle records at group-commit
//! batch sizes `B ∈ {1, 4, 16, 64}` on each device profile. Durability
//! is *equal* across rows — WAL-before-ack means a record is acked only
//! once a flush covers it — so the sweep isolates what batching the
//! barrier buys: sustained settle throughput (records per virtual
//! second) and the per-record ack-latency distribution (submit→covered,
//! histogrammed). The paper's settlement path acks nothing it could
//! forget; group commit is how that stays affordable.
//!
//! **Part B** measures recovery: virtual time to scan + replay a log of
//! `n` settle records, with and without a mid-log snapshot (snapshot
//! installation truncates the log, so recovery reads snapshot + suffix
//! instead of the whole history).
//!
//! Regenerate: `cargo run -p utp-bench --bin e11_durability`

use crate::table;
use std::time::Duration;
use utp_journal::{DeviceProfile, Journal, JournalConfig, JournalRecord, NO_ORDER};
use utp_trace::LatencyHistogram;

/// One (profile × batch-size) group-commit measurement.
#[derive(Debug, Clone)]
pub struct CommitRow {
    /// Device profile name.
    pub profile: &'static str,
    /// Records per flush barrier.
    pub group_commit: usize,
    /// Settle records appended (all durable by the end).
    pub records: usize,
    /// Total virtual device time.
    pub device_time: Duration,
    /// Sustained records per virtual second.
    pub records_per_sec: f64,
    /// Flush barriers issued.
    pub syncs: u64,
    /// Ack latency (append submitted → covering flush durable).
    pub ack: LatencyHistogram,
}

/// One recovery measurement.
#[derive(Debug, Clone)]
pub struct RecoveryRow {
    /// Settle records in the journal's history.
    pub records: usize,
    /// Whether a snapshot was installed at the midpoint.
    pub snapshot: bool,
    /// Log bytes actually read at recovery.
    pub log_bytes: usize,
    /// Records replayed from the log (the suffix, under a snapshot).
    pub replayed: u64,
    /// Virtual device time to read + replay.
    pub recovery_time: Duration,
}

/// The experiment output.
#[derive(Debug, Clone)]
pub struct E11Report {
    /// Part A: group-commit sweep.
    pub commit: Vec<CommitRow>,
    /// Part B: recovery cost sweep.
    pub recovery: Vec<RecoveryRow>,
}

/// The settle record the saturation loop appends: audit-only (no order
/// binding), the cheapest record the hot path writes.
fn settle_record(i: u64) -> JournalRecord {
    let mut nonce = [0u8; 20];
    nonce[..8].copy_from_slice(&i.to_be_bytes());
    JournalRecord::Settle {
        order_id: NO_ORDER,
        nonce,
        at: Duration::from_millis(i),
        outcome: Ok(()),
    }
}

/// Appends `records` settle records under batch size `group_commit`,
/// tracking each record's submit time and resolving its ack at the
/// covering flush — the same WAL-before-ack discipline the provider's
/// verification workers follow.
fn commit_row(
    profile_name: &'static str,
    profile: DeviceProfile,
    group_commit: usize,
    records: usize,
) -> CommitRow {
    let journal = Journal::new(JournalConfig::new(profile, group_commit));
    let mut ack = LatencyHistogram::new();
    let mut pending: Vec<Duration> = Vec::with_capacity(group_commit);
    for i in 0..records {
        let submitted = journal.device_time();
        let receipt = journal.append_record(&settle_record(i as u64));
        pending.push(submitted);
        if receipt.flushed {
            let durable_at = journal.device_time();
            for s in pending.drain(..) {
                ack.record_ns((durable_at - s).as_nanos() as u64);
            }
        }
    }
    if !pending.is_empty() {
        journal.sync();
        let durable_at = journal.device_time();
        for s in pending.drain(..) {
            ack.record_ns((durable_at - s).as_nanos() as u64);
        }
    }
    let device_time = journal.device_time();
    let stats = journal.stats();
    CommitRow {
        profile: profile_name,
        group_commit,
        records,
        device_time,
        records_per_sec: records as f64 / device_time.as_secs_f64(),
        syncs: stats.syncs,
        ack,
    }
}

/// Builds a journal holding `records` settle records (batched flushes),
/// optionally checkpoints at the midpoint, then measures a cold replay.
fn recovery_row(records: usize, snapshot: bool) -> RecoveryRow {
    let journal = Journal::new(JournalConfig::new(DeviceProfile::ssd(), 16));
    for i in 0..records {
        journal.append_record(&settle_record(i as u64));
        if snapshot && i == records / 2 {
            journal.sync();
            let (state, _, _) = journal.replay();
            journal.install_snapshot(&state);
        }
    }
    journal.sync();
    let log_bytes = journal.durable_log_bytes().len();
    // Cold restart: same durable images, fresh device timeline.
    let cold = Journal::with_durable(
        JournalConfig::new(DeviceProfile::ssd(), 16),
        &journal.durable_snapshot_bytes(),
        &journal.durable_log_bytes(),
    );
    let before = cold.device_time();
    let (_state, report, read_cost) = cold.replay();
    debug_assert_eq!(cold.device_time() - before, read_cost);
    RecoveryRow {
        records,
        snapshot,
        log_bytes,
        replayed: report.records_applied + report.records_skipped,
        recovery_time: read_cost,
    }
}

/// Runs both parts. `records_n` is the Part A saturation count; Part B
/// sweeps `log_lengths` with and without a midpoint snapshot.
pub fn run(records_n: usize, batch_sizes: &[usize], log_lengths: &[usize]) -> E11Report {
    let mut commit = Vec::new();
    for (name, profile) in [
        ("nvme", DeviceProfile::nvme()),
        ("ssd", DeviceProfile::ssd()),
        ("hdd", DeviceProfile::hdd()),
    ] {
        for &b in batch_sizes {
            commit.push(commit_row(name, profile.clone(), b, records_n));
        }
    }
    let mut recovery = Vec::new();
    for &n in log_lengths {
        recovery.push(recovery_row(n, false));
        recovery.push(recovery_row(n, true));
    }
    E11Report { commit, recovery }
}

/// Flattens the report into its perf artifact pair. E11 runs entirely
/// on the virtual device timeline, so everything — including the
/// group-commit amortization ratio and ack-latency distributions — is
/// canonical and byte-identical across runs; the host artifact stays
/// empty.
pub fn artifacts(report: &E11Report, config: &str) -> utp_obs::ArtifactPair {
    let mut pair = utp_obs::ArtifactPair::new("E11", config);
    for r in &report.commit {
        let batch = r.group_commit.to_string();
        let labels: &[(&str, &str)] = &[("device", r.profile), ("batch", &batch)];
        pair.canonical
            .push_u64("e11.records", labels, r.records as u64);
        pair.canonical.push_u64(
            "e11.device_time_ns",
            labels,
            r.device_time.as_nanos() as u64,
        );
        pair.canonical
            .push_f64("e11.records_per_sec", labels, r.records_per_sec);
        pair.canonical.push_u64("e11.syncs", labels, r.syncs);
        pair.canonical.push_hist("e11.ack_ns", labels, &r.ack);
    }
    for profile in ["nvme", "ssd", "hdd"] {
        // The amortization ratio needs the flush-per-record baseline row.
        if report
            .commit
            .iter()
            .any(|r| r.profile == profile && r.group_commit == 1)
        {
            pair.canonical.push_f64(
                "e11.best_speedup",
                &[("device", profile)],
                best_speedup(report, profile),
            );
        }
    }
    for r in &report.recovery {
        let records = r.records.to_string();
        let labels: &[(&str, &str)] = &[
            ("history", &records),
            ("snapshot", if r.snapshot { "midpoint" } else { "none" }),
        ];
        pair.canonical
            .push_u64("e11.log_bytes", labels, r.log_bytes as u64);
        pair.canonical.push_u64("e11.replayed", labels, r.replayed);
        pair.canonical.push_u64(
            "e11.recovery_time_ns",
            labels,
            r.recovery_time.as_nanos() as u64,
        );
    }
    pair
}

/// Speedup of the best batch size over flush-per-record on `profile`.
pub fn best_speedup(report: &E11Report, profile: &str) -> f64 {
    let rows: Vec<&CommitRow> = report
        .commit
        .iter()
        .filter(|r| r.profile == profile)
        .collect();
    let base = rows
        .iter()
        .find(|r| r.group_commit == 1)
        .expect("B=1 baseline row");
    let best = rows
        .iter()
        .map(|r| r.records_per_sec)
        .fold(0.0_f64, f64::max);
    best / base.records_per_sec
}

/// Renders both tables.
pub fn render(report: &E11Report) -> String {
    let commit_rows: Vec<Vec<String>> = report
        .commit
        .iter()
        .map(|r| {
            vec![
                r.profile.to_string(),
                r.group_commit.to_string(),
                r.records.to_string(),
                r.syncs.to_string(),
                table::ms(r.device_time),
                format!("{:.0}", r.records_per_sec),
                format!("{:.1}", r.ack.p50().as_secs_f64() * 1e6),
                format!("{:.1}", r.ack.p99().as_secs_f64() * 1e6),
            ]
        })
        .collect();
    let mut out = table::render(
        "E11a - WAL group commit vs flush-per-record (virtual device time, equal durability)",
        &[
            "device",
            "batch",
            "records",
            "flushes",
            "elapsed(ms)",
            "settles/s",
            "ack p50(us)",
            "ack p99(us)",
        ],
        &commit_rows,
    );
    out.push('\n');
    let recovery_rows: Vec<Vec<String>> = report
        .recovery
        .iter()
        .map(|r| {
            vec![
                r.records.to_string(),
                if r.snapshot { "midpoint" } else { "-" }.to_string(),
                r.log_bytes.to_string(),
                r.replayed.to_string(),
                table::ms(r.recovery_time),
            ]
        })
        .collect();
    out.push_str(&table::render(
        "E11b - recovery time vs log length (ssd profile, cold replay)",
        &[
            "history",
            "snapshot",
            "log bytes",
            "replayed",
            "recovery(ms)",
        ],
        &recovery_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_commit_buys_at_least_3x_on_every_profile() {
        // The acceptance bar: at equal durability (every record covered
        // by a flush before ack), the best batch size sustains >= 3x the
        // flush-per-record settle throughput.
        let report = run(512, &[1, 4, 16, 64], &[]);
        for profile in ["nvme", "ssd", "hdd"] {
            let speedup = best_speedup(&report, profile);
            assert!(
                speedup >= 3.0,
                "{profile}: best batch only {speedup:.2}x over flush-per-record"
            );
        }
    }

    #[test]
    fn every_record_is_acked_exactly_once_and_after_a_flush() {
        let report = run(256, &[1, 16], &[]);
        for row in &report.commit {
            assert_eq!(row.ack.count() as usize, row.records, "{row:?}");
            // Flush-per-record issues one barrier per record; batching
            // divides it (plus the final catch-up sync).
            if row.group_commit == 1 {
                assert_eq!(row.syncs as usize, row.records);
            } else {
                assert_eq!(row.syncs as usize, row.records / row.group_commit);
            }
            // Ack latency is never below one barrier on this device.
            assert!(row.ack.p50() > Duration::ZERO);
        }
    }

    #[test]
    fn batching_trades_ack_latency_for_throughput() {
        // p99 ack latency grows with the batch (early records wait for
        // the barrier) while throughput rises — the classic trade.
        let report = run(256, &[1, 64], &[]);
        let ssd: Vec<&CommitRow> = report
            .commit
            .iter()
            .filter(|r| r.profile == "ssd")
            .collect();
        assert!(ssd[1].records_per_sec > ssd[0].records_per_sec);
        assert!(ssd[1].ack.p99() >= ssd[0].ack.p99());
    }

    #[test]
    fn recovery_time_grows_with_history_and_snapshots_cut_it() {
        let report = run(0, &[], &[256, 1024]);
        let full: Vec<&RecoveryRow> = report.recovery.iter().filter(|r| !r.snapshot).collect();
        let snap: Vec<&RecoveryRow> = report.recovery.iter().filter(|r| r.snapshot).collect();
        assert!(full[1].recovery_time > full[0].recovery_time);
        for (f, s) in full.iter().zip(&snap) {
            assert_eq!(f.records, s.records);
            // The snapshot truncated the first half of the log...
            assert!(s.log_bytes < f.log_bytes, "{s:?} vs {f:?}");
            // ...and every record of history is still accounted for,
            // through the snapshot or the replayed suffix.
            assert!(s.replayed < f.replayed);
            assert_eq!(f.replayed as usize, f.records);
        }
    }

    #[test]
    fn virtual_timelines_are_deterministic_across_runs() {
        let a = run(128, &[1, 16], &[128]);
        let b = run(128, &[1, 16], &[128]);
        for (x, y) in a.commit.iter().zip(&b.commit) {
            assert_eq!(x.device_time, y.device_time);
            assert_eq!(x.syncs, y.syncs);
        }
        for (x, y) in a.recovery.iter().zip(&b.recovery) {
            assert_eq!(x.recovery_time, y.recovery_time);
        }
        assert_eq!(render(&a), render(&b));
    }
}
