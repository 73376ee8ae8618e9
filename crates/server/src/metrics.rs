//! The service's live metric cells and snapshot shapes, plus the
//! single sanctioned host-clock reader.
//!
//! [`Counter`] and [`Gauge`] are the lock-free atomics the verification
//! service bumps on its hot paths; `VerifierService::stats()` reads
//! them into a [`ServiceStats`] snapshot, and the bench harness
//! flattens that snapshot straight into its perf artifact. The
//! `wallclock-in-model` analyzer pass exempts exactly this file, so
//! [`host_timed`] and [`HostStopwatch`] must live here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing, thread-safe event counter.
///
/// Hot paths bump these with relaxed ordering — counts are monitoring
/// data, not synchronization; a snapshot taken while workers run may
/// lag individual increments but never loses one.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` in one atomic step (batch completions).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one and returns the pre-increment value — an atomic sequence
    /// allocator (submission sequence numbers in trace records).
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A clone is a new counter starting at the current value (forked state
/// keeps its counts).
impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter(AtomicU64::new(self.get()))
    }
}

/// A thread-safe instantaneous-level gauge (queue depth, in-flight
/// jobs) with a persistent high-watermark. Same relaxed-ordering
/// contract as [`Counter`]: monitoring data, not synchronization.
///
/// The watermark records the highest level the gauge ever reached and
/// — unlike the instantaneous level, which is usually back to zero by
/// the time anyone looks — survives every read.
#[derive(Debug, Default)]
pub struct Gauge {
    level: AtomicU64,
    hwm: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            level: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
        }
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.level.load(Ordering::Relaxed)
    }

    /// Highest level observed since creation. Never lower than the
    /// current level.
    pub fn watermark(&self) -> u64 {
        self.hwm
            .load(Ordering::Relaxed)
            .max(self.level.load(Ordering::Relaxed))
    }

    /// Raises the level by one.
    pub fn incr(&self) {
        let now = self.level.fetch_add(1, Ordering::Relaxed) + 1;
        self.hwm.fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers the level by one, saturating at zero (an unmatched
    /// decrement must not wrap to `u64::MAX`).
    pub fn decr(&self) {
        let _ = self
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }
}

/// Throughput in operations per second given a batch size and elapsed time.
pub fn throughput(ops: usize, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    ops as f64 / elapsed.as_secs_f64()
}

/// Per-shard settlement counters, defined with the settlement core.
pub use utp_core::verifier::ShardCounters;

/// A point-in-time snapshot of the verification service's counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// One entry per settlement shard.
    pub shards: Vec<ShardCounters>,
    /// AIK-certificate cache hits (an RSA verify skipped each).
    pub cert_cache_hits: u64,
    /// AIK-certificate cache misses (full validation performed).
    pub cert_cache_misses: u64,
    /// Submissions shed by [`try_submit_evidence`] because the queue
    /// was full — the overload signal fleet-scale admission control
    /// keys on.
    ///
    /// [`try_submit_evidence`]: crate::service::VerifierService::try_submit_evidence
    pub jobs_shed: u64,
    /// The subset of `jobs_shed` turned away by admission control with
    /// a typed retry-after ([`SubmitError::Overloaded`]) before ever
    /// racing the channel. Zero when no admission policy is set.
    ///
    /// [`SubmitError::Overloaded`]: crate::service::SubmitError::Overloaded
    pub jobs_shed_admission: u64,
    /// Highest queue depth observed over the service's life (the
    /// gauge's persistent watermark — it survives snapshots).
    pub queue_depth_watermark: u64,
    /// Host time the final drain took: from intake close until the
    /// last worker joined. Zero until shutdown.
    pub drain_time: Duration,
    /// Jobs executed per worker thread, in worker order — the
    /// utilization spread across the pool.
    pub worker_jobs: Vec<u64>,
}

impl ServiceStats {
    /// Whole-service totals across shards.
    pub fn totals(&self) -> ShardCounters {
        self.shards.iter().sum()
    }

    /// Fraction of certificate lookups served from cache, in `[0, 1]`.
    /// Zero when no lookups happened yet.
    pub fn cert_cache_hit_rate(&self) -> f64 {
        let total = self.cert_cache_hits + self.cert_cache_misses;
        if total == 0 {
            return 0.0;
        }
        self.cert_cache_hits as f64 / total as f64
    }

    /// Fraction of submissions shed at the queue, in `[0, 1]`: sheds
    /// over sheds-plus-settled-outcomes. Zero before any submission.
    pub fn shed_rate(&self) -> f64 {
        let t = self.totals();
        let outcomes = t.accepted + t.rejected + t.replayed + self.jobs_shed;
        if outcomes == 0 {
            return 0.0;
        }
        self.jobs_shed as f64 / outcomes as f64
    }
}

/// Measures the host CPU time of `f` and returns its result alongside.
///
/// This module is the single place the simulation may read the host
/// clock (the `wallclock-in-model` pass exempts it): callers fold the
/// measured duration into virtual time via `Machine::advance`, so the
/// rest of the model stays deterministic.
pub fn host_timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed())
}

/// A host-clock stopwatch for intervals that cannot be expressed as one
/// closure — e.g. the enqueue-to-dequeue wait of a job crossing a
/// channel between threads. Lives here for the same reason as
/// [`host_timed`]: this module is the single sanctioned host-clock
/// reader, and all measurements taken through it are treated as
/// *volatile* (never part of deterministic model state or canonical
/// trace exports).
#[derive(Debug, Clone, Copy)]
pub struct HostStopwatch(std::time::Instant);

impl HostStopwatch {
    /// Starts the stopwatch now.
    pub fn start() -> HostStopwatch {
        HostStopwatch(std::time::Instant::now())
    }

    /// Host time elapsed since [`HostStopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_stats_totals_and_hit_rate() {
        let stats = ServiceStats {
            shards: vec![
                ShardCounters {
                    registered: 3,
                    accepted: 2,
                    rejected: 1,
                    replayed: 0,
                },
                ShardCounters {
                    registered: 5,
                    accepted: 4,
                    rejected: 0,
                    replayed: 1,
                },
            ],
            cert_cache_hits: 9,
            cert_cache_misses: 1,
            ..ServiceStats::default()
        };
        let t = stats.totals();
        assert_eq!(t.registered, 8);
        assert_eq!(t.accepted, 6);
        assert_eq!(t.rejected, 1);
        assert_eq!(t.replayed, 1);
        assert!((stats.cert_cache_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(ServiceStats::default().cert_cache_hit_rate(), 0.0);
    }

    #[test]
    fn shed_rate_counts_sheds_against_all_outcomes() {
        let stats = ServiceStats {
            shards: vec![ShardCounters {
                registered: 8,
                accepted: 6,
                rejected: 0,
                replayed: 0,
            }],
            jobs_shed: 2,
            ..ServiceStats::default()
        };
        assert!((stats.shed_rate() - 0.25).abs() < 1e-12);
        assert_eq!(ServiceStats::default().shed_rate(), 0.0);
    }

    #[test]
    fn throughput_computes_ops_per_sec() {
        assert!((throughput(100, Duration::from_secs(2)) - 50.0).abs() < 1e-9);
        assert!(throughput(1, Duration::ZERO).is_infinite());
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        c.add(58);
        assert_eq!(c.get(), 4058);
        assert_eq!(c.next(), 4058, "next returns the pre-increment value");
        assert_eq!(c.get(), 4059);
    }

    #[test]
    fn gauge_is_thread_safe() {
        let g = Gauge::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        g.incr();
                        g.decr();
                        g.incr();
                    }
                });
            }
        });
        assert_eq!(g.get(), 4000, "balanced incr/decr leave the net level");
        for _ in 0..4000 {
            g.decr();
        }
        assert_eq!(g.get(), 0);
        g.decr();
        assert_eq!(g.get(), 0, "decr saturates at zero");
        assert_eq!(g.watermark(), 4000, "the peak survives the drain");
    }

    #[test]
    fn gauge_watermark_survives_reads() {
        let g = Gauge::new();
        g.incr();
        g.incr();
        g.incr();
        g.decr();
        g.decr();
        assert_eq!(g.get(), 1);
        assert_eq!(g.watermark(), 3, "peak level retained after drops");
        assert_eq!(g.watermark(), 3, "reading the watermark is non-destructive");
    }

    #[test]
    fn gauge_watermark_never_below_level() {
        let g = Gauge::new();
        for _ in 0..5 {
            g.incr();
        }
        assert_eq!(g.watermark(), 5);
        g.decr();
        g.incr();
        g.incr();
        assert_eq!(g.get(), 6);
        assert_eq!(g.watermark(), 6, "a new peak raises the watermark");
    }
}
