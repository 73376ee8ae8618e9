//! Lock-free metric cells and latency/throughput summaries.
//!
//! These primitives began life in `utp-server::metrics` next to the
//! sharded verification service; they moved here so the journal, the
//! explorer, and the bench harness can share one vocabulary. The
//! server re-exports them, so `utp_server::metrics::Counter` remains a
//! valid path.

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
/// the time anyone looks — *survives snapshot export*: reading it does
/// not clear it. Collectors that want per-interval peaks call
/// [`Gauge::reset_watermark`] explicitly after recording a snapshot.
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

    /// Sets the level outright.
    pub fn set(&self, v: u64) {
        self.level.store(v, Ordering::Relaxed);
        self.hwm.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.level.load(Ordering::Relaxed)
    }

    /// Highest level observed since creation (or since the last
    /// explicit [`Gauge::reset_watermark`]). Never lower than the
    /// current level.
    pub fn watermark(&self) -> u64 {
        self.hwm
            .load(Ordering::Relaxed)
            .max(self.level.load(Ordering::Relaxed))
    }

    /// Restarts watermark tracking from the current level. Snapshot
    /// export never calls this implicitly — peaks are only discarded
    /// on request, so a queue-depth spike is visible to every reader
    /// that comes later, not just the first one.
    pub fn reset_watermark(&self) {
        self.hwm
            .store(self.level.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Raises the level by one.
    pub fn incr(&self) {
        let now = self.level.fetch_add(1, Ordering::Relaxed) + 1;
        self.hwm.fetch_max(now, Ordering::Relaxed);
    }

    /// Lowers the level by one, saturating at zero (a decrement racing
    /// a `set(0)` must not wrap to `u64::MAX`).
    pub fn decr(&self) {
        let _ = self
            .level
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }
}

/// Summary statistics over a set of duration samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: Duration,
    /// Minimum.
    pub min: Duration,
    /// Median (p50).
    pub p50: Duration,
    /// 90th percentile.
    pub p90: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// 99.9th percentile — the tail the fleet-scale SLOs are written
    /// against; equals `max` until the sample set is large enough to
    /// resolve it.
    pub p999: Duration,
    /// Maximum.
    pub max: Duration,
}

impl Summary {
    /// Computes a summary; returns `None` for an empty sample set.
    pub fn of(samples: &[Duration]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let total: Duration = sorted.iter().sum();
        let pct = |p: f64| -> Duration {
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx]
        };
        Some(Summary {
            count: sorted.len(),
            mean: total / sorted.len() as u32,
            min: sorted[0],
            p50: pct(0.50),
            p90: pct(0.90),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
            // The emptiness check above already ran; index the checked
            // sorted slice instead of re-proving non-emptiness.
            max: sorted[sorted.len() - 1],
        })
    }

    /// Renders as `mean / p50 / p90 / p95 / p99` in milliseconds, the
    /// format the experiment tables print.
    pub fn to_ms_row(&self) -> String {
        format!(
            "{:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
            self.mean.as_secs_f64() * 1e3,
            self.p50.as_secs_f64() * 1e3,
            self.p90.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
            self.p99.as_secs_f64() * 1e3
        )
    }
}

/// Throughput in operations per second given a batch size and elapsed time.
pub fn throughput(ops: usize, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    ops as f64 / elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn empty_samples_give_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_sample_summary() {
        let s = Summary::of(&[ms(10)]).unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, ms(10));
        assert_eq!(s.min, ms(10));
        assert_eq!(s.p50, ms(10));
        assert_eq!(s.p90, ms(10));
        assert_eq!(s.p95, ms(10));
        assert_eq!(s.p99, ms(10));
        assert_eq!(s.p999, ms(10));
        assert_eq!(s.max, ms(10));
    }

    #[test]
    fn percentiles_are_order_invariant() {
        let a = Summary::of(&[ms(1), ms(2), ms(3), ms(4), ms(100)]).unwrap();
        let b = Summary::of(&[ms(100), ms(3), ms(1), ms(4), ms(2)]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.p50, ms(3));
        assert_eq!(a.max, ms(100));
        assert_eq!(a.min, ms(1));
        assert_eq!(a.mean, ms(22));
    }

    #[test]
    fn p95_tracks_tail() {
        let mut samples = vec![ms(10); 99];
        samples.push(ms(1000));
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.p50, ms(10));
        assert_eq!(s.p90, ms(10));
        assert!(s.p95 <= ms(1000));
        // Nearest-rank rounding puts p99 of 100 samples at index 98,
        // one short of the single outlier; max still reports it.
        assert_eq!(s.p99, ms(10));
        assert_eq!(s.max, ms(1000));
    }

    #[test]
    fn p99_lands_on_tail_with_enough_samples() {
        // Index round(999 * 0.99) = 989 must fall inside the tail block.
        let mut samples = vec![ms(10); 989];
        samples.extend(std::iter::repeat_n(ms(1000), 11));
        let s = Summary::of(&samples).unwrap();
        assert_eq!(s.p99, ms(1000));
        assert_eq!(s.p90, ms(10));
        // p999 of 1000 samples indexes round(999 * 0.999) = 998 — inside
        // the 11-sample tail block.
        assert_eq!(s.p999, ms(1000));
    }

    #[test]
    fn p999_needs_a_thousand_samples_to_leave_the_body() {
        let mut samples = vec![ms(10); 999];
        samples.push(ms(1000));
        let s = Summary::of(&samples).unwrap();
        // round(999 * 0.999) = 998: one short of the single outlier.
        assert_eq!(s.p999, ms(10));
        assert_eq!(s.max, ms(1000));
    }

    #[test]
    fn throughput_computes_ops_per_sec() {
        assert!((throughput(100, Duration::from_secs(2)) - 50.0).abs() < 1e-9);
        assert!(throughput(1, Duration::ZERO).is_infinite());
    }

    #[test]
    fn ms_row_is_fixed_width() {
        let s = Summary::of(&[ms(1), ms(2)]).unwrap();
        let row = s.to_ms_row();
        assert_eq!(row.split_whitespace().count(), 5);
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
        g.set(7);
        assert_eq!(g.get(), 7);
        g.set(0);
        g.decr();
        assert_eq!(g.get(), 0, "decr saturates at zero");
    }

    #[test]
    fn gauge_watermark_survives_reads_and_resets_explicitly() {
        let g = Gauge::new();
        g.incr();
        g.incr();
        g.incr();
        g.decr();
        g.decr();
        assert_eq!(g.get(), 1);
        assert_eq!(g.watermark(), 3, "peak level retained after drops");
        assert_eq!(g.watermark(), 3, "reading the watermark is non-destructive");
        g.reset_watermark();
        assert_eq!(g.watermark(), 1, "reset restarts tracking at the level");
        g.set(9);
        g.set(2);
        assert_eq!(g.watermark(), 9, "set() raises the watermark too");
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn gauge_watermark_never_below_level() {
        let g = Gauge::new();
        g.set(5);
        g.reset_watermark();
        assert_eq!(g.watermark(), 5);
        g.incr();
        assert_eq!(g.watermark(), 6);
    }
}
