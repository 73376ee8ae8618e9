//! A fine-grained log-scale histogram.
//!
//! `utp_trace::LatencyHistogram` buckets at 1/16 of an octave (6.25 %),
//! which is coarse enough that a median can read the same bucket bound on
//! every run. This one uses 256 buckets per octave (0.27 %) and
//! interpolates inside the bucket, so percentiles move continuously with
//! the data, while memory stays fixed no matter how many samples a run
//! records (peak RSS must not depend on how fast the host was).

use std::time::Duration;
use utp_server::metrics::HostStopwatch;

/// Buckets per power of two.
const PER_OCTAVE: f64 = 256.0;
/// Octaves covered: values from 1 to 2^48 (ns: up to ~3 days).
const OCTAVES: usize = 48;
const BUCKETS: usize = OCTAVES * PER_OCTAVE as usize;

/// Fixed-size histogram of positive values (the caller picks the unit,
/// usually nanoseconds).
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist::new()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }

    fn bucket_of(value: f64) -> usize {
        let v = value.max(1.0);
        ((v.log2() * PER_OCTAVE) as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Forgets every sample.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `q`-quantile, geometrically interpolated inside its bucket.
    /// Zero when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let within = (rank - seen) as f64 - 0.5;
                let pos = (idx as f64 + within / c as f64) / PER_OCTAVE;
                return pos.exp2();
            }
            seen += c;
        }
        0.0
    }
}

/// Length of one window of [`Latency`]: long enough that a closed loop
/// at ~1000 ops/s leaves ten samples above the window's p99.
pub const WINDOW: Duration = Duration::from_secs(2);

/// A run's latency samples, summarized as their mean over the whole run
/// and a median and p99 taken per window (two seconds unless the
/// workload says otherwise) and averaged over the run's windows.
///
/// The host's speed flips between modes 1.5–2× apart, often several
/// times a second and sometimes for minutes. Within a window the samples
/// then form two humps, and a median snaps to whichever hump holds more
/// of them, so across runs it jumps between the modes' values; a mean
/// moves in proportion to the mix. A p99 over a whole run snaps to the
/// worst episode, while the average of per-window p99s moves with the
/// mix too.
#[derive(Debug)]
pub struct Latency {
    window_len: Duration,
    window: Hist,
    opened: HostStopwatch,
    medians: f64,
    tails: f64,
    windows: u64,
    sum: f64,
    count: u64,
}

impl Default for Latency {
    fn default() -> Self {
        Latency::new(WINDOW)
    }
}

impl Latency {
    /// No samples yet, with windows `window_len` long; `Duration::MAX`
    /// takes every percentile over the whole run.
    pub fn new(window_len: Duration) -> Latency {
        Latency {
            window_len,
            window: Hist::new(),
            opened: HostStopwatch::start(),
            medians: 0.0,
            tails: 0.0,
            windows: 0,
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one sample, closing the current window once it is
    /// `window_len` old.
    pub fn record(&mut self, value: f64) {
        if self.opened.elapsed() >= self.window_len {
            if self.window.count() > 0 {
                self.medians += self.window.quantile(0.5);
                self.tails += self.window.quantile(0.99);
                self.windows += 1;
                self.window.clear();
            }
            self.opened = HostStopwatch::start();
        }
        self.window.record(value);
        self.sum += value;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of every sample; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// `q`-quantile of each window averaged over the windows (the open
    /// window counts as one).
    fn averaged(&self, closed_sum: f64, q: f64) -> f64 {
        let (mut sum, mut n) = (closed_sum, self.windows);
        if self.window.count() > 0 {
            sum += self.window.quantile(q);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// The windows' medians, averaged.
    pub fn p50(&self) -> f64 {
        self.averaged(self.medians, 0.5)
    }

    /// The windows' 99th percentiles, averaged.
    pub fn p99(&self) -> f64 {
        self.averaged(self.tails, 0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_the_data_within_a_bucket() {
        let mut h = Hist::new();
        for v in 1..=1000 {
            h.record(f64::from(v) * 1000.0);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / 500_000.0 - 1.0).abs() < 0.01, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / 990_000.0 - 1.0).abs() < 0.01, "{p99}");
    }

    #[test]
    fn one_window_reads_like_the_plain_statistics() {
        let mut l = Latency::default();
        for v in 1..=1000 {
            l.record(f64::from(v) * 1000.0);
        }
        assert_eq!(l.count(), 1000);
        assert_eq!(l.mean(), 500_500.0);
        assert!((l.p50() / 500_000.0 - 1.0).abs() < 0.01, "{}", l.p50());
        assert!((l.p99() / 990_000.0 - 1.0).abs() < 0.01, "{}", l.p99());
    }
}
