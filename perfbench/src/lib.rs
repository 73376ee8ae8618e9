//! The repository's benchmark: four workloads, each run in its own
//! process, that report end-to-end metrics from an untraced run and
//! per-layer metrics from a separate traced run.
//!
//! * `confirm_e2e` — whole transactions through the provider's serial,
//!   journaled path ([`confirm`]).
//! * `settle_hot` / `settle_cold` — the `VerifierService` settle path with
//!   a warm and a defeated certificate cache ([`settle`]).
//! * `fleet_flash` — the pure-model fleet simulator under a flash crowd
//!   ([`fleet`]).
//!
//! The host this runs on switches speed for bignum-heavy code between
//! modes 1.5–2× apart that last from under a second to minutes. Every
//! host-timed figure is therefore a mean over the whole measured phase:
//! throughput is total ops over total measured time, latency is the mean
//! per op, and its p99 is taken per window and averaged over the
//! windows. The phase is cut into slices
//! with a fresh set-up before each, so the set-up time is sampled across
//! the run instead of at one instant.

#![forbid(unsafe_code)]

pub mod calib;
pub mod confirm;
pub mod fleet;
pub mod hist;
pub mod probe;
pub mod report;
pub mod settle;
pub mod spans;

use hist::Latency;
use report::{ratio, Metrics};
use spans::{SpanLog, SpanStats};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_journal::{DeviceProfile, JournalConfig};
use utp_platform::human::HumanConfig;
use utp_server::metrics::HostStopwatch;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["confirm_e2e", "settle_hot", "settle_cold", "fleet_flash"];

/// Seed of all key material the workloads generate: the privacy CA's
/// key and every TPM's keys, AIKs included. Every run uses the same
/// keys, so neither set-up time (prime search) nor the cost of an RSA
/// operation depends on which primes `--seed` happened to draw.
/// `--seed` drives everything else: nonces, amounts, the humans' answers,
/// which transactions are declined, link jitter and the fleet's arrivals.
pub const KEY_SEED: u64 = 0x6b65_795f_7365_6564;

/// What one workload does; implemented by each workload module.
pub trait Bench {
    /// Everything set-up builds: keys, machines, inputs.
    type World;
    /// Per-layer accumulators filled by every round.
    type Layers: Default;
    /// Name of the span that encloses one op in the traced run.
    const ROOT_SPAN: &'static str;
    /// Window of the host latency percentiles (see [`Latency`]).
    const HOST_WINDOW: Duration = hist::WINDOW;
    /// Set-ups (and measured slices) per untraced run: the median of
    /// several set-ups spread over the run is `setup_s`.
    const SLICES: u32 = 3;

    /// Builds the world and every input from `seed`.
    fn setup(&self, seed: u64) -> Self::World;

    /// Runs one round of ops, checking every outcome into `tally`,
    /// recording spans around each call into the program in `log` and
    /// folding the round's counts into `layers`.
    fn round(
        &self,
        world: &mut Self::World,
        tally: &mut Tally,
        log: &mut SpanLog,
        layers: &mut Self::Layers,
    );

    /// Turns the traced rounds and their per-name span totals into
    /// per-layer metrics, and spends up to `probe_budget` timing layer
    /// functions on the world's inputs.
    fn layer_metrics(
        &self,
        world: &Self::World,
        layers: &Self::Layers,
        spans: &BTreeMap<&'static str, SpanStats>,
        probe_budget: Duration,
        m: &mut Metrics,
    );
}

/// The journal every workload attaches: an NVMe-class device and eight
/// records per group commit.
pub fn journal_config() -> JournalConfig {
    JournalConfig::new(DeviceProfile::nvme(), 8)
}

/// A vigilant human who notices and fixes every typo. With the default
/// model an approving human sometimes fails the code three times and the
/// PAL rejects; the workloads keep every approval settling, so any
/// rejection of one is a fault of the program.
pub fn careful_human(intent: Intent, seed: u64) -> ConfirmingHuman {
    let config = HumanConfig {
        correction_rate: 1.0,
        ..HumanConfig::default()
    };
    ConfirmingHuman::with_config(intent, 1.0, config, seed)
}

/// End-to-end accumulation shared by every workload.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose outcome was wrong or errored, plus broken invariants.
    pub failed: u64,
    /// The first few failures, described.
    pub violations: Vec<String>,
    /// Host latency per op, ns.
    pub host: Latency,
    /// The latency a user waits for a confirmation, ns.
    pub confirm: Latency,
    /// Confirmation latency mean and p99 in ns, for workloads whose
    /// program reports a distribution instead of samples.
    pub confirm_fixed: Option<[f64; 2]>,
}

impl Tally {
    /// An empty tally whose host latency uses `host_window`.
    pub fn new(host_window: Duration) -> Tally {
        Tally {
            host: Latency::new(host_window),
            ..Tally::default()
        }
    }

    /// Records a failed op or a broken invariant.
    pub fn fail(&mut self, what: String) {
        self.fail_many(1, what);
    }

    /// Records `n` failed ops sharing one description.
    pub fn fail_many(&mut self, n: u64, what: String) {
        self.failed += n;
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    fn confirm_mean_p99(&self) -> [f64; 2] {
        self.confirm_fixed
            .unwrap_or([self.confirm.mean(), self.confirm.p99()])
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Wrong or errored outcomes.
    pub failed: u64,
    /// The first few failures, described.
    pub violations: Vec<String>,
    /// Metric values.
    pub metrics: Metrics,
    /// Calibration kernel time before and after the workload, µs.
    pub calib_us: [f64; 2],
}

impl Outcome {
    /// True when every op's outcome was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs `round` until `budget` of measured time has passed (at least
/// once); returns the measured time.
fn measure<B: Bench>(
    b: &B,
    world: &mut B::World,
    tally: &mut Tally,
    budget: Duration,
    log: &mut SpanLog,
    layers: &mut B::Layers,
) -> Duration {
    let sw = HostStopwatch::start();
    loop {
        b.round(world, tally, log, layers);
        let elapsed = sw.elapsed();
        if elapsed >= budget {
            return elapsed;
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run: `B::SLICES` set-ups, each followed by its share of
/// `seconds` of measured rounds. Reports every end-to-end metric.
pub fn run_untraced<B: Bench>(b: &B, seed: u64, seconds: Duration) -> Outcome {
    let calib_before = calib::measure();
    let mut tally = Tally::new(B::HOST_WINDOW);
    let mut setups = Vec::new();
    let mut measured = Duration::ZERO;
    for slice in 1..=B::SLICES {
        let sw = HostStopwatch::start();
        let mut world = b.setup(seed);
        setups.push(sw.elapsed().as_secs_f64());
        let target = seconds * slice / B::SLICES;
        let budget = target.saturating_sub(measured);
        measured += measure(
            b,
            &mut world,
            &mut tally,
            budget,
            &mut SpanLog::disabled(),
            &mut B::Layers::default(),
        );
    }
    let calib_after = calib::measure();

    let mut m = Metrics::default();
    let [c_mean, c99] = tally.confirm_mean_p99();
    m.set("setup_s", median(setups));
    m.set("peak_rss_mb", peak_rss_mb());
    m.set(
        "ops_per_s",
        ratio(tally.attempted as f64, measured.as_secs_f64()),
    );
    m.set("mean_us", tally.host.mean() / 1e3);
    m.set("p99_us", tally.host.p99() / 1e3);
    m.set(
        "success_rate",
        1.0 - ratio(tally.failed as f64, tally.attempted as f64),
    );
    m.set("confirm_mean_ms", c_mean / 1e6);
    m.set("confirm_p99_ms", c99 / 1e6);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        violations: tally.violations,
        metrics: m,
        calib_us: [calib_before, calib_after],
    }
}

/// Where a traced run writes its spans: `perfbench/out/` in the
/// checkout the benchmark was built from.
pub fn span_path(workload: &str, seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{workload}-{seed}.jsonl"))
}

/// The traced run: one set-up, then a third of `seconds` each for an
/// untraced reference phase, a traced phase and the layer probes.
/// Reports every per-layer metric; spans go to `span_out` at the end.
pub fn run_traced<B: Bench>(
    b: &B,
    seed: u64,
    seconds: Duration,
    span_out: Option<PathBuf>,
) -> Outcome {
    let calib_before = calib::measure();
    let phase = seconds / 3;
    let mut world = b.setup(seed);

    let mut plain = Tally::new(B::HOST_WINDOW);
    let plain_time = measure(
        b,
        &mut world,
        &mut plain,
        phase,
        &mut SpanLog::disabled(),
        &mut B::Layers::default(),
    );

    let mut log = SpanLog::new();
    let mut layers = B::Layers::default();
    let mut tally = Tally::new(B::HOST_WINDOW);
    let traced_time = measure(b, &mut world, &mut tally, phase, &mut log, &mut layers);

    let summary = log.summary();
    let mut m = Metrics::default();
    b.layer_metrics(&world, &layers, &summary, phase, &mut m);
    let calib_after = calib::measure();

    let per_op = |t: Duration, n: u64| ratio(t.as_secs_f64(), n as f64);
    m.set("host.calib_us", (calib_before + calib_after) / 2.0);
    m.set(
        "trace.overhead_ratio",
        ratio(
            per_op(traced_time, tally.attempted),
            per_op(plain_time, plain.attempted),
        ),
    );
    m.set(
        "trace.spans_per_op",
        ratio(log.spans().len() as f64, tally.attempted as f64),
    );
    m.set(
        "trace.root_self_us",
        summary.get(B::ROOT_SPAN).map_or(0.0, |s| s.self_us()),
    );
    m.set(
        "e2e.latency_samples",
        (plain.host.count() + tally.host.count()) as f64,
    );
    m.set("e2e.p50_us", plain.host.p50() / 1e3);
    let attempted = plain.attempted + tally.attempted;
    let mut failed = plain.failed + tally.failed;
    m.set("e2e.fail_rate", ratio(failed as f64, attempted as f64));

    let mut violations = plain.violations;
    violations.extend(tally.violations);
    if let Some(path) = span_out {
        if let Err(e) = log.write_jsonl(&path) {
            failed += 1;
            violations.push(format!("writing spans to {}: {e}", path.display()));
        }
    }
    Outcome {
        attempted,
        failed,
        violations,
        metrics: m,
        calib_us: [calib_before, calib_after],
    }
}
