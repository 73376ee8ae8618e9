//! `fleet_flash`: the fleet simulator's event loop, client state machines
//! and admission policy, with no cryptography at all.
//!
//! One pure-model `Scenario::run` per round: a two-tier network with
//! lossy leaf links and an open-loop flash crowd on virtual time that
//! surges past the modeled provider's capacity with admission control
//! on, so sheds, backoff, retries and timeouts all fire. The arrival
//! generator runs on virtual time, so it cannot run late. Every round
//! re-runs the same scenario, and its report must match the first one's
//! digest exactly.

use crate::report::{ratio, Metrics};
use crate::spans::{SpanLog, SpanStats};
use crate::{Bench, Tally};
use std::collections::BTreeMap;
use std::time::Duration;
use utp_netsim::{
    AdmissionConfig, ArrivalCurve, FleetReport, LinkConfig, LinkProfile, Scenario, Topology,
};
use utp_server::metrics::HostStopwatch;
use utp_trace::LatencyHistogram;

/// Hubs in the two-tier topology.
const HUBS: u32 = 80;
/// Clients per hub.
const PER_HUB: u32 = 2_500;

/// The `fleet_flash` workload.
#[derive(Debug, Clone, Copy)]
pub struct Fleet;

/// The scenario every round runs.
fn scenario(seed: u64) -> Scenario {
    let core = LinkProfile::clean(LinkConfig::fixed_rtt_bw(
        Duration::from_millis(4),
        50_000_000,
    ));
    let leaf = LinkProfile::clean(LinkConfig::broadband())
        .with_loss_ppm(30_000)
        .with_reorder(20_000, Duration::from_millis(20));
    let topo = Topology::two_tier(HUBS, PER_HUB, core, leaf);
    let clients = f64::from(HUBS * PER_HUB);
    // Half the fleet arrives over the horizon at 30 % of the
    // capacity of four workers at 120 µs (~33k/s); the other half
    // surges in at 90 %, so the surge runs at 120 % of capacity.
    let horizon = clients / 2.0 / 10_000.0;
    let mut sc = Scenario::new(
        topo,
        ArrivalCurve::FlashCrowd {
            surge_fraction: 0.5,
            surge_at: Duration::from_secs_f64(horizon * 0.25),
            surge_width: Duration::from_secs_f64(clients / 2.0 / 30_000.0),
        },
        Duration::from_secs_f64(horizon),
        seed,
    );
    sc.provider.workers = 4;
    sc.provider.verify_cost = Duration::from_micros(120);
    sc.provider.queue_limit = 4_096;
    // Shed clients are told to come back once the backlog they saw
    // has drained several times over, so a shed cohort returns after
    // the surge instead of burning its retry budget inside it.
    sc.provider.admission = Some(AdmissionConfig {
        max_queue: 512,
        retry_floor: Duration::from_millis(50),
        retry_per_job: Duration::from_millis(2),
    });
    sc.retry.timeout = Duration::from_millis(800);
    sc.retry.max_attempts = 12;
    sc.tag_run("fleet-flash");
    sc
}

/// The scenario, the peak of its arrival plan, and the first round's
/// report, which every later round must reproduce.
pub struct FleetWorld {
    scenario: Scenario,
    /// Highest arrival rate over any 100 ms of the plan, as a multiple of
    /// the modeled provider's capacity.
    peak_load: f64,
    digest: Option<String>,
}

/// Per-layer accumulators over the rounds.
#[derive(Debug, Default)]
pub struct FleetLayers {
    report: Option<FleetReport>,
    run_host: Duration,
    events: u64,
}

/// The invariants `fleet_smoke` checks: terminal states partition the
/// fleet, settles never outnumber verifications, and every client placed
/// exactly one order.
pub fn invariant_failures(report: &FleetReport) -> Vec<String> {
    let mut failures = Vec::new();
    if report.settled + report.rejected + report.gave_up + report.abandoned != report.placed {
        failures.push(format!(
            "terminal states do not partition the fleet: {} + {} + {} + {} != {}",
            report.settled, report.rejected, report.gave_up, report.abandoned, report.placed
        ));
    }
    if report.verify_jobs < report.settled + report.duplicate_settle_attempts {
        failures.push("settles outnumber verifications".to_string());
    }
    if report.placed != report.fleet {
        failures.push(format!(
            "every client must place exactly one order: {} of {}",
            report.placed, report.fleet
        ));
    }
    failures
}

/// The `q`-quantile of a `LatencyHistogram`, linearly interpolated inside
/// its bucket, in ns.
///
/// The histogram answers only with bucket bounds (1/16 of an octave), so
/// a plain quantile can read the same bound for every seed. Ranks are
/// probed through the public `quantile` to find which ranks share the
/// target's bucket, and the target's position among them places it
/// inside the bucket.
pub fn interpolated_quantile(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at = |rank: u64| h.quantile((rank as f64 - 0.5) / n as f64).as_nanos() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let upper = at(rank);
    // First and last rank whose value is `upper`.
    let (mut lo, mut hi) = (1u64, rank);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < upper {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > upper {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    // Bucket floor: values sharing the top five bits of `upper`.
    let lower = if upper < 16 {
        upper
    } else {
        let shift = 63 - upper.leading_zeros() - 4;
        (upper >> shift) << shift
    };
    let pos = ((rank - first) as f64 + 0.5) / (last - first + 1) as f64;
    lower as f64 + pos * (upper - lower) as f64
}

impl Bench for Fleet {
    type World = FleetWorld;
    type Layers = FleetLayers;
    const ROOT_SPAN: &'static str = "fleet.round";
    /// One host sample per scenario run (about a second) is too few for
    /// per-window percentiles; take them over the whole run.
    const HOST_WINDOW: Duration = Duration::MAX;
    /// Set-up is a few milliseconds: take the median of more.
    const SLICES: u32 = 9;

    fn setup(&self, seed: u64) -> FleetWorld {
        let scenario = scenario(seed);
        // The arrival plan is the workload's input; materialize it to
        // check that it really surges past capacity.
        let plan = scenario.arrival.plan(
            seed,
            scenario.topology.clients().count() as u32,
            scenario.horizon,
        );
        let mut bins: BTreeMap<u128, u64> = BTreeMap::new();
        for at in &plan.born_at {
            *bins.entry(at.as_millis() / 100).or_default() += 1;
        }
        let peak_rate = bins.values().max().copied().unwrap_or(0) as f64 * 10.0;
        let capacity =
            f64::from(scenario.provider.workers) / scenario.provider.verify_cost.as_secs_f64();
        FleetWorld {
            peak_load: peak_rate / capacity,
            scenario,
            digest: None,
        }
    }

    fn round(
        &self,
        w: &mut FleetWorld,
        tally: &mut Tally,
        log: &mut SpanLog,
        layers: &mut FleetLayers,
    ) {
        let op = log.new_op();
        let root = log.begin(op, None, Self::ROOT_SPAN);
        let sc = &w.scenario;
        if log.is_enabled() {
            // `Scenario::run` plans the arrivals itself; the traced run
            // also times the planner on its own.
            log.time(op, Some(root), "netsim.plan", || {
                sc.arrival
                    .plan(sc.seed, sc.topology.clients().count() as u32, sc.horizon)
            });
        }
        let sw = HostStopwatch::start();
        let report = log.time(op, Some(root), "netsim.run", || sc.run());
        let host = sw.elapsed();
        log.end(root);

        tally.attempted += report.placed;
        tally
            .host
            .record(ratio(host.as_nanos() as f64, report.placed as f64));
        let unsettled = report.placed - report.settled.min(report.placed);
        if unsettled > 0 {
            tally.fail_many(
                unsettled,
                format!("{unsettled} of {} orders never settled", report.placed),
            );
        }
        for f in invariant_failures(&report) {
            tally.fail(f);
        }
        let digest = report.digest();
        match &w.digest {
            None => {
                if w.peak_load <= 1.0 {
                    tally.fail(format!(
                        "the arrival plan peaks at {:.2}x capacity; the flash crowd must exceed it",
                        w.peak_load
                    ));
                }
                tally.confirm_fixed = Some([
                    ratio(
                        report.latency.sum().as_nanos() as f64,
                        report.latency.count() as f64,
                    ),
                    interpolated_quantile(&report.latency, 0.99),
                ]);
                w.digest = Some(digest);
            }
            Some(first) if *first != digest => {
                tally.fail("fleet report differs from the first round's".to_string());
            }
            Some(_) => {}
        }
        layers.run_host += host;
        layers.events += report.events_processed;
        layers.report = Some(report);
    }

    fn layer_metrics(
        &self,
        w: &FleetWorld,
        l: &FleetLayers,
        spans: &BTreeMap<&'static str, SpanStats>,
        _probe_budget: Duration,
        m: &mut Metrics,
    ) {
        let Some(r) = &l.report else { return };
        let mean_ms = |name: &str| spans.get(name).map_or(0.0, SpanStats::mean_us) / 1e3;
        let placed = r.placed as f64;
        let per_order = |v: u64| ratio(v as f64, placed);
        m.set("netsim.plan_ms", mean_ms("netsim.plan"));
        m.set("netsim.run_ms", mean_ms("netsim.run"));
        m.set("netsim.events_per_order", per_order(r.events_processed));
        m.set(
            "netsim.events_per_s",
            ratio(l.events as f64, l.run_host.as_secs_f64()),
        );
        m.set("netsim.retries_per_order", per_order(r.retries));
        m.set("netsim.replays_per_order", per_order(r.replays_sent));
        m.set("netsim.shed_per_order", per_order(r.shed_admission));
        m.set("netsim.timeouts_per_order", per_order(r.timeouts));
        m.set(
            "netsim.dup_settles_per_order",
            per_order(r.duplicate_settle_attempts),
        );
        m.set(
            "netsim.verify_jobs_per_settle",
            ratio(r.verify_jobs as f64, r.settled as f64),
        );
        m.set(
            "netsim.worker_utilization",
            ratio(
                r.worker_busy.as_secs_f64(),
                f64::from(w.scenario.provider.workers) * r.makespan.as_secs_f64(),
            ),
        );
        m.set("netsim.queue_watermark", r.queue_depth_watermark as f64);
        let (dropped, total) = r.link_stats.iter().fold((0u64, 0u64), |(d, t), (_, s)| {
            (
                d + s.messages_dropped,
                t + s.messages_dropped + s.messages_carried,
            )
        });
        m.set(
            "netsim.link_drop_share",
            ratio(dropped as f64, total as f64),
        );
    }
}
