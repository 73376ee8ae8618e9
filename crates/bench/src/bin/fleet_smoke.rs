//! Fleet-simulation smoke gate: runs a lossy 2k-client fleet scenario
//! (replay pressure, admission sheds) twice and asserts the
//! [`FleetReport`] digest **and** the canonical E13-style artifact are
//! byte-identical across runs, then checks the terminal-state
//! invariants. Writes the digest and both artifact halves to
//! `target/fleet/` for CI artifact upload.
//!
//! Run: `cargo run --release -p utp-bench --bin fleet_smoke` (pass
//! `--nightly` for the 1M-client flash-crowd run under a time budget).
//!
//! [`FleetReport`]: utp_netsim::FleetReport

// Times the nightly run against its budget on the host clock.
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use utp_netsim::{
    AdmissionConfig, ArrivalCurve, FleetReport, LinkConfig, LinkProfile, Scenario, Topology,
};
use utp_obs::{Artifact, Class};

/// The smoke scenario: 8 hubs × 250 clients under 12% loss with
/// reordering, arriving at twice the pool's capacity (2000/s offered
/// against 2 workers × 2 ms verify = 1000/s), so both replay and
/// admission-shed paths fire.
fn smoke_scenario(seed: u64) -> Scenario {
    let core = LinkProfile::clean(LinkConfig::fixed_rtt_bw(
        Duration::from_millis(4),
        50_000_000,
    ));
    let leaf = LinkProfile::clean(LinkConfig::broadband())
        .with_loss_ppm(120_000)
        .with_reorder(50_000, Duration::from_millis(30));
    let topo = Topology::two_tier(8, 250, core, leaf);
    let mut sc = Scenario::new(topo, ArrivalCurve::Steady, Duration::from_secs(1), seed);
    sc.provider.workers = 2;
    sc.provider.verify_cost = Duration::from_millis(2);
    sc.provider.queue_limit = 256;
    sc.provider.admission = Some(AdmissionConfig::for_service_time(
        64,
        Duration::from_millis(1),
    ));
    sc.retry.timeout = Duration::from_millis(300);
    sc.tag_run("fleet-smoke");
    sc
}

/// The nightly scenario: 1M clients, flash crowd (half the fleet
/// surges in a tenth of the horizon), modest loss, admission on.
fn nightly_scenario(seed: u64) -> Scenario {
    let core = LinkProfile::clean(LinkConfig::fixed_rtt_bw(
        Duration::from_millis(4),
        50_000_000,
    ));
    let leaf = LinkProfile::clean(LinkConfig::broadband()).with_loss_ppm(20_000);
    let topo = Topology::two_tier(100, 10_000, core, leaf);
    let mut sc = Scenario::new(
        topo,
        ArrivalCurve::FlashCrowd {
            surge_fraction: 0.5,
            surge_at: Duration::from_secs(16),
            surge_width: Duration::from_secs(4),
        },
        Duration::from_secs(40),
        seed,
    );
    sc.provider.workers = 4;
    sc.provider.verify_cost = Duration::from_micros(120);
    sc.provider.queue_limit = 4_096;
    sc.provider.admission = Some(AdmissionConfig::for_service_time(
        256,
        Duration::from_micros(30),
    ));
    sc.tag_run("fleet-nightly");
    sc
}

/// Canonical artifact for the byte-identity check: every `fleet.*`
/// counter of the report, labeled `run=smoke`. The queue-depth
/// watermark rides as both `fleet.queue_depth` and
/// `fleet.queue_depth.watermark`; the latency histogram as one dist.
fn canonical_artifact(r: &FleetReport, config: &str) -> Artifact {
    let run = ("run", "smoke");
    let mut artifact = Artifact::new("FLEET_SMOKE", Class::Virtual, config);
    let fs = &r.full_stack;
    for (name, v) in [
        ("fleet.clients", r.fleet),
        ("fleet.placed", r.placed),
        ("fleet.settled", r.settled),
        ("fleet.rejected", r.rejected),
        ("fleet.gave_up", r.gave_up),
        ("fleet.abandoned", r.abandoned),
        ("fleet.timeouts", r.timeouts),
        ("fleet.retries", r.retries),
        ("fleet.replays_sent", r.replays_sent),
        ("fleet.shed_admission", r.shed_admission),
        ("fleet.dropped_queue_full", r.dropped_queue_full),
        ("fleet.dup_settle_attempts", r.duplicate_settle_attempts),
        ("fleet.verify_jobs", r.verify_jobs),
        ("fleet.worker_busy_ns", r.worker_busy.as_nanos() as u64),
        ("fleet.makespan_ns", r.makespan.as_nanos() as u64),
        ("fleet.events", r.events_processed),
        ("fleet.fullstack_submitted", fs.submitted),
        ("fleet.fullstack_settled", fs.settled),
        ("fleet.fullstack_replayed", fs.replayed),
        ("fleet.fullstack_rejected", fs.rejected),
        ("fleet.queue_depth", r.queue_depth_watermark),
        ("fleet.queue_depth.watermark", r.queue_depth_watermark),
    ] {
        artifact.push_u64(name, &[run], v);
    }
    artifact.push_hist("fleet.latency", &[run], &r.latency);
    for (class, stats) in &r.link_stats {
        let with_class = [run, ("class", class.as_str())];
        for (name, v) in [
            ("fleet.link_messages_carried", stats.messages_carried),
            ("fleet.link_messages_dropped", stats.messages_dropped),
            ("fleet.link_bytes_carried", stats.bytes_carried),
            ("fleet.link_bytes_dropped", stats.bytes_dropped),
        ] {
            artifact.push_u64(name, &with_class, v);
        }
    }
    artifact
}

fn invariant_failures(report: &FleetReport) -> Vec<String> {
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

fn main() -> ExitCode {
    let nightly = std::env::args().any(|a| a == "--nightly");
    // Nightly budget: the 1M flash crowd must simulate inside 10
    // minutes of host time or the simulator has regressed.
    let budget = Duration::from_secs(600);

    let config = "hubs=8 per_hub=250 loss=120000ppm verify=2ms queue=64 seed=4242";
    let report_a = smoke_scenario(4242).run();
    let report_b = smoke_scenario(4242).run();
    let digest = report_a.digest();
    if digest != report_b.digest() {
        eprintln!("fleet smoke FAILED: report digests diverge across identical runs");
        for (i, (la, lb)) in digest.lines().zip(report_b.digest().lines()).enumerate() {
            if la != lb {
                eprintln!(
                    "first differing line {}:\n  run 1: {la}\n  run 2: {lb}",
                    i + 1
                );
                break;
            }
        }
        return ExitCode::FAILURE;
    }
    let artifact_a = canonical_artifact(&report_a, config);
    let artifact_b = canonical_artifact(&report_b, config);
    if artifact_a.to_json() != artifact_b.to_json() {
        eprintln!("fleet smoke FAILED: canonical artifacts diverge across identical runs");
        return ExitCode::FAILURE;
    }
    let failures = invariant_failures(&report_a);
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("fleet smoke FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }
    if report_a.replays_sent == 0 || report_a.shed_admission == 0 {
        eprintln!(
            "fleet smoke FAILED: the storm must exercise replays ({}) and sheds ({})",
            report_a.replays_sent, report_a.shed_admission
        );
        return ExitCode::FAILURE;
    }

    let mut nightly_note = String::new();
    if nightly {
        let start = Instant::now();
        let report = nightly_scenario(31337).run();
        let elapsed = start.elapsed();
        let failures = invariant_failures(&report);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("fleet nightly FAILED: {f}");
            }
            return ExitCode::FAILURE;
        }
        if elapsed > budget {
            eprintln!(
                "fleet nightly FAILED: 1M-client flash crowd took {:.1}s (budget {:.0}s)",
                elapsed.as_secs_f64(),
                budget.as_secs_f64()
            );
            return ExitCode::FAILURE;
        }
        let _ = write!(
            nightly_note,
            "; nightly: 1M clients / {} events in {:.1}s host ({:.0} events/s), \
             goodput {:.0}/s, p999 {:.0} ms, shed rate {:.1}%",
            report.events_processed,
            elapsed.as_secs_f64(),
            report.events_processed as f64 / elapsed.as_secs_f64().max(1e-9),
            report.goodput_per_sec(),
            report.latency.p999().as_secs_f64() * 1e3,
            report.shed_rate() * 100.0,
        );
    }

    if let Err(e) = fs::create_dir_all("target/fleet")
        .and_then(|()| fs::write("target/fleet/fleet_smoke_digest.txt", &digest))
        .and_then(|()| fs::write("target/fleet/FLEET_SMOKE.json", artifact_a.to_json()))
    {
        eprintln!("fleet smoke FAILED: cannot write target/fleet artifacts: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "fleet smoke OK: 2000 clients / {} events byte-identical across 2 runs \
         ({} replays, {} sheds, {} settled); artifacts in target/fleet/{}",
        report_a.events_processed,
        report_a.replays_sent,
        report_a.shed_admission,
        report_a.settled,
        nightly_note
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use utp_netsim::ClassStats;
    use utp_obs::{MetricId, MetricValue};

    #[test]
    fn canonical_artifact_flattens_the_fleet_families() {
        let mut report = FleetReport {
            settled: 7,
            queue_depth_watermark: 3,
            ..FleetReport::default()
        };
        for ns in [1_000, 2_000, 4_000] {
            report.latency.record_ns(ns);
        }
        for (class, carried) in [("core", 11), ("leaf", 5)] {
            let stats = ClassStats {
                messages_carried: carried,
                ..ClassStats::default()
            };
            report.link_stats.push((class.to_string(), stats));
        }
        let artifact = canonical_artifact(&report, "unit");
        let get = |name: &str, labels: &[(&str, &str)]| {
            let id = MetricId::new(name, labels);
            artifact
                .metrics
                .iter()
                .find(|m| m.id == id)
                .map(|m| m.value)
        };
        let run = ("run", "smoke");
        assert_eq!(get("fleet.settled", &[run]), Some(MetricValue::U64(7)));
        assert_eq!(
            get("fleet.queue_depth.watermark", &[run]),
            Some(MetricValue::U64(3))
        );
        match get("fleet.latency", &[run]) {
            Some(MetricValue::Dist(d)) => assert_eq!(d.count, 3),
            other => panic!("expected a latency dist, got {other:?}"),
        }
        for (class, carried) in [("core", 11), ("leaf", 5)] {
            assert_eq!(
                get("fleet.link_messages_carried", &[run, ("class", class)]),
                Some(MetricValue::U64(carried))
            );
        }
        // Serialization sorts by id and rejects duplicates.
        assert!(artifact.to_json().contains("fleet.link_bytes_dropped"));
    }
}
