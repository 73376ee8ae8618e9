//! E10 — persistent `VerifierService` throughput across thread and
//! shard counts, with cert-cache hit rate and an overload scenario.
//!
//! Host-measured like E4: the RSA verifies are our actual code.
//!
//! Each service run carries a `utp-trace` flight recorder: workers emit
//! volatile `svc.job` records (queue wait + verify CPU per job), the
//! submitter emits deterministic `svc.submit` events, and the row's
//! latency distributions are log-scale histograms folded straight from
//! those records. The canonical export (submitter side only) is
//! byte-identical across identical runs.
//!
//! Regenerate: `cargo run -p utp-bench --bin e10_service`

use crate::experiments::e4_server_throughput as e4;
use crate::table;
use std::sync::Arc;
use std::time::{Duration, Instant};
use utp_server::metrics::{throughput, ServiceStats};
use utp_server::service::{ServiceConfig, SubmitError, VerifierService};
use utp_trace::{keys, names, Export, LatencyHistogram, Recorder, Value};

/// One (threads × shards) service measurement.
#[derive(Debug, Clone)]
pub struct ServiceRow {
    /// Worker threads.
    pub threads: usize,
    /// Nonce-settlement shards.
    pub shards: usize,
    /// Evidence submissions verified (all settling).
    pub jobs: usize,
    /// Wall-clock elapsed.
    pub elapsed: Duration,
    /// Settled verifications per second.
    pub ops_per_sec: f64,
    /// Fraction of AIK lookups served from the cert cache.
    pub cache_hit_rate: f64,
    /// Host-measured enqueue-to-dequeue wait, from `svc.job` records.
    pub wait: LatencyHistogram,
    /// Host-measured verification CPU, from `svc.job` records.
    pub verify: LatencyHistogram,
    /// Full shutdown snapshot: per-shard settlement, per-worker
    /// utilization, cache and overload counters, drain time.
    pub stats: ServiceStats,
}

/// The overload scenario: a one-deep queue fed through the
/// non-blocking submit path, so backpressure actually sheds.
#[derive(Debug, Clone)]
pub struct OverloadRow {
    /// Evidence items eventually accepted into the queue.
    pub submitted: usize,
    /// Submissions bounced with `QueueFull` before acceptance
    /// (host-scheduling dependent).
    pub sheds: u64,
    /// Shutdown snapshot of the overloaded service.
    pub stats: ServiceStats,
}

/// The experiment output.
#[derive(Debug, Clone)]
pub struct E10Report {
    /// `VerifierService` at each thread × shard combination.
    pub service: Vec<ServiceRow>,
    /// The deliberately overloaded run (queue depth 1, single worker).
    pub overload: OverloadRow,
    /// Concatenated canonical JSONL exports (one block per service
    /// combination) — deterministic across identical runs.
    pub canonical_trace: String,
}

/// Folds the per-job host measurements out of a recording.
fn job_histograms(recorder: &Recorder) -> (LatencyHistogram, LatencyHistogram) {
    let mut wait = LatencyHistogram::new();
    let mut verify = LatencyHistogram::new();
    for rec in recorder.records() {
        if rec.name != names::SVC_JOB {
            continue;
        }
        for (k, v) in &rec.fields {
            if let Value::HostNs(ns) = v {
                match *k {
                    keys::WAIT_HOST => wait.record_ns(*ns),
                    keys::VERIFY_HOST => verify.record_ns(*ns),
                    _ => {}
                }
            }
        }
    }
    (wait, verify)
}

/// Runs the grid. Nonces are consumed by settlement, so each service row
/// gets a fresh service with the same requests re-registered.
pub fn run(
    jobs_n: usize,
    key_bits: usize,
    thread_counts: &[usize],
    shard_counts: &[usize],
) -> E10Report {
    let world = e4::build_world(jobs_n, key_bits);
    let mut service_rows = Vec::new();
    let mut canonical_trace = String::new();
    for &threads in thread_counts {
        for &shards in shard_counts {
            let recorder = Arc::new(Recorder::new());
            let mut config = ServiceConfig::new(threads, shards);
            config.trusted_pals = world.pals.clone();
            config.recorder = Some(Arc::clone(&recorder));
            let service = VerifierService::start(world.ca_key.clone(), config);
            for request in &world.requests {
                service.register(request, world.now);
            }
            let start = Instant::now();
            let verdicts = {
                let _sink = recorder.install("submit");
                service.verify_evidence_batch(world.evidence.clone(), world.now)
            };
            let elapsed = start.elapsed();
            assert!(verdicts.iter().all(|v| v.is_ok()), "all evidence genuine");
            let stats = service.shutdown();
            assert_eq!(stats.totals().accepted as usize, world.evidence.len());
            let (wait, verify) = job_histograms(&recorder);
            canonical_trace.push_str(&recorder.export_jsonl(Export::Canonical));
            service_rows.push(ServiceRow {
                threads,
                shards,
                jobs: world.evidence.len(),
                elapsed,
                ops_per_sec: throughput(world.evidence.len(), elapsed),
                cache_hit_rate: stats.cert_cache_hit_rate(),
                wait,
                verify,
                stats,
            });
        }
    }
    let overload = run_overload(&world);
    E10Report {
        service: service_rows,
        overload,
        canonical_trace,
    }
}

/// Drives the whole workload through a queue of depth 1 on one worker
/// via the non-blocking submit path, retrying each `QueueFull` bounce
/// until the item lands. Every bounce increments the service's shed
/// counter; the watermark and drain time come from the same snapshot.
fn run_overload(world: &e4::ServerWorld) -> OverloadRow {
    let mut config = ServiceConfig::new(1, 1);
    config.trusted_pals = world.pals.clone();
    config.queue_depth = 1;
    let service = VerifierService::start(world.ca_key.clone(), config);
    for request in &world.requests {
        service.register(request, world.now);
    }
    let mut tickets = Vec::with_capacity(world.evidence.len());
    let mut sheds = 0u64;
    for evidence in &world.evidence {
        loop {
            match service.try_submit_evidence(evidence.clone(), world.now) {
                Ok(t) => {
                    tickets.push(t);
                    break;
                }
                Err(SubmitError::QueueFull | SubmitError::Overloaded { .. }) => {
                    sheds += 1;
                    std::thread::yield_now();
                }
                Err(SubmitError::ShutDown) => unreachable!("service is alive"),
            }
        }
    }
    let submitted = tickets.len();
    assert!(
        tickets.into_iter().all(|t| t.wait().is_ok()),
        "all evidence genuine"
    );
    let stats = service.shutdown();
    assert_eq!(stats.jobs_shed, sheds, "shed counter matches bounces");
    OverloadRow {
        submitted,
        sheds,
        stats,
    }
}

/// Flattens the report into its perf artifact pair. Job and per-shard
/// settlement counts are fixed by the deterministic workload
/// (canonical); elapsed times, throughput, cache hit rate, the
/// wait/verify distributions, per-worker utilization, and the overload
/// counters all depend on host scheduling (host class).
pub fn artifacts(report: &E10Report, config: &str) -> utp_obs::ArtifactPair {
    let mut pair = utp_obs::ArtifactPair::new("E10", config);
    // Every row keeps its `pipeline=service` label so the metric keys
    // stay comparable with the checked-in baselines.
    for r in &report.service {
        let threads = r.threads.to_string();
        let shards = r.shards.to_string();
        let labels: &[(&str, &str)] = &[
            ("pipeline", "service"),
            ("threads", &threads),
            ("shards", &shards),
        ];
        pair.canonical.push_u64("e10.jobs", labels, r.jobs as u64);
        pair.canonical
            .push_u64("e10.accepted", labels, r.stats.totals().accepted);
        for (i, shard) in r.stats.shards.iter().enumerate() {
            let idx = i.to_string();
            pair.canonical.push_u64(
                "e10.shard_accepted",
                &[
                    ("pipeline", "service"),
                    ("threads", &threads),
                    ("shards", &shards),
                    ("shard", &idx),
                ],
                shard.accepted,
            );
        }
        for (i, jobs) in r.stats.worker_jobs.iter().enumerate() {
            let idx = i.to_string();
            pair.host.push_u64(
                "e10.worker_jobs",
                &[
                    ("pipeline", "service"),
                    ("threads", &threads),
                    ("shards", &shards),
                    ("worker", &idx),
                ],
                *jobs,
            );
        }
        pair.host
            .push_u64("e10.elapsed_ns", labels, r.elapsed.as_nanos() as u64);
        pair.host.push_f64("e10.ops_per_sec", labels, r.ops_per_sec);
        pair.host
            .push_f64("e10.cache_hit_rate", labels, r.cache_hit_rate);
        pair.host.push_hist("e10.wait_ns", labels, &r.wait);
        pair.host.push_hist("e10.verify_ns", labels, &r.verify);
    }
    let o = &report.overload;
    pair.canonical
        .push_u64("e10.overload.submitted", &[], o.submitted as u64);
    pair.canonical
        .push_u64("e10.overload.accepted", &[], o.stats.totals().accepted);
    pair.host.push_u64("e10.overload.sheds", &[], o.sheds);
    pair.host
        .push_f64("e10.overload.shed_rate", &[], o.stats.shed_rate());
    pair.host.push_u64(
        "e10.overload.queue_depth_watermark",
        &[],
        o.stats.queue_depth_watermark,
    );
    pair.host.push_u64(
        "e10.overload.drain_ns",
        &[],
        o.stats.drain_time.as_nanos() as u64,
    );
    pair
}

/// Renders the E10 table: the service grid with trace-derived queue
/// wait and verify-CPU percentiles, then the overload line.
pub fn render(report: &E10Report) -> String {
    let rows: Vec<Vec<String>> = report
        .service
        .iter()
        .map(|r| {
            vec![
                r.threads.to_string(),
                r.shards.to_string(),
                r.jobs.to_string(),
                table::ms(r.elapsed),
                format!("{:.0}", r.ops_per_sec),
                format!("{:.2}", r.cache_hit_rate),
                table::ms(r.wait.p50()),
                table::ms(r.wait.p99()),
                format!("{:.1}", r.verify.p50().as_secs_f64() * 1e6),
            ]
        })
        .collect();
    let mut out = table::render(
        "E10 - VerifierService across threads x shards (host-measured, from utp-trace)",
        &[
            "threads",
            "shards",
            "jobs",
            "elapsed(ms)",
            "verifications/s",
            "cache hit",
            "wait p50(ms)",
            "wait p99(ms)",
            "cpu p50(us)",
        ],
        &rows,
    );
    let o = &report.overload;
    out.push_str(&format!(
        "overload (queue=1, 1 worker): submitted={} sheds={} shed-rate={:.2} \
         queue-watermark={} drain={}\n",
        o.submitted,
        o.sheds,
        o.stats.shed_rate(),
        o.stats.queue_depth_watermark,
        table::ms(o.stats.drain_time),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_client_workload_hits_the_cert_cache() {
        let report = run(32, 512, &[1], &[1]);
        // One client: first lookup misses, the remaining 31 hit.
        assert!(
            report.service[0].cache_hit_rate > 0.9,
            "hit rate {}",
            report.service[0].cache_hit_rate
        );
    }

    #[test]
    fn every_combination_settles_the_whole_batch() {
        // `run` itself asserts all verdicts Ok and accepted == jobs for
        // each combination; this pins the row count.
        let report = run(16, 512, &[1, 2], &[1, 2]);
        assert_eq!(report.service.len(), 4);
    }

    #[test]
    fn overload_scenario_settles_everything_and_snapshots_counters() {
        let report = run(12, 512, &[1], &[1]);
        let o = &report.overload;
        assert_eq!(o.submitted, 12, "every item eventually lands");
        assert_eq!(o.stats.totals().accepted, 12);
        assert_eq!(o.stats.jobs_shed, o.sheds);
        assert!(o.stats.queue_depth_watermark >= 1);
        assert!(o.stats.drain_time > Duration::ZERO);
        // The per-combination rows carry their shutdown snapshot too.
        let row = &report.service[0];
        assert_eq!(row.stats.totals().accepted as usize, row.jobs);
        assert_eq!(row.stats.worker_jobs.iter().sum::<u64>() as usize, row.jobs);
    }

    #[test]
    fn trace_histograms_cover_every_job() {
        let report = run(24, 512, &[2], &[2]);
        let row = &report.service[0];
        assert_eq!(row.wait.count() as usize, row.jobs);
        assert_eq!(row.verify.count() as usize, row.jobs);
        assert!(row.verify.sum() > Duration::ZERO, "RSA verifies cost CPU");
        assert!(row.verify.p50() <= row.verify.p99());
    }

    #[test]
    fn two_runs_export_byte_identical_canonical_jsonl() {
        // The canonical export holds only submitter-side events stamped
        // with the deterministic virtual clock; scheduling noise lives in
        // volatile records that the export drops.
        let a = run(16, 512, &[2], &[2]).canonical_trace;
        let b = run(16, 512, &[2], &[2]).canonical_trace;
        assert_eq!(a, b);
        assert!(a.lines().count() > 16, "submit events + trailer per combo");
    }
}
