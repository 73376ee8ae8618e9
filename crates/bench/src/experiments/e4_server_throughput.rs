//! E4 — server-side verification throughput and latency, measured for
//! real on the host CPU (the one experiment whose numbers are not
//! modeled: RSA verification is our actual code). Each thread count
//! drives the production `VerifierService` (one settlement shard, the
//! AIK-certificate cache on) through register-then-settle.
//!
//! Regenerate: `cargo run -p utp-bench --bin e4_server_throughput`

use crate::table;
use std::collections::HashSet;
use std::time::{Duration, Instant};
use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_core::pal::ConfirmationPal;
use utp_core::protocol::Transaction;
use utp_core::verifier::Verifier;
use utp_crypto::rsa::RsaPublicKey;
use utp_crypto::sha1::Sha1Digest;
use utp_platform::machine::{Machine, MachineConfig};
use utp_server::metrics::throughput;
use utp_server::service::{ServiceConfig, VerifierService};

/// One thread-count measurement.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Worker threads.
    pub threads: usize,
    /// Jobs verified.
    pub jobs: usize,
    /// Wall-clock elapsed.
    pub elapsed: Duration,
    /// Verifications per second.
    pub ops_per_sec: f64,
}

/// A fixed server-side workload: one enrolled client, `n` genuine
/// confirmations, shared by E4 and E10.
#[derive(Debug, Clone)]
pub struct ServerWorld {
    /// The privacy CA's public key (pinned by the verifying side).
    pub ca_key: RsaPublicKey,
    /// Trusted PAL measurements.
    pub pals: HashSet<Sha1Digest>,
    /// The issued confirmation requests, in transaction order.
    pub requests: Vec<utp_core::protocol::TransactionRequest>,
    /// The client's evidence, positionally matching `requests`.
    pub evidence: Vec<utp_core::protocol::Evidence>,
    /// Virtual time at which the requests were issued.
    pub now: Duration,
}

/// Builds `n` genuine confirmations once (key size configurable; 1024-bit
/// approximates the paper's 2048-bit AIK verification cost within ~4x).
pub fn build_world(n: usize, key_bits: usize) -> ServerWorld {
    let ca = PrivacyCa::new(key_bits, 11);
    let mut verifier = Verifier::new(ca.public_key().clone(), 12);
    let mut machine = Machine::new(MachineConfig {
        tpm: utp_tpm::TpmConfig {
            vendor: utp_tpm::VendorProfile::Instant,
            key_bits,
            seed: 13,
            fault_rate: 0.0,
        },
        ..MachineConfig::fast_for_tests(13)
    });
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let mut requests = Vec::with_capacity(n);
    let mut all_evidence = Vec::with_capacity(n);
    for i in 0..n {
        let tx = Transaction::new(i as u64, "shop.example", 100, "EUR", "x");
        let request = verifier.issue_request(tx.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 500 + i as u64);
        let evidence = client
            .confirm(&mut machine, &request, &mut human)
            .expect("confirmation succeeds");
        requests.push(request);
        all_evidence.push(evidence);
    }
    let mut pals = HashSet::new();
    pals.insert(ConfirmationPal::v1().measurement());
    ServerWorld {
        ca_key: ca.public_key().clone(),
        pals,
        requests,
        evidence: all_evidence,
        now: machine.now(),
    }
}

/// Batches timed per thread count. The fastest is reported, so load
/// from other processes during one batch does not set the row.
const BATCHES: usize = 3;

/// Measures throughput across thread counts. Nonces are consumed by
/// settlement, so every batch gets a fresh service with the same
/// requests registered; only the settling batch is timed, and each
/// thread count reports the best of `BATCHES` (3) batches.
pub fn run(jobs_n: usize, key_bits: usize, thread_counts: &[usize]) -> Vec<ThroughputRow> {
    let world = build_world(jobs_n, key_bits);
    let jobs = world.evidence.len();
    thread_counts
        .iter()
        .map(|&threads| {
            let elapsed = (0..BATCHES)
                .map(|_| time_batch(&world, threads))
                .fold(Duration::MAX, Duration::min);
            ThroughputRow {
                threads,
                jobs,
                elapsed,
                ops_per_sec: throughput(jobs, elapsed),
            }
        })
        .collect()
}

/// Settles the world's evidence on a fresh one-shard service with
/// `threads` workers and returns the time the settling batch took.
fn time_batch(world: &ServerWorld, threads: usize) -> Duration {
    let mut config = ServiceConfig::new(threads, 1);
    config.trusted_pals = world.pals.clone();
    let service = VerifierService::start(world.ca_key.clone(), config);
    for request in &world.requests {
        service.register(request, world.now);
    }
    let start = Instant::now();
    let results = service.verify_evidence_batch(world.evidence.clone(), world.now);
    let elapsed = start.elapsed();
    assert!(results.iter().all(|r| r.is_ok()), "all evidence genuine");
    elapsed
}

/// Flattens the rows into their perf artifact pair. Job counts are
/// virtual-class (fixed by the workload); elapsed time and throughput
/// are genuine host measurements and land in the host artifact.
pub fn artifacts(rows: &[ThroughputRow], config: &str) -> utp_obs::ArtifactPair {
    let mut pair = utp_obs::ArtifactPair::new("E4", config);
    for r in rows {
        let threads = r.threads.to_string();
        let labels: &[(&str, &str)] = &[("threads", &threads)];
        pair.canonical.push_u64("e4.jobs", labels, r.jobs as u64);
        pair.host
            .push_u64("e4.elapsed_ns", labels, r.elapsed.as_nanos() as u64);
        pair.host.push_f64("e4.ops_per_sec", labels, r.ops_per_sec);
    }
    pair
}

/// Renders the E4 table.
pub fn render(rows: &[ThroughputRow]) -> String {
    table::render(
        "E4 - evidence verification throughput (host-measured)",
        &["threads", "jobs", "elapsed(ms)", "verifications/s"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    r.jobs.to_string(),
                    table::ms(r.elapsed),
                    format!("{:.0}", r.ops_per_sec),
                ]
            })
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_thousands_per_second_per_core() {
        // The paper's scalability claim: verification is cheap. With our
        // 512-bit test keys a single thread should far exceed 1k/s.
        let rows = run(64, 512, &[1]);
        assert!(rows[0].ops_per_sec > 1_000.0, "{}", rows[0].ops_per_sec);
    }

    #[test]
    fn more_threads_do_not_reduce_throughput_much() {
        let rows = run(128, 512, &[1, 4]);
        // Parallel overhead must not eat the gain entirely: 4 threads
        // should be at least as fast as half of single-thread throughput.
        assert!(
            rows[1].ops_per_sec > rows[0].ops_per_sec * 0.5,
            "1t={} 4t={}",
            rows[0].ops_per_sec,
            rows[1].ops_per_sec
        );
    }
}
