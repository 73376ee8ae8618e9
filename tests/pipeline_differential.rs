//! Routing test: the sharded `VerifierService` must be verdict-for-verdict
//! identical to the inline one-shard settlement core on seeded random
//! batches of genuine and corrupted evidence, for every shard × thread
//! combination in {1,2,4} × {1,2,8} — and a nonce double-spend submitted
//! concurrently must settle exactly once.
//!
//! Both sides decide through the one `Settler::settle_evidence`, so this
//! checks routing across shards, threads and the certificate cache, not
//! two implementations.
//!
//! Run with `--nocapture` to see per-combination timing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use utp::core::ca::{AikCertificate, PrivacyCa};
use utp::core::client::{Client, ClientConfig};
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::core::protocol::{Evidence, Transaction, TransactionRequest};
use utp::core::verifier::{Settler, Verifier, VerifierConfig, VerifyError};
use utp::crypto::rsa::RsaPublicKey;
use utp::platform::machine::{Machine, MachineConfig};
use utp::server::service::{ServiceConfig, VerifierService};

const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// One evidence batch plus everything a verifier needs to adjudicate it.
struct World {
    ca_key: RsaPublicKey,
    /// `(request, issue_time, registered)` — unregistered requests model
    /// evidence for nonces this provider never issued.
    requests: Vec<(TransactionRequest, Duration, bool)>,
    evidence: Vec<Evidence>,
    /// Single submission instant for the whole batch.
    submit_at: Duration,
}

/// Builds a seeded batch mixing genuine evidence with every corruption
/// class the verifier distinguishes: flipped quote signatures, mangled
/// certificates, mangled token bytes, human rejections, expired nonces,
/// unissued nonces, and altered quoted PCR-17 values.
fn build_world(n: usize, seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let ca = PrivacyCa::new(512, seed.wrapping_add(1));
    let mut issuer = Verifier::new(ca.public_key().clone(), seed.wrapping_add(2));
    let mut machine = Machine::new(MachineConfig::fast_for_tests(seed.wrapping_add(3)));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);

    let t0 = machine.now();
    let mut requests = Vec::new();
    let mut evidence = Vec::new();
    for i in 0..n {
        let kind = rng.gen_range(0..8u32);
        let tx = Transaction::new(i as u64, "shop.example", 100 + i as u64, "EUR", "diff");
        // Kind 5 issues in the past so it is expired at submission time.
        let issued_at = if kind == 5 {
            t0
        } else {
            t0 + Duration::from_secs(200)
        };
        let request = issuer.issue_request(tx.clone(), issued_at);
        let approve = kind != 4;
        let intent = if approve {
            Intent::approving(&tx)
        } else {
            Intent::rejecting()
        };
        let mut human = ConfirmingHuman::new(intent, seed.wrapping_add(100 + i as u64));
        let mut ev = client
            .confirm(&mut machine, &request, &mut human)
            .expect("confirmation session runs");
        let registered = match kind {
            1 => {
                // Quote signature corrupted at a random byte.
                let pos = rng.gen_range(0..ev.quote.signature.len());
                ev.quote.signature[pos] ^= 1 << rng.gen_range(0..8u32);
                true
            }
            2 => {
                // Certificate corrupted at a random byte.
                let pos = rng.gen_range(0..ev.aik_cert.len());
                ev.aik_cert[pos] ^= 1 << rng.gen_range(0..8u32);
                true
            }
            3 => {
                // Token bytes corrupted (parse failure or binding break).
                let pos = rng.gen_range(0..ev.token_bytes.len());
                ev.token_bytes[pos] ^= 1 << rng.gen_range(0..8u32);
                true
            }
            6 => false, // evidence for a nonce this provider never issued
            7 => {
                // Quoted PCR-17 value altered: no trusted PAL explains it.
                let pos = rng.gen_range(0..20usize);
                ev.quote.pcr_values[0].0[pos] ^= 1 << rng.gen_range(0..8u32);
                true
            }
            _ => true, // 0 genuine, 4 human-rejected, 5 expired
        };
        requests.push((request, issued_at, registered));
        evidence.push(ev);
    }
    World {
        ca_key: ca.public_key().clone(),
        requests,
        evidence,
        // 200s-issued nonces are 150s old (valid, TTL 300); t0-issued are
        // 350s old (expired).
        submit_at: t0 + Duration::from_secs(350),
    }
}

/// Reference verdicts from the inline one-shard core, with only the
/// registered requests registered and every certificate validated
/// afresh, compressed for comparison: transaction id on success, the
/// typed error otherwise.
fn reference_verdicts(world: &World) -> Vec<Result<u64, VerifyError>> {
    let policy = VerifierConfig::default();
    let settler = Settler::new(
        world.ca_key.clone(),
        policy.trusted_pals,
        policy.nonce_ttl,
        1,
    );
    for (request, issued_at, registered) in &world.requests {
        if *registered {
            settler.register(request, *issued_at);
        }
    }
    world
        .evidence
        .iter()
        .map(|ev| {
            settler
                .settle_evidence(ev, world.submit_at, |cert| {
                    AikCertificate::from_bytes(cert)?.validate(&world.ca_key)
                })
                .map(|v| v.transaction.id)
        })
        .collect()
}

fn service_verdicts(world: &World, threads: usize, shards: usize) -> Vec<Result<u64, VerifyError>> {
    let service = VerifierService::start(world.ca_key.clone(), ServiceConfig::new(threads, shards));
    for (request, issued_at, registered) in &world.requests {
        if *registered {
            service.register(request, *issued_at);
        }
    }
    service
        .verify_evidence_batch(world.evidence.clone(), world.submit_at)
        .into_iter()
        .map(|r| r.map(|v| v.transaction.id))
        .collect()
}

#[test]
fn service_matches_serial_verifier_on_mixed_batches() {
    let mut seen = Vec::new();
    for seed in [42u64, 1337] {
        let world = build_world(36, seed);
        let reference = reference_verdicts(&world);
        seen.extend(reference.iter().filter_map(|r| r.err()));
        // The mix must actually exercise both paths.
        assert!(
            reference.iter().any(|r| r.is_ok()),
            "seed {seed}: no accepts"
        );
        assert!(
            reference.iter().any(|r| r.is_err()),
            "seed {seed}: no rejects"
        );
        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                let (verdicts, elapsed) =
                    utp::server::metrics::host_timed(|| service_verdicts(&world, threads, shards));
                println!(
                    "differential seed={seed} threads={threads} shards={shards}: \
                     {} verdicts in {:.1} ms",
                    verdicts.len(),
                    elapsed.as_secs_f64() * 1e3
                );
                assert_eq!(
                    verdicts, reference,
                    "seed {seed} threads {threads} shards {shards}"
                );
            }
        }
    }
    // Every rejection `check_evidence` can return was compared.
    for want in [
        VerifyError::BadCertificate,
        VerifyError::TokenMismatch,
        VerifyError::UntrustedPal,
        VerifyError::BadQuote,
    ] {
        assert!(seen.contains(&want), "no {want:?} in the mix");
    }
}

#[test]
fn concurrent_duplicate_submission_settles_exactly_once() {
    let ca = PrivacyCa::new(512, 7_001);
    let mut issuer = Verifier::new(ca.public_key().clone(), 7_002);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(7_003));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let tx = Transaction::new(1, "shop", 500, "EUR", "dup");
    let request = issuer.issue_request(tx.clone(), machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 7_004);
    let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
    let now = machine.now();

    for (threads, shards) in [(2, 1), (8, 4)] {
        const COPIES: usize = 16;
        let service =
            VerifierService::start(ca.public_key().clone(), ServiceConfig::new(threads, shards));
        service.register(&request, now);
        // Submit the same evidence from many threads at once so several
        // workers race on the same shard's settle step.
        let verdicts: Vec<Result<u64, VerifyError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..COPIES)
                .map(|_| {
                    let service = &service;
                    let evidence = evidence.clone();
                    scope.spawn(move || match service.submit_evidence(evidence, now) {
                        Ok(ticket) => ticket.wait().map(|v| v.transaction.id),
                        Err(_) => Err(VerifyError::ServiceUnavailable),
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter thread"))
                .collect()
        });
        let accepted = verdicts.iter().filter(|v| v.is_ok()).count();
        let replayed = verdicts
            .iter()
            .filter(|v| **v == Err(VerifyError::Replayed))
            .count();
        assert_eq!(
            accepted, 1,
            "threads {threads} shards {shards}: {verdicts:?}"
        );
        assert_eq!(replayed, COPIES - 1, "threads {threads} shards {shards}");
        let stats = service.shutdown();
        assert_eq!(stats.totals().accepted, 1);
        assert_eq!(stats.totals().replayed, COPIES as u64 - 1);
    }
}
