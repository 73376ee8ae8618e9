//! Layer probes: time one public function of a layer over a workload's
//! own inputs, from the benchmark's side of the API.

use crate::report::Metrics;
use crate::KEY_SEED;
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Duration;
use utp_core::ca::AikCertificate;
use utp_core::protocol::{Evidence, TransactionRequest};
use utp_core::verifier::{check_quote_chain, NonceLedger, PendingNonce};
use utp_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use utp_crypto::sha1::{Sha1, Sha1Digest};
use utp_flicker::marshal::{put_bytes, put_u64};
use utp_flicker::runtime::io_digest;
use utp_journal::Journal;
use utp_server::metrics::HostStopwatch;
use utp_tpm::quote::quote_info_bytes;

/// Mean host µs of `f` per input, cycling over `inputs` until `budget`
/// has passed (at least one full pass).
pub fn per_call_us<T>(inputs: &[T], budget: Duration, mut f: impl FnMut(&T)) -> f64 {
    if inputs.is_empty() {
        return 0.0;
    }
    let sw = HostStopwatch::start();
    let mut calls = 0u64;
    loop {
        for x in inputs {
            f(black_box(x));
        }
        calls += inputs.len() as u64;
        if sw.elapsed() >= budget {
            return sw.elapsed().as_secs_f64() * 1e6 / calls as f64;
        }
    }
}

/// Genuine confirmations a workload produced, with what verifying them
/// needs.
#[derive(Debug, Clone)]
pub struct EvidenceSet {
    /// The pinned privacy-CA key.
    pub ca_key: RsaPublicKey,
    /// Trusted PAL measurements.
    pub pals: HashSet<Sha1Digest>,
    /// Issued requests and the genuine evidence answering each.
    pub items: Vec<(TransactionRequest, Evidence)>,
}

/// One item, pre-decoded so each probe times only its own layer.
struct Decoded<'a> {
    request: &'a TransactionRequest,
    evidence: &'a Evidence,
    cert: AikCertificate,
    cert_body: Vec<u8>,
    aik: RsaPublicKey,
    io: Sha1Digest,
    quote_info: Vec<u8>,
}

/// Times the `crypto` and `core` functions of the settle path on `set`,
/// spending about `budget` in total, and sets the `crypto.*`, `core.*`
/// and `ledger.settle_us` metrics. Items that do not decode are skipped
/// (the caller's correctness checks already cover them).
pub fn crypto_and_core(set: &EvidenceSet, budget: Duration, m: &mut Metrics) {
    let decoded: Vec<Decoded<'_>> = set
        .items
        .iter()
        .filter_map(|(request, evidence)| {
            let cert = AikCertificate::from_bytes(&evidence.aik_cert)?;
            let aik = cert.validate(&set.ca_key)?;
            let mut cert_body = Vec::new();
            put_u64(&mut cert_body, cert.serial);
            put_bytes(&mut cert_body, &cert.aik_pub);
            Some(Decoded {
                request,
                evidence,
                io: io_digest(&request.to_bytes(), &evidence.token_bytes),
                quote_info: quote_info_bytes(
                    &evidence.quote.composite_digest(),
                    &evidence.quote.external_data,
                ),
                cert,
                cert_body,
                aik,
            })
        })
        .collect();
    let each = budget / 9;
    let signer = RsaKeyPair::generate(1024, KEY_SEED ^ 0x0070_726f_6265);
    m.set(
        "crypto.rsa_verify_us",
        per_call_us(&decoded, each, |d| {
            black_box(
                d.aik
                    .verify_pkcs1_sha1(&d.quote_info, &d.evidence.quote.signature),
            );
        }),
    );
    m.set(
        "crypto.rsa_verify_sha256_us",
        per_call_us(&decoded, each, |d| {
            black_box(
                set.ca_key
                    .verify_pkcs1_sha256(&d.cert_body, &d.cert.signature),
            );
        }),
    );
    m.set(
        "crypto.rsa_sign_us",
        per_call_us(&decoded, each, |d| {
            black_box(signer.sign_pkcs1_sha1(&d.quote_info).ok());
        }),
    );
    m.set(
        "crypto.sha1_us",
        per_call_us(&decoded, each, |d| {
            black_box(Sha1::digest(&d.evidence.aik_cert));
        }),
    );
    m.set(
        "core.token_parse_us",
        per_call_us(&decoded, each, |d| {
            black_box(d.evidence.token().ok());
        }),
    );
    m.set(
        "core.quote_chain_us",
        per_call_us(&decoded, each, |d| {
            black_box(
                check_quote_chain(
                    &d.aik,
                    &d.request.nonce,
                    &set.pals,
                    &d.io,
                    &d.evidence.quote,
                )
                .is_ok(),
            );
        }),
    );
    m.set(
        "core.cert_validate_us",
        per_call_us(&decoded, each, |d| {
            black_box(
                AikCertificate::from_bytes(&d.evidence.aik_cert)
                    .and_then(|c| c.validate(&set.ca_key)),
            );
        }),
    );
    // register + preflight + settle of every nonce in a fresh ledger, so
    // each pass settles each nonce exactly once.
    let pending: Vec<([u8; 20], PendingNonce)> = decoded
        .iter()
        .map(|d| {
            (
                *d.request.nonce.as_bytes(),
                PendingNonce {
                    request_bytes: d.request.to_bytes(),
                    transaction: d.request.transaction.clone(),
                    issued_at: Duration::ZERO,
                },
            )
        })
        .collect();
    let sw = HostStopwatch::start();
    let mut settled = 0u64;
    while settled == 0 || sw.elapsed() < each {
        let mut ledger = NonceLedger::new(Duration::from_secs(300));
        for (nonce, entry) in &pending {
            let nonce = Sha1Digest(*nonce);
            ledger.register(&nonce, entry.clone());
            black_box(ledger.preflight(&nonce, Duration::ZERO).is_ok());
            black_box(ledger.settle(&nonce, Duration::ZERO).is_ok());
            settled += 1;
        }
    }
    m.set(
        "ledger.settle_us",
        sw.elapsed().as_secs_f64() * 1e6 / settled.max(1) as f64,
    );
}

/// Host µs per frame to re-append `journal`'s durable frames into fresh
/// journals of the workloads' configuration, each followed by its ack
/// barrier (`sync_to`), as the settle path does.
pub fn journal_append_sync_us(journal: &Journal, budget: Duration) -> f64 {
    let frames = journal.durable_frames();
    if frames.is_empty() {
        return 0.0;
    }
    let sw = HostStopwatch::start();
    let mut appended = 0u64;
    while appended == 0 || sw.elapsed() < budget {
        let fresh = Journal::new(crate::journal_config());
        for f in &frames {
            let receipt = fresh.append_record(&f.record);
            fresh.sync_to(receipt.seq);
        }
        appended += frames.len() as u64;
    }
    sw.elapsed().as_secs_f64() * 1e6 / appended as f64
}
