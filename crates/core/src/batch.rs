//! Batch confirmation: many transactions, one trusted session.
//!
//! The per-session fixed costs (OS suspend, `SKINIT`, the quote, resume)
//! are identical whether the human confirms one transaction or ten. The
//! batching extension the paper's discussion suggests runs the
//! confirmation loop once per transaction *inside a single session* and
//! covers the whole batch with one quote: per-transaction machine cost
//! falls as `fixed/k + per_tx` (regenerated by ablation E9).
//!
//! The human still sees and answers every transaction individually — the
//! security story is unchanged; only the session amortization differs.
//! [`BatchPal`] runs the base PAL's dialogue once per transaction, in the
//! request's mode; [`BatchVerifier`] settles through the base
//! [`NonceLedger`] with the base rules and TTL.

use crate::ca::{AikCertificate, Enrollment};
use crate::client::attested_quote;
use crate::error::UtpError;
use crate::pal::{confirm_dialogue, V1_CODE_ATTEMPTS};
use crate::protocol::{ConfirmMode, Transaction, Verdict, PROTOCOL_VERSION};
use crate::verifier::{
    check_quote_chain, NonceLedger, PendingNonce, VerifyError, DEFAULT_NONCE_TTL,
};
use std::time::Duration;
use utp_crypto::rsa::RsaPublicKey;
use utp_crypto::sha1::{Sha1, Sha1Digest};
use utp_flicker::marshal::{put_bytes, put_u32, Reader};
use utp_flicker::pal::{Operator, Pal, PalEnv, PalError};
use utp_flicker::runtime::{io_digest, run_pal, AttestSpec, SessionReport};
use utp_platform::machine::Machine;
use utp_tpm::pcr::PcrSelection;
use utp_tpm::quote::Quote;

/// A batch of transactions to confirm in one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// The transactions, confirmed in order.
    pub transactions: Vec<Transaction>,
    /// One nonce covering the batch.
    pub nonce: Sha1Digest,
    /// Confirmation UX per transaction.
    pub mode: ConfirmMode,
}

impl BatchRequest {
    /// Canonical encoding (the PAL's input).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, PROTOCOL_VERSION);
        put_u32(&mut buf, self.transactions.len() as u32);
        for tx in &self.transactions {
            put_bytes(&mut buf, &tx.to_bytes());
        }
        buf.extend_from_slice(self.nonce.as_bytes());
        buf.push(self.mode.to_u8());
        buf
    }

    /// Parses the canonical encoding.
    pub fn from_bytes(data: &[u8]) -> Result<Self, UtpError> {
        let mut r = Reader::new(data);
        let err = |e: utp_flicker::FlickerError| UtpError::Protocol(e.to_string());
        let version = r.u32().map_err(err)?;
        if version != PROTOCOL_VERSION {
            return Err(UtpError::Protocol(format!("bad version {}", version)));
        }
        let n = r.u32().map_err(err)? as usize;
        if n > 64 {
            return Err(UtpError::Protocol(format!("batch of {} too large", n)));
        }
        let mut transactions = Vec::with_capacity(n);
        for _ in 0..n {
            let bytes = r.bytes().map_err(err)?;
            transactions.push(
                Transaction::from_bytes(bytes).map_err(|e| UtpError::Protocol(e.to_string()))?,
            );
        }
        let nonce = Sha1Digest::from_slice(r.take(20).map_err(err)?)
            .ok_or_else(|| UtpError::Protocol("bad nonce".into()))?;
        let mode_byte = r.take(1).map_err(err)?[0];
        let mode = ConfirmMode::from_u8(mode_byte)
            .ok_or_else(|| UtpError::Protocol(format!("bad mode {}", mode_byte)))?;
        r.finish().map_err(err)?;
        Ok(BatchRequest {
            transactions,
            nonce,
            mode,
        })
    }
}

/// Per-transaction verdicts bound to the batch nonce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchToken {
    /// The batch nonce, echoed.
    pub nonce: Sha1Digest,
    /// `(transaction digest, verdict)` in batch order.
    pub verdicts: Vec<(Sha1Digest, Verdict)>,
}

impl BatchToken {
    /// Canonical encoding (the PAL's output).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u32(&mut buf, PROTOCOL_VERSION);
        buf.extend_from_slice(self.nonce.as_bytes());
        put_u32(&mut buf, self.verdicts.len() as u32);
        for (digest, verdict) in &self.verdicts {
            buf.extend_from_slice(digest.as_bytes());
            buf.push(verdict.to_u8());
        }
        buf
    }

    /// Parses the canonical encoding.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut r = Reader::new(data);
        if r.u32().ok()? != PROTOCOL_VERSION {
            return None;
        }
        let nonce = Sha1Digest::from_slice(r.take(20).ok()?)?;
        let n = r.u32().ok()? as usize;
        if n > 64 {
            return None;
        }
        let mut verdicts = Vec::with_capacity(n);
        for _ in 0..n {
            let digest = Sha1Digest::from_slice(r.take(20).ok()?)?;
            let verdict = Verdict::from_u8(r.take(1).ok()?[0])?;
            verdicts.push((digest, verdict));
        }
        r.finish().ok()?;
        Some(BatchToken { nonce, verdicts })
    }
}

/// The batch-confirmation PAL (its own measurement, like every variant).
#[derive(Debug, Clone)]
pub struct BatchPal {
    image: Vec<u8>,
}

impl BatchPal {
    /// The canonical v1 build.
    pub fn v1() -> Self {
        BatchPal {
            image: b"UTP-BATCH-CONFIRMATION-PAL v1".to_vec(),
        }
    }

    /// The measurement providers pin.
    pub fn measurement(&self) -> Sha1Digest {
        Sha1::digest(&self.image)
    }
}

impl Pal for BatchPal {
    fn image(&self) -> &[u8] {
        &self.image
    }

    fn invoke(&mut self, env: &mut PalEnv<'_, '_>, input: &[u8]) -> Result<Vec<u8>, PalError> {
        let request = BatchRequest::from_bytes(input)
            .map_err(|e| PalError::Failed(format!("bad batch request: {}", e)))?;
        env.compute(Duration::from_millis(1));
        let total = request.transactions.len();
        let mut verdicts = Vec::with_capacity(total);
        for (i, tx) in request.transactions.iter().enumerate() {
            let title = format!("=== CONFIRM TRANSACTION {} of {} ===", i + 1, total);
            let (verdict, _) = confirm_dialogue(env, &title, tx, request.mode, V1_CODE_ATTEMPTS)?;
            verdicts.push((tx.digest(), verdict));
            if verdict == Verdict::Timeout {
                // Human gone: mark the rest timed out and stop prompting.
                for rest in request.transactions.iter().skip(i + 1) {
                    verdicts.push((rest.digest(), Verdict::Timeout));
                }
                break;
            }
        }
        Ok(BatchToken {
            nonce: request.nonce,
            verdicts,
        }
        .to_bytes())
    }
}

/// Client-side batch confirmation (quote-attested, like the base client).
#[derive(Debug, Clone)]
pub struct BatchClient {
    enrollment: Enrollment,
    pal: BatchPal,
}

impl BatchClient {
    /// Creates a batch client from its enrollment.
    pub fn new(enrollment: Enrollment) -> Self {
        BatchClient {
            enrollment,
            pal: BatchPal::v1(),
        }
    }

    /// Runs one batch session and returns the evidence pieces plus the
    /// session report.
    ///
    /// # Errors
    ///
    /// Session failures as [`UtpError`].
    pub fn confirm_batch(
        &mut self,
        machine: &mut Machine,
        request: &BatchRequest,
        operator: &mut dyn Operator,
    ) -> Result<(BatchEvidence, SessionReport), UtpError> {
        let input = request.to_bytes();
        let mut pal = self.pal.clone();
        let report = run_pal(
            machine,
            &mut pal,
            &input,
            operator,
            Some(AttestSpec {
                aik_handle: self.enrollment.aik_handle,
                nonce: request.nonce,
                selection: PcrSelection::drtm_only(),
            }),
        )?;
        Ok((
            BatchEvidence {
                token_bytes: report.output.clone(),
                quote: attested_quote(&report)?.clone(),
                aik_cert: self.enrollment.certificate.to_bytes(),
            },
            report,
        ))
    }
}

/// Evidence for a batch session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEvidence {
    /// The PAL's batch-token bytes.
    pub token_bytes: Vec<u8>,
    /// One quote covering the whole batch.
    pub quote: Quote,
    /// AIK certificate.
    pub aik_cert: Vec<u8>,
}

/// Provider-side batch verifier.
#[derive(Debug)]
pub struct BatchVerifier {
    ca_key: RsaPublicKey,
    trusted_pal: Sha1Digest,
    ledger: NonceLedger<Vec<Sha1Digest>>,
    nonce_counter: u64,
}

impl BatchVerifier {
    /// Creates a verifier trusting `BatchPal::v1`.
    pub fn new(ca_key: RsaPublicKey) -> Self {
        BatchVerifier {
            ca_key,
            trusted_pal: BatchPal::v1().measurement(),
            ledger: NonceLedger::new(DEFAULT_NONCE_TTL),
            nonce_counter: 0,
        }
    }

    /// Issues a batch request covering `transactions`.
    pub fn issue_batch(&mut self, transactions: Vec<Transaction>, now: Duration) -> BatchRequest {
        self.nonce_counter += 1;
        let nonce = Sha1::digest_concat(b"batch-nonce", &self.nonce_counter.to_be_bytes());
        let request = BatchRequest {
            transactions,
            nonce,
            mode: ConfirmMode::PressEnter,
        };
        self.ledger.register(
            &nonce,
            PendingNonce {
                request_bytes: request.to_bytes(),
                transaction: request
                    .transactions
                    .iter()
                    .map(Transaction::digest)
                    .collect(),
                issued_at: now,
            },
        );
        request
    }

    /// Verifies a batch at virtual time `now`: nonce freshness, CA
    /// chain, PCR-17 chain over the batch I/O, and per-transaction verdict
    /// alignment, then settles the nonce. Returns the confirmed
    /// transaction digests.
    ///
    /// # Errors
    ///
    /// [`VerifyError`] variants on any failed check; a failed
    /// certificate, quote or alignment check leaves the nonce pending.
    pub fn verify(
        &mut self,
        evidence: &BatchEvidence,
        now: Duration,
    ) -> Result<Vec<Sha1Digest>, VerifyError> {
        let token =
            BatchToken::from_bytes(&evidence.token_bytes).ok_or(VerifyError::MalformedEvidence)?;
        let pending = self.ledger.preflight(&token.nonce, now)?;
        let aik = AikCertificate::from_bytes(&evidence.aik_cert)
            .and_then(|cert| cert.validate(&self.ca_key))
            .ok_or(VerifyError::BadCertificate)?;
        let io = io_digest(&pending.request_bytes, &evidence.token_bytes);
        check_quote_chain(
            &aik,
            &token.nonce,
            std::iter::once(&self.trusted_pal),
            &io,
            &evidence.quote,
        )?;
        // Verdict list must align with the issued batch.
        if !token
            .verdicts
            .iter()
            .map(|(digest, _)| digest)
            .eq(pending.transaction.iter())
        {
            return Err(VerifyError::TokenMismatch);
        }
        self.ledger.settle(&token.nonce, now)?;
        Ok(token
            .verdicts
            .iter()
            .filter(|(_, v)| *v == Verdict::Confirmed)
            .map(|(d, _)| *d)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::PrivacyCa;
    use utp_flicker::pal::{OperatorResponse, ScriptedOperator};
    use utp_platform::keyboard::KeyEvent;
    use utp_platform::machine::MachineConfig;

    fn world(seed: u64) -> (BatchVerifier, Machine, BatchClient) {
        let ca = PrivacyCa::new(512, seed);
        let verifier = BatchVerifier::new(ca.public_key().clone());
        let mut machine = Machine::new(MachineConfig::fast_for_tests(seed + 1));
        let enrollment = ca.enroll(&mut machine);
        (verifier, machine, BatchClient::new(enrollment))
    }

    fn txs(n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|i| {
                Transaction::new(
                    i as u64,
                    format!("shop-{}.example", i),
                    100 * (i as u64 + 1),
                    "EUR",
                    "",
                )
            })
            .collect()
    }

    fn press(key: KeyEvent, n: usize) -> ScriptedOperator {
        ScriptedOperator::with_script(
            (0..n)
                .map(|_| OperatorResponse {
                    events: vec![key],
                    elapsed: Duration::from_secs(2),
                })
                .collect(),
        )
    }

    #[test]
    fn batch_request_and_token_roundtrip() {
        let req = BatchRequest {
            transactions: txs(3),
            nonce: Sha1::digest(b"n"),
            mode: ConfirmMode::PressEnter,
        };
        assert_eq!(BatchRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        let token = BatchToken {
            nonce: Sha1::digest(b"n"),
            verdicts: vec![
                (Sha1::digest(b"a"), Verdict::Confirmed),
                (Sha1::digest(b"b"), Verdict::Rejected),
            ],
        };
        assert_eq!(BatchToken::from_bytes(&token.to_bytes()).unwrap(), token);
    }

    #[test]
    fn all_approved_batch_settles_everything() {
        let (mut verifier, mut machine, mut client) = world(800);
        let transactions = txs(4);
        let request = verifier.issue_batch(transactions.clone(), machine.now());
        let mut op = press(KeyEvent::Enter, 4);
        let (evidence, report) = client
            .confirm_batch(&mut machine, &request, &mut op)
            .unwrap();
        assert!(report.quote.is_some());
        let confirmed = verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(confirmed.len(), 4);
        for (tx, digest) in transactions.iter().zip(confirmed.iter()) {
            assert_eq!(&tx.digest(), digest);
        }
    }

    #[test]
    fn mixed_verdicts_settle_only_approved() {
        let (mut verifier, mut machine, mut client) = world(810);
        let transactions = txs(3);
        let request = verifier.issue_batch(transactions.clone(), machine.now());
        let mut op = ScriptedOperator::with_script(vec![
            OperatorResponse {
                events: vec![KeyEvent::Enter],
                elapsed: Duration::ZERO,
            },
            OperatorResponse {
                events: vec![KeyEvent::Escape],
                elapsed: Duration::ZERO,
            },
            OperatorResponse {
                events: vec![KeyEvent::Enter],
                elapsed: Duration::ZERO,
            },
        ]);
        let (evidence, _) = client
            .confirm_batch(&mut machine, &request, &mut op)
            .unwrap();
        let confirmed = verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(
            confirmed,
            vec![transactions[0].digest(), transactions[2].digest()]
        );
    }

    #[test]
    fn human_walkaway_times_out_remaining() {
        let (mut verifier, mut machine, mut client) = world(820);
        let transactions = txs(3);
        let request = verifier.issue_batch(transactions.clone(), machine.now());
        // Approve the first, then silence.
        let mut op = press(KeyEvent::Enter, 1);
        let (evidence, _) = client
            .confirm_batch(&mut machine, &request, &mut op)
            .unwrap();
        let confirmed = verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(confirmed, vec![transactions[0].digest()]);
    }

    #[test]
    fn batch_replay_rejected() {
        let (mut verifier, mut machine, mut client) = world(830);
        let request = verifier.issue_batch(txs(2), machine.now());
        let mut op = press(KeyEvent::Enter, 2);
        let (evidence, _) = client
            .confirm_batch(&mut machine, &request, &mut op)
            .unwrap();
        verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::Replayed
        );
    }

    #[test]
    fn tampered_batch_token_rejected() {
        let (mut verifier, mut machine, mut client) = world(840);
        let request = verifier.issue_batch(txs(2), machine.now());
        // Human rejects both; malware rewrites verdicts to Confirmed.
        let mut op = press(KeyEvent::Escape, 2);
        let (mut evidence, _) = client
            .confirm_batch(&mut machine, &request, &mut op)
            .unwrap();
        let mut token = BatchToken::from_bytes(&evidence.token_bytes).unwrap();
        for v in &mut token.verdicts {
            v.1 = Verdict::Confirmed;
        }
        evidence.token_bytes = token.to_bytes();
        assert!(verifier.verify(&evidence, machine.now()).is_err());
    }

    #[test]
    fn batch_evidence_after_the_ttl_is_expired() {
        let (mut verifier, mut machine, mut client) = world(850);
        let request = verifier.issue_batch(txs(2), machine.now());
        let mut op = press(KeyEvent::Enter, 2);
        let (evidence, _) = client
            .confirm_batch(&mut machine, &request, &mut op)
            .unwrap();
        machine.advance(DEFAULT_NONCE_TTL + Duration::from_secs(1));
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::Expired
        );
    }

    #[test]
    fn type_code_batch_is_not_confirmed_by_bare_enter() {
        let (mut verifier, mut machine, mut client) = world(860);
        let mut request = verifier.issue_batch(txs(2), machine.now());
        request.mode = ConfirmMode::TypeCode;
        // Enter without the code, for every attempt of both transactions.
        let mut op = press(KeyEvent::Enter, 2 * V1_CODE_ATTEMPTS as usize);
        let (evidence, _) = client
            .confirm_batch(&mut machine, &request, &mut op)
            .unwrap();
        let token = BatchToken::from_bytes(&evidence.token_bytes).unwrap();
        assert_eq!(token.verdicts.len(), 2);
        assert!(token.verdicts.iter().all(|(_, v)| *v == Verdict::Rejected));
        let screen = &op.observed_screens[0];
        assert!(screen.iter().any(|r| r.contains(crate::pal::CODE_MARKER)));
    }

    #[test]
    fn oversized_batch_is_rejected_at_parse() {
        let req = BatchRequest {
            transactions: txs(65),
            nonce: Sha1Digest::zero(),
            mode: ConfirmMode::PressEnter,
        };
        assert!(BatchRequest::from_bytes(&req.to_bytes()).is_err());
    }

    use std::time::Duration;
}
