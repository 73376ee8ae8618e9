//! The service provider's verifier — the party that gains assurance.
//!
//! The verifier trusts: the privacy CA key, the published measurement of
//! the confirmation PAL, and TPM hardware semantics. It trusts *nothing*
//! on the client machine. Verification of one [`Evidence`] establishes:
//!
//! 1. the quote was signed by an AIK certified by the privacy CA
//!    (⇒ a genuine TPM produced it);
//! 2. the quoted PCR 17 equals `H(H(0 ∥ pal) ∥ io_digest(request, token))`
//!    (⇒ the pinned PAL ran via DRTM and produced exactly this token for
//!    exactly this request);
//! 3. the quote's `externalData` is a nonce this verifier issued, unexpired
//!    and never used before (⇒ fresh, not a replay);
//! 4. the token's verdict is `Confirmed` (⇒ the human approved).

use crate::ca::AikCertificate;
use crate::protocol::{
    ConfirmMode, ConfirmationToken, Evidence, Transaction, TransactionRequest, Verdict,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::time::Duration;
use utp_crypto::rsa::RsaPublicKey;
use utp_crypto::sha1::Sha1Digest;
use utp_flicker::attestation::{check_attested_session, AttestationFailure};
use utp_flicker::runtime::io_digest;

/// Why evidence was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VerifyError {
    /// Evidence or token bytes failed to parse.
    MalformedEvidence,
    /// The nonce was never issued by this verifier.
    UnknownNonce,
    /// The nonce was already consumed (replay attack).
    Replayed,
    /// The nonce expired before evidence arrived.
    Expired,
    /// The AIK certificate did not validate under the CA key.
    BadCertificate,
    /// The token's transaction digest does not match the issued request.
    TokenMismatch,
    /// The quoted PCR 17 does not correspond to any trusted PAL running
    /// with this request/token pair.
    UntrustedPal,
    /// The quote signature or nonce binding failed.
    BadQuote,
    /// Everything checked out but the human did not confirm.
    NotConfirmed(Verdict),
    /// The verification pipeline was shut down (or lost a worker) before
    /// this submission completed; retryable by the client.
    ServiceUnavailable,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MalformedEvidence => write!(f, "evidence failed to parse"),
            VerifyError::UnknownNonce => write!(f, "nonce was never issued"),
            VerifyError::Replayed => write!(f, "nonce already consumed"),
            VerifyError::Expired => write!(f, "nonce expired"),
            VerifyError::BadCertificate => write!(f, "aik certificate invalid"),
            VerifyError::TokenMismatch => write!(f, "token does not match issued transaction"),
            VerifyError::UntrustedPal => write!(f, "pcr17 does not match any trusted pal"),
            VerifyError::BadQuote => write!(f, "quote signature or nonce binding invalid"),
            VerifyError::NotConfirmed(v) => write!(f, "human verdict was {:?}, not confirmed", v),
            VerifyError::ServiceUnavailable => {
                write!(f, "verification service unavailable; retry")
            }
        }
    }
}

impl Error for VerifyError {}

/// How long an issued nonce stays valid (virtual time): the default
/// [`VerifierConfig::nonce_ttl`], and the fixed lifetime of batch and
/// amortized nonces.
pub const DEFAULT_NONCE_TTL: Duration = Duration::from_secs(300);

/// Verifier policy knobs.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// How long an issued nonce stays valid (virtual time).
    pub nonce_ttl: Duration,
    /// Measurements of PAL versions the provider accepts.
    pub trusted_pals: HashSet<Sha1Digest>,
    /// Default confirmation mode for issued requests.
    pub default_mode: ConfirmMode,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        let mut trusted_pals = HashSet::new();
        trusted_pals.insert(crate::pal::ConfirmationPal::v1().measurement());
        VerifierConfig {
            nonce_ttl: DEFAULT_NONCE_TTL,
            trusted_pals,
            default_mode: ConfirmMode::TypeCode,
        }
    }
}

/// A successfully verified, human-confirmed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedTransaction {
    /// The transaction as issued.
    pub transaction: Transaction,
    /// Confirmation mode used.
    pub mode: ConfirmMode,
    /// Code attempts the human needed.
    pub attempts: u32,
}

/// Outcome counters for experiments and dashboards.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VerifierStats {
    /// Requests issued.
    pub issued: u64,
    /// Evidence accepted.
    pub accepted: u64,
    /// Rejections by reason.
    pub rejected: HashMap<String, u64>,
}

/// An issued-but-unsettled confirmation request, as the settlement ledger
/// tracks it.
///
/// `T` is what awaits confirmation: a [`Transaction`], or the digests of
/// a batch's transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingNonce<T = Transaction> {
    /// Canonical bytes of the issued request (the PAL's exact input).
    pub request_bytes: Vec<u8>,
    /// What awaits confirmation.
    pub transaction: T,
    /// Virtual time the request was issued.
    pub issued_at: Duration,
}

/// The serialization point of verification: single-use nonce lifecycle.
///
/// Everything else the verifier does is stateless cryptography; this
/// ledger is the one structure that must be consulted and mutated per
/// evidence submission. Splitting it out of [`Verifier`] lets the server's
/// `Settlement` core shard settlement by nonce (`hash(nonce) % shards`)
/// so no global lock serializes the pipeline.
///
/// The intended call sequence for a concurrent verifier is
/// [`NonceLedger::preflight`] (read-mostly, before the expensive crypto)
/// followed by [`NonceLedger::settle`] (consuming, after the crypto
/// passed). Both enforce the replay/unknown/expiry rules, so a concurrent
/// duplicate submission loses the settle race and is reported as
/// [`VerifyError::Replayed`] — exactly one of N racing duplicates can
/// settle.
///
/// The base, server, batch and amortized verifiers all settle through
/// it, so the replay, unknown and expiry rules exist once.
#[derive(Debug, Clone, Default)]
pub struct NonceLedger<T = Transaction> {
    ttl: Duration,
    pending: HashMap<[u8; 20], PendingNonce<T>>,
    used: HashSet<[u8; 20]>,
}

impl<T: Clone> NonceLedger<T> {
    /// An empty ledger whose nonces expire after `ttl` of virtual time.
    pub fn new(ttl: Duration) -> Self {
        NonceLedger {
            ttl,
            pending: HashMap::new(),
            used: HashSet::new(),
        }
    }

    /// The configured nonce lifetime.
    pub fn ttl(&self) -> Duration {
        self.ttl
    }

    /// Number of outstanding (unconsumed, possibly expired) nonces.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of consumed nonces retained for replay detection.
    pub fn used_count(&self) -> usize {
        self.used.len()
    }

    /// Records an issued request under its nonce.
    pub fn register(&mut self, nonce: &Sha1Digest, pending: PendingNonce<T>) {
        self.pending.insert(*nonce.as_bytes(), pending);
    }

    /// Marks a nonce as already consumed without a pending entry —
    /// recovery support: a journaled settle decision must survive a
    /// restart as replay protection.
    pub fn restore_used(&mut self, nonce: [u8; 20]) {
        self.used.insert(nonce);
    }

    /// Iterates the outstanding (issued, unsettled) entries — snapshot
    /// support. Iteration order is unspecified.
    pub fn pending_entries(&self) -> impl Iterator<Item = (&[u8; 20], &PendingNonce<T>)> {
        self.pending.iter()
    }

    /// Iterates the consumed-nonce set — snapshot support.
    pub fn used_entries(&self) -> impl Iterator<Item = &[u8; 20]> {
        self.used.iter()
    }

    /// Non-consuming settlement check: replay, unknown and expiry rules,
    /// returning a copy of the pending entry so the caller can run the
    /// stateless crypto without holding the ledger.
    ///
    /// Expired entries are dropped here (mirroring the serial verifier,
    /// which forgets a nonce the moment it observes it expired).
    ///
    /// # Errors
    ///
    /// [`VerifyError::Replayed`], [`VerifyError::UnknownNonce`] or
    /// [`VerifyError::Expired`].
    pub fn preflight(
        &mut self,
        nonce: &Sha1Digest,
        now: Duration,
    ) -> Result<PendingNonce<T>, VerifyError> {
        let key = *nonce.as_bytes();
        if self.used.contains(&key) {
            return Err(VerifyError::Replayed);
        }
        let Some(pending) = self.pending.get(&key) else {
            return Err(VerifyError::UnknownNonce);
        };
        if now.saturating_sub(pending.issued_at) > self.ttl {
            self.pending.remove(&key);
            return Err(VerifyError::Expired);
        }
        Ok(pending.clone())
    }

    /// Consumes the nonce: marks it used and returns the pending entry.
    /// Call only after the stateless crypto checks passed.
    ///
    /// # Errors
    ///
    /// [`VerifyError::Replayed`] if a concurrent duplicate settled first,
    /// [`VerifyError::UnknownNonce`] / [`VerifyError::Expired`] as in
    /// [`NonceLedger::preflight`].
    pub fn settle(
        &mut self,
        nonce: &Sha1Digest,
        now: Duration,
    ) -> Result<PendingNonce<T>, VerifyError> {
        let key = *nonce.as_bytes();
        if self.used.contains(&key) {
            return Err(VerifyError::Replayed);
        }
        let Some(pending) = self.pending.remove(&key) else {
            return Err(VerifyError::UnknownNonce);
        };
        if now.saturating_sub(pending.issued_at) > self.ttl {
            // Stays removed, matching the serial verifier's behavior of
            // forgetting a nonce the moment it observes it expired.
            return Err(VerifyError::Expired);
        }
        self.used.insert(key);
        Ok(pending)
    }

    /// Drops expired nonces (housekeeping; settlement also checks expiry).
    pub fn gc(&mut self, now: Duration) {
        let ttl = self.ttl;
        self.pending
            .retain(|_, p| now.saturating_sub(p.issued_at) <= ttl);
    }
}

/// The PCR-17/quote chain check behind every verifier in the workspace
/// ([`check_evidence`], the batch and amortized-setup verifiers): does
/// any trusted PAL measurement, combined with this I/O digest, explain
/// the quote?
///
/// # Errors
///
/// [`VerifyError::BadQuote`] when some trusted PAL's PCR chain matched but
/// the signature or nonce binding failed, [`VerifyError::UntrustedPal`]
/// when no trusted PAL explains the quoted PCR value.
pub fn check_quote_chain<'a>(
    aik: &RsaPublicKey,
    nonce: &Sha1Digest,
    trusted_pals: impl IntoIterator<Item = &'a Sha1Digest>,
    io: &Sha1Digest,
    quote: &utp_tpm::quote::Quote,
) -> Result<(), VerifyError> {
    let mut saw_pcr_match = false;
    for pal in trusted_pals {
        match check_attested_session(aik, nonce, pal, io, quote) {
            Ok(()) => return Ok(()),
            Err(AttestationFailure::BadQuote) => saw_pcr_match = true,
            Err(_) => {}
        }
    }
    Err(if saw_pcr_match {
        VerifyError::BadQuote
    } else {
        VerifyError::UntrustedPal
    })
}

/// The stateless evidence check every base-protocol verifier runs between
/// nonce preflight and settlement: the AIK certificate, the token's
/// binding to the issued transaction, then the PCR-17/quote chain over
/// `io_digest(request, token)`.
///
/// `resolve_aik` turns the certificate bytes into a validated AIK public
/// key (`None` rejects the certificate); callers choose how — parse and
/// validate every time, or serve repeat certificates from a cache.
///
/// # Errors
///
/// [`VerifyError::BadCertificate`], [`VerifyError::TokenMismatch`], or
/// the [`check_quote_chain`] failure, first failure first.
pub fn check_evidence<'a>(
    token: &ConfirmationToken,
    pending: &PendingNonce,
    evidence: &Evidence,
    trusted_pals: impl IntoIterator<Item = &'a Sha1Digest>,
    resolve_aik: impl FnOnce(&[u8]) -> Option<RsaPublicKey>,
) -> Result<(), VerifyError> {
    let aik = resolve_aik(&evidence.aik_cert).ok_or(VerifyError::BadCertificate)?;
    if token.tx_digest != pending.transaction.digest() {
        return Err(VerifyError::TokenMismatch);
    }
    let io = io_digest(&pending.request_bytes, &evidence.token_bytes);
    check_quote_chain(&aik, &token.nonce, trusted_pals, &io, &evidence.quote)
}

/// The provider-side verifier with nonce lifecycle management.
///
/// `Clone` is the checkpoint/restore hook for the adversarial
/// explorer: a clone carries the full nonce ledger (pending and
/// consumed sets), the policy, the statistics and the nonce RNG
/// state, so a forked branch issues and settles independently of the
/// original timeline.
#[derive(Clone)]
pub struct Verifier {
    ca_key: RsaPublicKey,
    config: VerifierConfig,
    rng: StdRng,
    ledger: NonceLedger,
    stats: VerifierStats,
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Verifier")
            .field("pending", &self.ledger.pending_count())
            .field("used", &self.ledger.used_count())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Verifier {
    /// Creates a verifier pinning the given privacy-CA key, with default
    /// policy (trusts `ConfirmationPal::v1`).
    pub fn new(ca_key: RsaPublicKey, seed: u64) -> Self {
        Self::with_config(ca_key, VerifierConfig::default(), seed)
    }

    /// Creates a verifier with explicit policy.
    pub fn with_config(ca_key: RsaPublicKey, config: VerifierConfig, seed: u64) -> Self {
        let ledger = NonceLedger::new(config.nonce_ttl);
        Verifier {
            ca_key,
            config,
            rng: StdRng::seed_from_u64(seed ^ 0x56_4552_u64),
            ledger,
            stats: VerifierStats::default(),
        }
    }

    /// The policy in use.
    pub fn config(&self) -> &VerifierConfig {
        &self.config
    }

    /// Outcome counters.
    pub fn stats(&self) -> &VerifierStats {
        &self.stats
    }

    /// Number of outstanding (unconsumed, possibly expired) nonces.
    pub fn pending_count(&self) -> usize {
        self.ledger.pending_count()
    }

    /// Issues a confirmation request for `tx` with the default mode.
    pub fn issue_request(&mut self, tx: Transaction, now: Duration) -> TransactionRequest {
        let mode = self.config.default_mode;
        self.issue_request_with_mode(tx, mode, now)
    }

    /// Issues a confirmation request with an explicit mode.
    pub fn issue_request_with_mode(
        &mut self,
        tx: Transaction,
        mode: ConfirmMode,
        now: Duration,
    ) -> TransactionRequest {
        let mut nonce_bytes = [0u8; 20];
        self.rng.fill_bytes(&mut nonce_bytes);
        let nonce = Sha1Digest(nonce_bytes);
        let request = TransactionRequest {
            transaction: tx.clone(),
            nonce,
            mode,
        };
        self.ledger.register(
            &nonce,
            PendingNonce {
                request_bytes: request.to_bytes(),
                transaction: tx,
                issued_at: now,
            },
        );
        self.stats.issued += 1;
        request
    }

    /// Adopts a request issued elsewhere so this verifier can settle its
    /// evidence (the differential tests' reference verifier).
    pub fn import_request(&mut self, request: &TransactionRequest, issued_at: Duration) {
        self.ledger.register(
            &request.nonce,
            PendingNonce {
                request_bytes: request.to_bytes(),
                transaction: request.transaction.clone(),
                issued_at,
            },
        );
        self.stats.issued += 1;
    }

    /// Drops expired nonces (housekeeping; `verify` also checks expiry).
    pub fn gc(&mut self, now: Duration) {
        self.ledger.gc(now);
    }

    fn reject(&mut self, e: VerifyError) -> VerifyError {
        *self.stats.rejected.entry(format!("{:?}", e)).or_insert(0) += 1;
        e
    }

    /// Verifies evidence for a previously issued request.
    ///
    /// # Errors
    ///
    /// Returns the first failing check as a [`VerifyError`]; the nonce is
    /// consumed on success and on `NotConfirmed` (the transaction is
    /// settled either way), and kept pending on transport-level failures
    /// so a legitimate client may retry.
    pub fn verify(
        &mut self,
        evidence: &Evidence,
        now: Duration,
    ) -> Result<VerifiedTransaction, VerifyError> {
        let token = match evidence.token() {
            Ok(t) => t,
            Err(_) => return Err(self.reject(VerifyError::MalformedEvidence)),
        };
        let pending = match self.ledger.preflight(&token.nonce, now) {
            Ok(p) => p,
            Err(e) => return Err(self.reject(e)),
        };
        let ca_key = &self.ca_key;
        if let Err(e) = check_evidence(
            &token,
            &pending,
            evidence,
            &self.config.trusted_pals,
            |cert| AikCertificate::from_bytes(cert)?.validate(ca_key),
        ) {
            return Err(self.reject(e));
        }
        // All cryptographic checks passed: settle the nonce.
        let pending = match self.ledger.settle(&token.nonce, now) {
            Ok(p) => p,
            Err(e) => return Err(self.reject(e)),
        };
        if token.verdict != Verdict::Confirmed {
            return Err(self.reject(VerifyError::NotConfirmed(token.verdict)));
        }
        self.stats.accepted += 1;
        Ok(VerifiedTransaction {
            transaction: pending.transaction,
            mode: token.mode,
            attempts: token.attempts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::PrivacyCa;
    use crate::client::{Client, ClientConfig};
    use crate::operator::{ConfirmingHuman, Intent};
    use utp_platform::machine::{Machine, MachineConfig};

    fn setup() -> (PrivacyCa, Verifier, Machine, Client) {
        let ca = PrivacyCa::new(512, 61);
        let verifier = Verifier::new(ca.public_key().clone(), 62);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(63));
        let enrollment = ca.enroll(&mut machine);
        let client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        (ca, verifier, machine, client)
    }

    fn tx() -> Transaction {
        Transaction::new(5, "shop.example", 1999, "USD", "cart 88")
    }

    #[test]
    fn happy_path_type_code() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 64);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        let verified = verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(verified.transaction, t);
        assert_eq!(verified.mode, ConfirmMode::TypeCode);
        assert!(verified.attempts >= 1);
        assert_eq!(verifier.stats().accepted, 1);
    }

    #[test]
    fn happy_path_press_enter() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        let req =
            verifier.issue_request_with_mode(t.clone(), ConfirmMode::PressEnter, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 65);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        let verified = verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(verified.mode, ConfirmMode::PressEnter);
        assert_eq!(verified.attempts, 0);
    }

    #[test]
    fn replay_is_rejected() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 66);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::Replayed
        );
    }

    #[test]
    fn unknown_nonce_rejected() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        // A request this verifier never issued (different verifier).
        let mut rogue = Verifier::new(verifier.ca_key.clone(), 999);
        let req = rogue.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 67);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::UnknownNonce
        );
    }

    #[test]
    fn expired_nonce_rejected() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 68);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        machine.advance(Duration::from_secs(301));
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::Expired
        );
    }

    #[test]
    fn rejected_verdict_is_not_accepted_but_settles_nonce() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        // The human did not initiate this — rejects at the PAL.
        let mut human = ConfirmingHuman::new(Intent::rejecting(), 69);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        let err = verifier.verify(&evidence, machine.now()).unwrap_err();
        assert!(matches!(err, VerifyError::NotConfirmed(Verdict::Rejected)));
        // And the nonce cannot be re-tried with forged evidence.
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::Replayed
        );
    }

    #[test]
    fn untrusted_pal_rejected() {
        let (ca, _v, mut machine, _client) = setup();
        // Provider only trusts a *different* PAL version.
        let mut config = VerifierConfig::default();
        config.trusted_pals.clear();
        config
            .trusted_pals
            .insert(crate::pal::ConfirmationPal::with_attempts(9).measurement());
        let mut verifier = Verifier::with_config(ca.public_key().clone(), config, 70);
        let enrollment = ca.enroll(&mut machine);
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 71);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::UntrustedPal
        );
    }

    #[test]
    fn certificate_from_rogue_ca_rejected() {
        let (_real_ca, mut verifier, mut machine, _client) = setup();
        let rogue_ca = PrivacyCa::new(512, 1000);
        let enrollment = rogue_ca.enroll(&mut machine);
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 72);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::BadCertificate
        );
    }

    #[test]
    fn tampered_token_rejected() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::rejecting(), 73);
        let mut evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        // Malware flips the verdict byte from Rejected to Confirmed.
        let mut token = evidence.token().unwrap();
        token.verdict = Verdict::Confirmed;
        evidence.token_bytes = token.to_bytes();
        // The PCR-17 chain no longer matches the quoted value.
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::UntrustedPal
        );
    }

    #[test]
    fn malformed_evidence_rejected() {
        let (_ca, mut verifier, machine, _client) = setup();
        let evidence = Evidence {
            token_bytes: vec![1, 2, 3],
            quote: utp_tpm::quote::Quote {
                selection: utp_tpm::pcr::PcrSelection::drtm_only(),
                pcr_values: vec![Sha1Digest::zero()],
                external_data: Sha1Digest::zero(),
                signature: vec![0; 64],
            },
            aik_cert: vec![],
        };
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::MalformedEvidence
        );
    }

    #[test]
    fn gc_drops_only_expired() {
        let (_ca, mut verifier, machine, _client) = setup();
        let now = machine.now();
        verifier.issue_request(tx(), now);
        verifier.issue_request(tx(), now + Duration::from_secs(400));
        verifier.gc(now + Duration::from_secs(500));
        assert_eq!(verifier.pending_count(), 1);
    }

    #[test]
    fn stats_track_rejection_reasons() {
        let (_ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        let req = verifier.issue_request(t.clone(), machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&t), 74);
        let evidence = client.confirm(&mut machine, &req, &mut human).unwrap();
        verifier.verify(&evidence, machine.now()).unwrap();
        let _ = verifier.verify(&evidence, machine.now());
        assert_eq!(verifier.stats().rejected.get("Replayed"), Some(&1));
        assert_eq!(verifier.stats().issued, 1);
    }

    use std::time::Duration;
}
