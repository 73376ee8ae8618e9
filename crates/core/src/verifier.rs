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
//!
//! [`Settler`] makes that decision for every base-protocol verdict in
//! the workspace: [`Verifier`] is its serial one-shard use, and the
//! server's provider and worker pool run a sharded one.

use crate::ca::AikCertificate;
use crate::protocol::{
    ConfirmMode, ConfirmationToken, Evidence, Transaction, TransactionRequest, Verdict,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::iter::Sum;
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
/// Everything else a verifier does is stateless cryptography; this
/// ledger is the one structure that must be consulted and mutated per
/// evidence submission, so [`Settler`] keeps one per shard
/// (`hash(nonce) % shards`) and no global lock serializes settlement.
///
/// The intended call sequence is
/// [`NonceLedger::preflight`] (read-mostly, before the expensive crypto)
/// followed by [`NonceLedger::settle`] (consuming, after the crypto
/// passed). Both enforce the replay/unknown/expiry rules, so a concurrent
/// duplicate submission loses the settle race and is reported as
/// [`VerifyError::Replayed`] — exactly one of N racing duplicates can
/// settle.
///
/// [`Settler`] (behind both [`Verifier`] and the provider), the batch
/// and the amortized verifiers all settle through it, so the replay,
/// unknown and expiry rules exist once.
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
    /// Expired entries are dropped here: a nonce is forgotten the moment
    /// it is observed expired.
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
            // Stays removed, as in `preflight`: a nonce is forgotten the
            // moment it is observed expired.
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

/// The seeded nonce stream a provider draws its challenges from. A
/// [`Verifier`] and a server-side provider built from the same seed
/// issue the same nonces.
#[derive(Debug, Clone)]
pub struct NonceStream(StdRng);

impl NonceStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        NonceStream(StdRng::seed_from_u64(seed ^ 0x56_4552_u64))
    }

    /// Draws the next nonce and builds the request that challenges the
    /// human to confirm `transaction` in `mode`.
    pub fn request(&mut self, transaction: Transaction, mode: ConfirmMode) -> TransactionRequest {
        let mut nonce = [0u8; 20];
        self.0.fill_bytes(&mut nonce);
        TransactionRequest {
            transaction,
            nonce: Sha1Digest(nonce),
            mode,
        }
    }
}

/// Per-shard settlement counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardCounters {
    /// Nonces registered with this shard.
    pub registered: u64,
    /// Evidence accepted (human-confirmed, nonce consumed).
    pub accepted: u64,
    /// Evidence rejected by a crypto or nonce rule, or settled with a
    /// verdict other than `Confirmed`. Evidence whose token does not
    /// parse names no nonce, so no shard owns it: it counts here on
    /// shard 0.
    pub rejected: u64,
    /// Replays caught, including concurrent duplicate submissions that
    /// lost the settle race.
    pub replayed: u64,
}

impl<'a> Sum<&'a ShardCounters> for ShardCounters {
    /// Element-wise sum (whole-settler totals).
    fn sum<I: Iterator<Item = &'a ShardCounters>>(shards: I) -> Self {
        shards.fold(ShardCounters::default(), |acc, s| ShardCounters {
            registered: acc.registered + s.registered,
            accepted: acc.accepted + s.accepted,
            rejected: acc.rejected + s.rejected,
            replayed: acc.replayed + s.replayed,
        })
    }
}

impl ShardCounters {
    /// Counts a rejected step: replays apart, everything else as rejected.
    fn count(&mut self, outcome: &VerifyError) {
        if matches!(outcome, VerifyError::Replayed) {
            self.replayed += 1;
        } else {
            self.rejected += 1;
        }
    }
}

/// One settlement shard: its slice of the nonce space and its counters.
#[derive(Debug)]
struct Shard {
    ledger: Mutex<NonceLedger>,
    counters: Mutex<ShardCounters>,
}

/// Full nonce-ledger state across all shards, as exported by
/// [`Settler::ledger_export`]: `(outstanding entries, consumed nonces)`,
/// both sorted by nonce.
pub type LedgerExport = (Vec<([u8; 20], PendingNonce)>, Vec<[u8; 20]>);

/// The one settlement core: every base-protocol verdict in the
/// workspace is decided by [`Settler::settle_evidence`].
///
/// It pins the privacy-CA key and the trusted PAL measurements, and owns
/// the [`NonceLedger`]s, **sharded** by `hash(nonce) % shards` so the
/// one serialized step does not serialize globally, with per-shard
/// counters. It is thread-free and every method takes `&self`, so one
/// core can serve an inline caller and a worker pool at once. A
/// [`Verifier`] is a one-shard core; the server's settlement adds a
/// certificate cache and a journal around a sharded one.
#[derive(Debug)]
pub struct Settler {
    ca_key: RsaPublicKey,
    trusted_pals: HashSet<Sha1Digest>,
    shards: Vec<Shard>,
}

impl Settler {
    /// A core pinning `ca_key` and accepting `trusted_pals`, whose
    /// nonces live `nonce_ttl`, settled on `shards` shards (clamped to
    /// ≥ 1).
    pub fn new(
        ca_key: RsaPublicKey,
        trusted_pals: HashSet<Sha1Digest>,
        nonce_ttl: Duration,
        shards: usize,
    ) -> Self {
        Settler {
            ca_key,
            trusted_pals,
            shards: (0..shards.max(1))
                .map(|_| Shard {
                    ledger: Mutex::new(NonceLedger::new(nonce_ttl)),
                    counters: Mutex::default(),
                })
                .collect(),
        }
    }

    /// Deep copy for state-space branching: ledgers and counters are
    /// copied, so the fork and the original settle independently.
    pub fn fork(&self) -> Settler {
        Settler {
            ca_key: self.ca_key.clone(),
            trusted_pals: self.trusted_pals.clone(),
            shards: self
                .shards
                .iter()
                .map(|s| Shard {
                    ledger: Mutex::new(s.ledger.lock().clone()),
                    counters: Mutex::new(*s.counters.lock()),
                })
                .collect(),
        }
    }

    /// The pinned privacy-CA key AIK certificates must validate under.
    pub fn ca_key(&self) -> &RsaPublicKey {
        &self.ca_key
    }

    /// Number of settlement shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard that settles `nonce`.
    pub fn shard_index(&self, nonce: &[u8; 20]) -> usize {
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&nonce[..8]);
        (u64::from_le_bytes(prefix) % self.shards.len() as u64) as usize
    }

    fn shard_of(&self, nonce: &Sha1Digest) -> &Shard {
        &self.shards[self.shard_index(nonce.as_bytes())]
    }

    /// Per-shard counter snapshots, in shard order.
    pub fn counters(&self) -> Vec<ShardCounters> {
        self.shards.iter().map(|s| *s.counters.lock()).collect()
    }

    /// Registers an issued request with its settlement shard, enabling
    /// later evidence submission for its nonce.
    pub fn register(&self, request: &TransactionRequest, now: Duration) {
        let entry = PendingNonce {
            request_bytes: request.to_bytes(),
            transaction: request.transaction.clone(),
            issued_at: now,
        };
        self.restore_pending(*request.nonce.as_bytes(), entry);
    }

    /// Restores an outstanding entry into its settlement shard from a
    /// recovered journal: the challenge was issued (and persisted)
    /// before the crash, so its evidence stays settleable after restart.
    pub fn restore_pending(&self, nonce: [u8; 20], pending: PendingNonce) {
        let digest = Sha1Digest(nonce);
        let shard = self.shard_of(&digest);
        shard.ledger.lock().register(&digest, pending);
        shard.counters.lock().registered += 1;
    }

    /// Restores a consumed nonce into its settlement shard so replayed
    /// evidence keeps losing after a restart.
    pub fn restore_used(&self, nonce: [u8; 20]) {
        let digest = Sha1Digest(nonce);
        self.shard_of(&digest).ledger.lock().restore_used(nonce);
    }

    /// Exports the full ledger state across all shards — snapshot
    /// support: `(outstanding entries, consumed nonces)`, both sorted by
    /// nonce for deterministic snapshots.
    pub fn ledger_export(&self) -> LedgerExport {
        let mut pending = Vec::new();
        let mut used = Vec::new();
        for shard in &self.shards {
            let ledger = shard.ledger.lock();
            pending.extend(ledger.pending_entries().map(|(n, p)| (*n, p.clone())));
            used.extend(ledger.used_entries().copied());
        }
        pending.sort_by_key(|(n, _)| *n);
        used.sort_unstable();
        (pending, used)
    }

    /// Settles evidence: parse the token, preflight its shard
    /// (read-mostly), run [`check_evidence`] with AIK certificates
    /// resolved by `resolve_aik` and no lock held, settle the nonce, then
    /// check the verdict. A concurrent duplicate loses the settle race
    /// and reports `Replayed`, exactly like a sequential replay. Every
    /// submission is counted once: a token that does not parse has no
    /// shard, so its `MalformedEvidence` counts as rejected on shard 0.
    ///
    /// # Errors
    ///
    /// The first failing check as a [`VerifyError`]; the nonce is
    /// consumed on success and on `NotConfirmed` (the transaction settled
    /// either way), and stays pending on retryable failures.
    pub fn settle_evidence(
        &self,
        evidence: &Evidence,
        now: Duration,
        resolve_aik: impl FnOnce(&[u8]) -> Option<RsaPublicKey>,
    ) -> Result<VerifiedTransaction, VerifyError> {
        let token = evidence
            .token()
            .map_err(|_| VerifyError::MalformedEvidence)
            .inspect_err(|e| self.shards[0].counters.lock().count(e))?;
        let shard = self.shard_of(&token.nonce);
        let pending = shard
            .ledger
            .lock()
            .preflight(&token.nonce, now)
            .inspect_err(|e| shard.counters.lock().count(e))?;
        check_evidence(&token, &pending, evidence, &self.trusted_pals, resolve_aik)
            .inspect_err(|e| shard.counters.lock().count(e))?;
        let pending = shard
            .ledger
            .lock()
            .settle(&token.nonce, now)
            .inspect_err(|e| shard.counters.lock().count(e))?;
        if token.verdict != Verdict::Confirmed {
            // The nonce is consumed either way — the transaction settled
            // as rejected.
            shard.counters.lock().rejected += 1;
            return Err(VerifyError::NotConfirmed(token.verdict));
        }
        shard.counters.lock().accepted += 1;
        Ok(VerifiedTransaction {
            transaction: pending.transaction,
            mode: token.mode,
            attempts: token.attempts,
        })
    }
}

/// The provider-side verifier: a seeded nonce stream and a default
/// confirmation mode for issuing requests, and a one-shard [`Settler`]
/// that validates every AIK certificate afresh (no cache).
#[derive(Debug)]
pub struct Verifier {
    nonces: NonceStream,
    default_mode: ConfirmMode,
    settler: Settler,
}

impl Verifier {
    /// Creates a verifier pinning the given privacy-CA key, with default
    /// policy (trusts `ConfirmationPal::v1`).
    pub fn new(ca_key: RsaPublicKey, seed: u64) -> Self {
        Self::with_config(ca_key, VerifierConfig::default(), seed)
    }

    /// Creates a verifier with explicit policy.
    pub fn with_config(ca_key: RsaPublicKey, config: VerifierConfig, seed: u64) -> Self {
        Verifier {
            nonces: NonceStream::new(seed),
            default_mode: config.default_mode,
            settler: Settler::new(ca_key, config.trusted_pals, config.nonce_ttl, 1),
        }
    }

    /// The settlement core's counters.
    pub fn stats(&self) -> ShardCounters {
        self.settler.counters().iter().sum()
    }

    /// Issues a confirmation request for `tx` with the default mode.
    pub fn issue_request(&mut self, tx: Transaction, now: Duration) -> TransactionRequest {
        let mode = self.default_mode;
        self.issue_request_with_mode(tx, mode, now)
    }

    /// Issues a confirmation request with an explicit mode.
    pub fn issue_request_with_mode(
        &mut self,
        tx: Transaction,
        mode: ConfirmMode,
        now: Duration,
    ) -> TransactionRequest {
        let request = self.nonces.request(tx, mode);
        self.settler.register(&request, now);
        request
    }

    /// Verifies evidence for a previously issued request: one
    /// [`Settler::settle_evidence`], parsing and validating the AIK
    /// certificate under the pinned CA key.
    ///
    /// # Errors
    ///
    /// As [`Settler::settle_evidence`].
    pub fn verify(
        &mut self,
        evidence: &Evidence,
        now: Duration,
    ) -> Result<VerifiedTransaction, VerifyError> {
        let ca_key = self.settler.ca_key();
        self.settler.settle_evidence(evidence, now, |cert| {
            AikCertificate::from_bytes(cert)?.validate(ca_key)
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
        let (ca, mut verifier, mut machine, mut client) = setup();
        let t = tx();
        // A request this verifier never issued (different verifier).
        let mut rogue = Verifier::new(ca.public_key().clone(), 999);
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
        let mut ledger = NonceLedger::new(DEFAULT_NONCE_TTL);
        let now = Duration::from_secs(1);
        let pending = |issued_at| PendingNonce {
            request_bytes: Vec::new(),
            transaction: tx(),
            issued_at,
        };
        ledger.register(&Sha1Digest([1; 20]), pending(now));
        ledger.register(
            &Sha1Digest([2; 20]),
            pending(now + Duration::from_secs(400)),
        );
        ledger.gc(now + Duration::from_secs(500));
        assert_eq!(ledger.pending_count(), 1);
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
        assert_eq!(verifier.stats().replayed, 1);
        assert_eq!(verifier.stats().registered, 1);
    }

    use std::time::Duration;
}
