//! Amortized confirmation: quote once, MAC thereafter.
//!
//! A `TPM_Quote` is the most expensive step of every confirmation session
//! (E1/E2). The extension the paper's discussion points at — and Flicker
//! applications of the era used — amortizes it: the *first* session runs a
//! key-setup PAL that draws a symmetric key `K` from TPM randomness,
//! encrypts it to the provider's RSA key, **seals `K` to its own PCR-17
//! state**, and attests the whole exchange with one quote. Every later
//! confirmation session unseals `K` (possible only for the same PAL after
//! a genuine DRTM launch) and authenticates its confirmation token with
//! `HMAC-SHA256(K, token)` instead of a quote.
//!
//! Security argument: `K` exists in exactly two places — the provider's
//! database and a sealed blob only the genuine PAL can open. A valid MAC
//! over a fresh nonce therefore still proves "the trusted PAL ran via DRTM
//! and produced this token", with the quote's RSA latency replaced by the
//! (cheaper, see E8) unseal latency, and the provider's RSA verify
//! replaced by one HMAC.
//!
//! The trade-off is real and measurable: on chips where unseal is nearly
//! as slow as quote the gain shrinks — the E8 ablation regenerates exactly
//! that comparison.
//!
//! The confirm session runs the base PAL's dialogue, and
//! [`AmortizedVerifier`] settles through the base [`NonceLedger`] in the
//! base order, so evidence that fails a check leaves the nonce pending.

use crate::ca::Enrollment;
use crate::client::attested_quote;
use crate::error::UtpError;
use crate::pal::{confirm_dialogue, V1_CODE_ATTEMPTS};
use crate::protocol::{ConfirmMode, ConfirmationToken, TransactionRequest, Verdict};
use crate::verifier::{
    check_quote_chain, NonceLedger, PendingNonce, VerifyError, DEFAULT_NONCE_TTL,
};
use std::collections::{HashMap, HashSet};
use std::time::Duration;
use utp_crypto::hmac::hmac_sha256;
use utp_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use utp_crypto::sha1::{Sha1, Sha1Digest};
use utp_flicker::marshal::{put_bytes, put_u64, Reader};
use utp_flicker::pal::{Operator, Pal, PalEnv, PalError, ScriptedOperator};
use utp_flicker::runtime::{run_pal, AttestSpec, SessionReport};
use utp_platform::machine::Machine;
use utp_tpm::keys::SRK_HANDLE;
use utp_tpm::pcr::PcrSelection;
use utp_tpm::seal::SealedBlob;

const INPUT_TAG_SETUP: u8 = 0;
const INPUT_TAG_CONFIRM: u8 = 1;

/// The amortized PAL: key setup + MAC-authenticated confirmation.
///
/// A distinct PAL (distinct measurement) from [`crate::pal::ConfirmationPal`];
/// providers opt in by trusting it.
#[derive(Debug, Clone)]
pub struct AmortizedPal {
    image: Vec<u8>,
}

impl AmortizedPal {
    /// The canonical v1 build.
    pub fn v1() -> Self {
        AmortizedPal {
            image: b"UTP-AMORTIZED-CONFIRMATION-PAL v1 (max_code_attempts=3)".to_vec(),
        }
    }

    /// The measurement providers pin for the amortized protocol.
    pub fn measurement(&self) -> Sha1Digest {
        Sha1::digest(&self.image)
    }

    fn handle_setup(
        &self,
        env: &mut PalEnv<'_, '_>,
        mut r: Reader<'_>,
    ) -> Result<Vec<u8>, PalError> {
        let server_pub_bytes = r
            .bytes()
            .map_err(|e| PalError::Failed(e.to_string()))?
            .to_vec();
        r.finish().map_err(|e| PalError::Failed(e.to_string()))?;
        let server_pub = RsaPublicKey::from_bytes(&server_pub_bytes)
            .ok_or_else(|| PalError::Failed("bad server key".into()))?;
        // Draw K and a PKCS#1 padding seed from TPM randomness so the PAL
        // needs no ambient RNG.
        let key = env.get_random(32)?;
        let pad_seed = env.get_random(8)?;
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::StdRng::seed_from_u64(
                pad_seed
                    .iter()
                    .fold(0u64, |acc, &b| (acc << 8) | u64::from(b)),
            )
        };
        let key_ct = server_pub
            .encrypt_pkcs1(&mut rng, &key)
            .map_err(|e| PalError::Failed(e.to_string()))?;
        // Seal K to this PAL's own PCR-17 state.
        let blob = env.seal_to_current(SRK_HANDLE, PcrSelection::drtm_only(), &key)?;
        env.compute(Duration::from_millis(1));
        let mut out = Vec::new();
        put_bytes(&mut out, &key_ct);
        put_bytes(&mut out, &blob.to_bytes());
        Ok(out)
    }

    fn handle_confirm(
        &self,
        env: &mut PalEnv<'_, '_>,
        mut r: Reader<'_>,
    ) -> Result<Vec<u8>, PalError> {
        let request_bytes = r
            .bytes()
            .map_err(|e| PalError::Failed(e.to_string()))?
            .to_vec();
        let blob_bytes = r
            .bytes()
            .map_err(|e| PalError::Failed(e.to_string()))?
            .to_vec();
        r.finish().map_err(|e| PalError::Failed(e.to_string()))?;
        let request = TransactionRequest::from_bytes(&request_bytes)
            .map_err(|e| PalError::Failed(format!("bad request: {}", e)))?;
        let blob = SealedBlob::from_bytes(&blob_bytes)
            .ok_or_else(|| PalError::Failed("bad sealed blob".into()))?;
        // Unseal K: only succeeds if PCR 17 holds *this* PAL's launch value.
        let key = env.unseal(SRK_HANDLE, &blob)?;
        env.compute(Duration::from_millis(1));

        let (verdict, attempts) = confirm_dialogue(
            env,
            "=== TRUSTED TRANSACTION CONFIRMATION (amortized) ===",
            &request.transaction,
            request.mode,
            V1_CODE_ATTEMPTS,
        )?;
        let token = ConfirmationToken {
            tx_digest: request.transaction.digest(),
            nonce: request.nonce,
            mode: request.mode,
            verdict,
            attempts,
        };
        let token_bytes = token.to_bytes();
        let mac = hmac_sha256(&key, &token_bytes);
        let mut out = Vec::new();
        put_bytes(&mut out, &token_bytes);
        put_bytes(&mut out, mac.as_bytes());
        Ok(out)
    }
}

impl Pal for AmortizedPal {
    fn image(&self) -> &[u8] {
        &self.image
    }

    fn invoke(&mut self, env: &mut PalEnv<'_, '_>, input: &[u8]) -> Result<Vec<u8>, PalError> {
        let mut r = Reader::new(input);
        let tag = r.take(1).map_err(|e| PalError::Failed(e.to_string()))?[0];
        match tag {
            INPUT_TAG_SETUP => self.handle_setup(env, r),
            INPUT_TAG_CONFIRM => self.handle_confirm(env, r),
            other => Err(PalError::Failed(format!("unknown input tag {}", other))),
        }
    }
}

/// Evidence from an amortized confirmation: token + MAC, no quote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AmortizedEvidence {
    /// The client's identity at the provider (assigned during setup).
    pub client_id: u64,
    /// The PAL's token bytes.
    pub token_bytes: Vec<u8>,
    /// `HMAC-SHA256(K, token_bytes)`.
    pub mac: [u8; 32],
}

impl AmortizedEvidence {
    /// Wire encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, self.client_id);
        put_bytes(&mut buf, &self.token_bytes);
        buf.extend_from_slice(&self.mac);
        buf
    }

    /// Parses the wire encoding.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut r = Reader::new(data);
        let client_id = r.u64().ok()?;
        let token_bytes = r.bytes().ok()?.to_vec();
        let mac: [u8; 32] = r.take(32).ok()?.try_into().ok()?;
        r.finish().ok()?;
        Some(AmortizedEvidence {
            client_id,
            token_bytes,
            mac,
        })
    }
}

/// Client-side state for the amortized protocol.
#[derive(Debug, Clone)]
pub struct AmortizedClient {
    enrollment: Enrollment,
    pal: AmortizedPal,
    client_id: Option<u64>,
    sealed_key: Option<SealedBlob>,
}

impl AmortizedClient {
    /// Creates an un-set-up client.
    pub fn new(enrollment: Enrollment) -> Self {
        AmortizedClient {
            enrollment,
            pal: AmortizedPal::v1(),
            client_id: None,
            sealed_key: None,
        }
    }

    /// True once setup has completed.
    pub fn is_set_up(&self) -> bool {
        self.client_id.is_some() && self.sealed_key.is_some()
    }

    /// Runs the attested setup session and registers with the verifier.
    ///
    /// # Errors
    ///
    /// Session failures as [`UtpError`]; registration failures as
    /// [`VerifyError`] via the verifier.
    pub fn setup(
        &mut self,
        machine: &mut Machine,
        verifier: &mut AmortizedVerifier,
    ) -> Result<SessionReport, UtpError> {
        let nonce = verifier.issue_setup_nonce();
        let mut input = vec![INPUT_TAG_SETUP];
        put_bytes(&mut input, &verifier.server_public().to_bytes());
        let mut silent = ScriptedOperator::silent();
        let mut pal = self.pal.clone();
        let report = run_pal(
            machine,
            &mut pal,
            &input,
            &mut silent,
            Some(AttestSpec {
                aik_handle: self.enrollment.aik_handle,
                nonce,
                selection: PcrSelection::drtm_only(),
            }),
        )?;
        // Parse the PAL output: key ciphertext + sealed blob.
        let mut r = Reader::new(&report.output);
        let key_ct = r
            .bytes()
            .map_err(|e| UtpError::Protocol(e.to_string()))?
            .to_vec();
        let blob_bytes = r
            .bytes()
            .map_err(|e| UtpError::Protocol(e.to_string()))?
            .to_vec();
        r.finish().map_err(|e| UtpError::Protocol(e.to_string()))?;
        let blob = SealedBlob::from_bytes(&blob_bytes)
            .ok_or_else(|| UtpError::Protocol("bad sealed blob from pal".into()))?;
        let client_id = verifier
            .register(
                &input,
                &report.output,
                &key_ct,
                attested_quote(&report)?,
                &self.enrollment.certificate.to_bytes(),
                nonce,
            )
            .map_err(|e| UtpError::Protocol(format!("registration rejected: {}", e)))?;
        self.client_id = Some(client_id);
        self.sealed_key = Some(blob);
        Ok(report)
    }

    /// Runs one amortized (MAC-authenticated, quote-free) confirmation.
    ///
    /// # Errors
    ///
    /// [`UtpError::Protocol`] if setup has not run; session errors
    /// otherwise.
    pub fn confirm_with_report(
        &mut self,
        machine: &mut Machine,
        request: &TransactionRequest,
        operator: &mut dyn Operator,
    ) -> Result<(AmortizedEvidence, SessionReport), UtpError> {
        let client_id = self
            .client_id
            .ok_or_else(|| UtpError::Protocol("setup has not run".into()))?;
        let blob = self
            .sealed_key
            .as_ref()
            .ok_or_else(|| UtpError::Protocol("setup has not run".into()))?;
        let mut input = vec![INPUT_TAG_CONFIRM];
        put_bytes(&mut input, &request.to_bytes());
        put_bytes(&mut input, &blob.to_bytes());
        let mut pal = self.pal.clone();
        let report = run_pal(machine, &mut pal, &input, operator, None)?;
        let mut r = Reader::new(&report.output);
        let token_bytes = r
            .bytes()
            .map_err(|e| UtpError::Protocol(e.to_string()))?
            .to_vec();
        let mac: [u8; 32] = r
            .bytes()
            .map_err(|e| UtpError::Protocol(e.to_string()))?
            .try_into()
            .map_err(|_| UtpError::Protocol("mac must be 32 bytes".into()))?;
        r.finish().map_err(|e| UtpError::Protocol(e.to_string()))?;
        Ok((
            AmortizedEvidence {
                client_id,
                token_bytes,
                mac,
            },
            report,
        ))
    }
}

/// Provider-side verifier for the amortized protocol.
pub struct AmortizedVerifier {
    ca_key: RsaPublicKey,
    server_keypair: RsaKeyPair,
    trusted_pal: Sha1Digest,
    keys: HashMap<u64, Vec<u8>>,
    next_client_id: u64,
    setup_nonces: HashSet<[u8; 20]>,
    ledger: NonceLedger,
    nonce_counter: u64,
    /// Accepted confirmations.
    pub accepted: u64,
}

// Redacting Debug: the per-client MAC keys and the server transport key
// are long-lived secrets; only bookkeeping state is printed.
impl std::fmt::Debug for AmortizedVerifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AmortizedVerifier")
            .field("next_client_id", &self.next_client_id)
            .field("clients", &self.keys.len())
            .field("accepted", &self.accepted)
            .field("secrets", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl AmortizedVerifier {
    /// Creates a verifier with its own RSA key for key transport.
    pub fn new(ca_key: RsaPublicKey, key_bits: usize, seed: u64) -> Self {
        AmortizedVerifier {
            ca_key,
            server_keypair: RsaKeyPair::generate(key_bits, seed ^ 0x414d_4f52),
            trusted_pal: AmortizedPal::v1().measurement(),
            keys: HashMap::new(),
            next_client_id: 1,
            setup_nonces: HashSet::new(),
            ledger: NonceLedger::new(DEFAULT_NONCE_TTL),
            nonce_counter: 0,
            accepted: 0,
        }
    }

    /// The provider's key-transport public key (embedded in setup input).
    pub fn server_public(&self) -> &RsaPublicKey {
        self.server_keypair.public()
    }

    /// Number of registered clients.
    pub fn clients(&self) -> usize {
        self.keys.len()
    }

    fn fresh_nonce(&mut self) -> Sha1Digest {
        self.nonce_counter += 1;
        Sha1::digest_concat(b"amortized-nonce", &self.nonce_counter.to_be_bytes())
    }

    /// Issues a nonce for a setup session.
    pub fn issue_setup_nonce(&mut self) -> Sha1Digest {
        let n = self.fresh_nonce();
        self.setup_nonces.insert(*n.as_bytes());
        n
    }

    /// Verifies a setup session's quote and registers the client key.
    ///
    /// # Errors
    ///
    /// [`VerifyError`] variants on any failed check; the setup nonce is
    /// consumed on success and stays issued on every failure.
    pub fn register(
        &mut self,
        setup_input: &[u8],
        setup_output: &[u8],
        key_ct: &[u8],
        quote: &utp_tpm::quote::Quote,
        aik_cert: &[u8],
        nonce: Sha1Digest,
    ) -> Result<u64, VerifyError> {
        // The nonce is spent only by a registration that succeeds, so a
        // forged setup quote cannot burn the genuine client's challenge.
        if !self.setup_nonces.contains(nonce.as_bytes()) {
            return Err(VerifyError::UnknownNonce);
        }
        let cert =
            crate::ca::AikCertificate::from_bytes(aik_cert).ok_or(VerifyError::BadCertificate)?;
        let aik = cert
            .validate(&self.ca_key)
            .ok_or(VerifyError::BadCertificate)?;
        let io = utp_flicker::runtime::io_digest(setup_input, setup_output);
        check_quote_chain(&aik, &nonce, std::iter::once(&self.trusted_pal), &io, quote)?;
        let key = self
            .server_keypair
            .decrypt_pkcs1(key_ct)
            .map_err(|_| VerifyError::MalformedEvidence)?;
        if key.len() != 32 {
            return Err(VerifyError::MalformedEvidence);
        }
        self.setup_nonces.remove(nonce.as_bytes());
        let id = self.next_client_id;
        self.next_client_id += 1;
        self.keys.insert(id, key);
        Ok(id)
    }

    /// Issues a confirmation request (same shape as the base protocol).
    pub fn issue_request(
        &mut self,
        tx: crate::protocol::Transaction,
        mode: ConfirmMode,
        now: Duration,
    ) -> TransactionRequest {
        let nonce = self.fresh_nonce();
        let request = TransactionRequest {
            transaction: tx,
            nonce,
            mode,
        };
        self.ledger.register(
            &nonce,
            PendingNonce {
                request_bytes: request.to_bytes(),
                transaction: request.transaction.clone(),
                issued_at: now,
            },
        );
        request
    }

    /// Verifies amortized evidence at virtual time `now`: nonce
    /// freshness, MAC under the client's key, transaction binding, then
    /// settles the nonce and checks the verdict.
    ///
    /// # Errors
    ///
    /// [`VerifyError`] variants on any failed check; as in the base
    /// verifier, the nonce is consumed on success and on `NotConfirmed`,
    /// and stays pending on every other failure.
    pub fn verify(
        &mut self,
        evidence: &AmortizedEvidence,
        now: Duration,
    ) -> Result<ConfirmationToken, VerifyError> {
        let token = ConfirmationToken::from_bytes(&evidence.token_bytes)
            .map_err(|_| VerifyError::MalformedEvidence)?;
        let pending = self.ledger.preflight(&token.nonce, now)?;
        let key = self
            .keys
            .get(&evidence.client_id)
            .ok_or(VerifyError::BadCertificate)?;
        let expect = hmac_sha256(key, &evidence.token_bytes);
        if !utp_crypto::ct::ct_eq(expect.as_bytes(), &evidence.mac) {
            return Err(VerifyError::BadQuote);
        }
        if token.tx_digest != pending.transaction.digest() {
            return Err(VerifyError::TokenMismatch);
        }
        self.ledger.settle(&token.nonce, now)?;
        if token.verdict != Verdict::Confirmed {
            return Err(VerifyError::NotConfirmed(token.verdict));
        }
        self.accepted += 1;
        Ok(token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::PrivacyCa;
    use crate::operator::{ConfirmingHuman, Intent};
    use crate::protocol::Transaction;
    use utp_platform::keyboard::KeyEvent;
    use utp_platform::machine::MachineConfig;

    fn setup_world(seed: u64) -> (AmortizedVerifier, Machine, AmortizedClient) {
        let ca = PrivacyCa::new(512, seed);
        let mut verifier = AmortizedVerifier::new(ca.public_key().clone(), 512, seed + 1);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(seed + 2));
        let enrollment = ca.enroll(&mut machine);
        let mut client = AmortizedClient::new(enrollment);
        client
            .setup(&mut machine, &mut verifier)
            .expect("setup runs");
        (verifier, machine, client)
    }

    #[test]
    fn setup_registers_exactly_one_client() {
        let (verifier, _machine, client) = setup_world(700);
        assert!(client.is_set_up());
        assert_eq!(verifier.clients(), 1);
    }

    #[test]
    fn amortized_confirmation_verifies_without_quote() {
        let (mut verifier, mut machine, mut client) = setup_world(710);
        let tx = Transaction::new(1, "shop.example", 4_200, "EUR", "order");
        let request = verifier.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 711);
        let (evidence, report) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .unwrap();
        assert!(report.quote.is_none(), "no quote in amortized mode");
        let token = verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(token.tx_digest, tx.digest());
        assert_eq!(verifier.accepted, 1);
    }

    #[test]
    fn replay_rejected() {
        let (mut verifier, mut machine, mut client) = setup_world(720);
        let tx = Transaction::new(2, "shop.example", 100, "EUR", "");
        let request = verifier.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 721);
        let (evidence, _) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .unwrap();
        verifier.verify(&evidence, machine.now()).unwrap();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::Replayed
        );
    }

    #[test]
    fn evidence_after_the_ttl_is_expired() {
        let (mut verifier, mut machine, mut client) = setup_world(722);
        let tx = Transaction::new(2, "shop.example", 100, "EUR", "");
        let request = verifier.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 723);
        let (evidence, _) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .unwrap();
        machine.advance(DEFAULT_NONCE_TTL + Duration::from_secs(1));
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::Expired
        );
    }

    #[test]
    fn swapped_transaction_leaves_the_nonce_pending() {
        let (mut verifier, mut machine, mut client) = setup_world(724);
        let tx = Transaction::new(2, "shop.example", 100, "EUR", "");
        let request = verifier.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        // Malware hands the PAL another transaction under the genuine nonce.
        let mut swapped = request.clone();
        swapped.transaction = Transaction::new(2, "attacker.example", 100_000, "EUR", "");
        let (forged, _) = client
            .confirm_with_report(
                &mut machine,
                &swapped,
                &mut ScriptedOperator::pressing(KeyEvent::Enter),
            )
            .unwrap();
        assert_eq!(
            verifier.verify(&forged, machine.now()).unwrap_err(),
            VerifyError::TokenMismatch
        );
        // The genuine confirmation still settles.
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 725);
        let (evidence, _) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .unwrap();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap().tx_digest,
            tx.digest()
        );
    }

    #[test]
    fn tampered_token_fails_mac() {
        let (mut verifier, mut machine, mut client) = setup_world(730);
        let tx = Transaction::new(3, "shop.example", 100, "EUR", "");
        let request = verifier.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        // The human rejects; malware flips the verdict.
        let mut human = ConfirmingHuman::new(Intent::rejecting(), 731);
        let (mut evidence, _) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .unwrap();
        let mut token = ConfirmationToken::from_bytes(&evidence.token_bytes).unwrap();
        token.verdict = Verdict::Confirmed;
        evidence.token_bytes = token.to_bytes();
        assert_eq!(
            verifier.verify(&evidence, machine.now()).unwrap_err(),
            VerifyError::BadQuote
        );
    }

    #[test]
    fn evil_pal_cannot_unseal_the_key() {
        let (mut verifier, mut machine, mut client) = setup_world(740);
        // Malware reuses the client's sealed blob with its own PAL image.
        struct EvilAmortized {
            blob: Vec<u8>,
        }
        impl Pal for EvilAmortized {
            fn image(&self) -> &[u8] {
                b"EVIL-AMORTIZED"
            }
            fn invoke(
                &mut self,
                env: &mut PalEnv<'_, '_>,
                _input: &[u8],
            ) -> Result<Vec<u8>, PalError> {
                let blob = SealedBlob::from_bytes(&self.blob).expect("blob parses");
                // The unseal must fail: PCR 17 holds EVIL-AMORTIZED's
                // measurement, not AmortizedPal v1's.
                match env.unseal(SRK_HANDLE, &blob) {
                    Ok(key) => Ok(key), // would be a security failure
                    Err(e) => Err(PalError::Failed(e.to_string())),
                }
            }
        }
        let blob = client.sealed_key.clone().unwrap();
        let mut evil = EvilAmortized {
            blob: blob.to_bytes(),
        };
        let mut silent = ScriptedOperator::silent();
        let err = run_pal(&mut machine, &mut evil, b"", &mut silent, None).unwrap_err();
        assert!(err.to_string().contains("pcr"), "{}", err);
        // And the legitimate client still works afterwards.
        let tx = Transaction::new(4, "shop.example", 100, "EUR", "");
        let request = verifier.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 741);
        let (evidence, _) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .unwrap();
        verifier.verify(&evidence, machine.now()).unwrap();
    }

    #[test]
    fn confirm_before_setup_is_an_error() {
        let ca = PrivacyCa::new(512, 750);
        let mut verifier = AmortizedVerifier::new(ca.public_key().clone(), 512, 751);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(752));
        let enrollment = ca.enroll(&mut machine);
        let mut client = AmortizedClient::new(enrollment);
        let tx = Transaction::new(5, "shop.example", 100, "EUR", "");
        let request = verifier.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 753);
        let err = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .unwrap_err();
        assert!(err.to_string().contains("setup"));
    }

    #[test]
    fn setup_with_wrong_pal_is_rejected_by_registration() {
        // A client that runs the *base* ConfirmationPal for setup would
        // produce a quote over the wrong measurement. Simulate by
        // corrupting the trusted measurement after a genuine setup.
        let ca = PrivacyCa::new(512, 760);
        let mut verifier = AmortizedVerifier::new(ca.public_key().clone(), 512, 761);
        verifier.trusted_pal = Sha1::digest(b"some other pal");
        let mut machine = Machine::new(MachineConfig::fast_for_tests(762));
        let enrollment = ca.enroll(&mut machine);
        let mut client = AmortizedClient::new(enrollment);
        let err = client.setup(&mut machine, &mut verifier).unwrap_err();
        assert!(err.to_string().contains("registration rejected"));
        assert_eq!(verifier.clients(), 0);
    }

    /// A genuine setup session's registration arguments, as a client
    /// would submit them.
    #[derive(Clone)]
    struct SetupRun {
        input: Vec<u8>,
        output: Vec<u8>,
        key_ct: Vec<u8>,
        quote: utp_tpm::quote::Quote,
        cert: Vec<u8>,
        nonce: Sha1Digest,
    }

    impl SetupRun {
        fn register(&self, verifier: &mut AmortizedVerifier) -> Result<u64, VerifyError> {
            verifier.register(
                &self.input,
                &self.output,
                &self.key_ct,
                &self.quote,
                &self.cert,
                self.nonce,
            )
        }
    }

    /// Runs the genuine setup PAL against a fresh verifier's setup nonce.
    fn genuine_setup_run(seed: u64) -> (AmortizedVerifier, SetupRun) {
        let ca = PrivacyCa::new(512, seed);
        let mut verifier = AmortizedVerifier::new(ca.public_key().clone(), 512, seed + 1);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(seed + 2));
        let enrollment = ca.enroll(&mut machine);
        let nonce = verifier.issue_setup_nonce();
        let mut input = vec![INPUT_TAG_SETUP];
        put_bytes(&mut input, &verifier.server_public().to_bytes());
        let report = run_pal(
            &mut machine,
            &mut AmortizedPal::v1(),
            &input,
            &mut ScriptedOperator::silent(),
            Some(AttestSpec {
                aik_handle: enrollment.aik_handle,
                nonce,
                selection: PcrSelection::drtm_only(),
            }),
        )
        .unwrap();
        let mut r = Reader::new(&report.output);
        let key_ct = r.bytes().unwrap().to_vec();
        let run = SetupRun {
            input,
            key_ct,
            quote: report.quote.clone().unwrap(),
            output: report.output,
            cert: enrollment.certificate.to_bytes(),
            nonce,
        };
        (verifier, run)
    }

    #[test]
    fn setup_quote_with_forged_signature_is_a_bad_quote() {
        // The genuine PAL ran (PCR 17 matches), but one signature bit is
        // flipped: that is a forged quote, not an untrusted PAL.
        let (mut verifier, mut run) = genuine_setup_run(770);
        run.quote.signature[0] ^= 1;
        assert_eq!(run.register(&mut verifier), Err(VerifyError::BadQuote));
        assert_eq!(verifier.clients(), 0);
    }

    #[test]
    fn forged_setup_quote_leaves_the_nonce_to_the_genuine_quote() {
        let (mut verifier, genuine) = genuine_setup_run(780);
        let mut forged = genuine.clone();
        forged.quote.signature[0] ^= 1;
        assert_eq!(forged.register(&mut verifier), Err(VerifyError::BadQuote));
        let registered = genuine.register(&mut verifier);
        assert!(registered.is_ok(), "{registered:?}");
        assert_eq!(verifier.clients(), 1);
        // Success spends the nonce.
        assert_eq!(
            genuine.register(&mut verifier),
            Err(VerifyError::UnknownNonce)
        );
    }

    #[test]
    fn evidence_wire_roundtrip() {
        let ev = AmortizedEvidence {
            client_id: 9,
            token_bytes: vec![1, 2, 3],
            mac: [7u8; 32],
        };
        assert_eq!(AmortizedEvidence::from_bytes(&ev.to_bytes()).unwrap(), ev);
        assert!(AmortizedEvidence::from_bytes(&ev.to_bytes()[..10]).is_none());
    }

    #[test]
    fn amortized_saves_tpm_time_versus_quote_mode() {
        use utp_tpm::VendorProfile;
        // Same vendor, same transaction; compare machine-only time of a
        // quote-mode confirmation vs an amortized one.
        let ca = PrivacyCa::new(512, 770);
        // Quote mode.
        let mut verifier_q = crate::verifier::Verifier::new(ca.public_key().clone(), 771);
        let mut machine_q = Machine::new(MachineConfig::realistic(VendorProfile::Broadcom, 772));
        let enrollment_q = ca.enroll(&mut machine_q);
        let mut client_q =
            crate::client::Client::new(crate::client::ClientConfig::fast_for_tests(), enrollment_q);
        let tx = Transaction::new(1, "shop.example", 100, "EUR", "");
        let request = verifier_q.issue_request_with_mode(
            tx.clone(),
            ConfirmMode::PressEnter,
            machine_q.now(),
        );
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 773);
        let (_, report_q) = client_q
            .confirm_with_report(&mut machine_q, &request, &mut human)
            .unwrap();
        // Amortized mode (setup excluded — it is amortized).
        let mut verifier_a = AmortizedVerifier::new(ca.public_key().clone(), 512, 774);
        let mut machine_a = Machine::new(MachineConfig::realistic(VendorProfile::Broadcom, 775));
        let enrollment_a = ca.enroll(&mut machine_a);
        let mut client_a = AmortizedClient::new(enrollment_a);
        client_a.setup(&mut machine_a, &mut verifier_a).unwrap();
        let request =
            verifier_a.issue_request(tx.clone(), ConfirmMode::PressEnter, machine_a.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), 776);
        let (_, report_a) = client_a
            .confirm_with_report(&mut machine_a, &request, &mut human)
            .unwrap();
        assert!(
            report_a.timings.machine_only() < report_q.timings.machine_only(),
            "amortized {:?} should beat quote-mode {:?} on Broadcom",
            report_a.timings.machine_only(),
            report_q.timings.machine_only()
        );
    }
}
