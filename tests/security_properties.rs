//! Cross-crate security-property tests: every mutation of genuine
//! evidence must fail verification, and the platform invariants the
//! protocol rests on must hold.

use utp::core::ca::PrivacyCa;
use utp::core::client::{Client, ClientConfig};
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::core::protocol::{Evidence, Transaction};
use utp::core::verifier::{Verifier, VerifyError};
use utp::crypto::sha1::Sha1;
use utp::platform::machine::{Machine, MachineConfig};

struct Setup {
    verifier: Verifier,
    machine: Machine,
    evidence: Evidence,
}

fn genuine(seed: u64) -> Setup {
    let ca = PrivacyCa::new(512, seed);
    let mut verifier = Verifier::new(ca.public_key().clone(), seed + 1);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(seed + 2));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let tx = Transaction::new(1, "shop.example", 4_200, "EUR", "order");
    let request = verifier.issue_request(tx.clone(), machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), seed + 3);
    let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
    Setup {
        verifier,
        machine,
        evidence,
    }
}

#[test]
fn baseline_genuine_evidence_verifies() {
    let mut s = genuine(400);
    s.verifier.verify(&s.evidence, s.machine.now()).unwrap();
}

#[test]
fn every_single_byte_flip_in_the_signature_is_rejected() {
    let s = genuine(410);
    let mut verifier = s.verifier;
    for i in 0..s.evidence.quote.signature.len() {
        let mut ev = s.evidence.clone();
        ev.quote.signature[i] ^= 0x01;
        assert!(
            verifier.verify(&ev, s.machine.now()).is_err(),
            "flip at byte {} accepted",
            i
        );
    }
    // The pristine evidence still works afterwards — failed attempts must
    // not consume the nonce.
    verifier.verify(&s.evidence, s.machine.now()).unwrap();
}

#[test]
fn token_byte_flips_are_rejected() {
    let s = genuine(420);
    let mut verifier = s.verifier;
    for i in 0..s.evidence.token_bytes.len() {
        let mut ev = s.evidence.clone();
        ev.token_bytes[i] ^= 0x01;
        assert!(
            verifier.verify(&ev, s.machine.now()).is_err(),
            "token flip at byte {} accepted",
            i
        );
    }
}

#[test]
fn quoted_pcr_value_substitution_is_rejected() {
    let s = genuine(430);
    let mut verifier = s.verifier;
    let mut ev = s.evidence.clone();
    ev.quote.pcr_values[0] = Sha1::digest(b"attacker chosen");
    assert!(verifier.verify(&ev, s.machine.now()).is_err());
}

#[test]
fn nonce_substitution_is_rejected() {
    let s = genuine(440);
    let mut verifier = s.verifier;
    let mut ev = s.evidence.clone();
    ev.quote.external_data = Sha1::digest(b"other nonce");
    assert!(verifier.verify(&ev, s.machine.now()).is_err());
}

#[test]
fn evidence_for_one_request_fails_for_another() {
    // Two outstanding requests; evidence answering the first must not
    // settle the second even though both are valid and unexpired.
    let ca = PrivacyCa::new(512, 450);
    let mut verifier = Verifier::new(ca.public_key().clone(), 451);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(452));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let tx1 = Transaction::new(1, "shop.example", 100, "EUR", "a");
    let tx2 = Transaction::new(2, "shop.example", 999_999, "EUR", "b");
    let req1 = verifier.issue_request(tx1.clone(), machine.now());
    let _req2 = verifier.issue_request(tx2.clone(), machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx1), 453);
    let ev1 = client.confirm(&mut machine, &req1, &mut human).unwrap();
    // ev1 only verifies once, for tx1; its nonce cannot settle tx2 because
    // the token binds tx1's digest and req1's nonce.
    let verified = verifier.verify(&ev1, machine.now()).unwrap();
    assert_eq!(verified.transaction, tx1);
    assert_eq!(verifier.stats().accepted, 1);
}

#[test]
fn platform_invariant_os_cannot_touch_pcr17() {
    use utp::tpm::command as tpmcmd;
    use utp::tpm::pcr::PcrIndex;
    let mut machine = Machine::new(MachineConfig::fast_for_tests(460));
    // Extend PCR 17 from the OS: refused.
    let req = tpmcmd::req_extend(PcrIndex::drtm(), &Sha1::digest(b"fake"));
    let resp = tpmcmd::decode_response(&machine.os_tpm_execute(&req)).unwrap();
    assert_eq!(resp.return_code, tpmcmd::RC_BAD_LOCALITY);
}

#[test]
fn platform_invariant_injection_blocked_in_session() {
    use utp::platform::keyboard::KeyEvent;
    let mut machine = Machine::new(MachineConfig::fast_for_tests(461));
    machine.os_inject_key(KeyEvent::Enter).unwrap();
    let mut session = machine.skinit(b"pal").unwrap();
    // The pre-injected event was flushed.
    assert!(session.read_key().unwrap().is_none());
    session.end();
}

#[test]
fn verifier_counts_every_rejection_reason_distinctly() {
    let s = genuine(470);
    let mut verifier = s.verifier;
    // Bad signature.
    let mut ev = s.evidence.clone();
    ev.quote.signature[0] ^= 1;
    let _ = verifier.verify(&ev, s.machine.now());
    // Unknown nonce.
    let mut ev = s.evidence.clone();
    let mut token = ev.token().unwrap();
    token.nonce = Sha1::digest(b"unknown");
    ev.token_bytes = token.to_bytes();
    let _ = verifier.verify(&ev, s.machine.now());
    // A token that does not parse.
    let mut ev = s.evidence.clone();
    ev.token_bytes = vec![1, 2, 3];
    let _ = verifier.verify(&ev, s.machine.now());
    // Genuine accept, then replay.
    verifier.verify(&s.evidence, s.machine.now()).unwrap();
    let _ = verifier.verify(&s.evidence, s.machine.now());
    let stats = verifier.stats();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.rejected, 3, "{stats:?}");
    assert_eq!(stats.replayed, 1, "{stats:?}");
}

#[test]
fn expired_request_fails_even_with_genuine_evidence() {
    let mut s = genuine(480);
    s.machine.advance(std::time::Duration::from_secs(3600));
    assert_eq!(
        s.verifier.verify(&s.evidence, s.machine.now()).unwrap_err(),
        VerifyError::Expired
    );
}

#[test]
fn request_is_bound_not_just_transaction() {
    // Same transaction, two requests: evidence from request A presented
    // with request A's token but... the whole io chain keys on request
    // bytes including the nonce, so nothing can be mixed and matched.
    let ca = PrivacyCa::new(512, 490);
    let mut verifier = Verifier::new(ca.public_key().clone(), 491);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(492));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let tx = Transaction::new(1, "shop.example", 100, "EUR", "same");
    let req_a = verifier.issue_request(tx.clone(), machine.now());
    let req_b = verifier.issue_request(tx.clone(), machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 493);
    let ev_a = client.confirm(&mut machine, &req_a, &mut human).unwrap();
    // Graft A's quote onto B's token: chain breaks.
    let ev_b_forged = {
        let mut token = ev_a.token().unwrap();
        token.nonce = req_b.nonce;
        Evidence {
            token_bytes: token.to_bytes(),
            quote: ev_a.quote.clone(),
            aik_cert: ev_a.aik_cert.clone(),
        }
    };
    assert!(verifier.verify(&ev_b_forged, machine.now()).is_err());
    // The genuine one still settles.
    verifier.verify(&ev_a, machine.now()).unwrap();
}
