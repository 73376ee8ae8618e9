//! Cross-crate integration tests for the protocol extensions: amortized
//! (quote-once) mode and batch confirmation, including their interaction
//! with the base protocol on one machine.

use utp::core::amortized::{AmortizedClient, AmortizedVerifier};
use utp::core::batch::{BatchClient, BatchVerifier};
use utp::core::ca::PrivacyCa;
use utp::core::client::{Client, ClientConfig};
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::core::protocol::{ConfirmMode, Transaction};
use utp::core::verifier::Verifier;
use utp::flicker::pal::{Operator, OperatorResponse};
use utp::platform::keyboard::KeyEvent;
use utp::platform::machine::{Machine, MachineConfig};

struct ApproveAll;
impl Operator for ApproveAll {
    fn respond(&mut self, _screen: &[String]) -> OperatorResponse {
        OperatorResponse {
            events: vec![KeyEvent::Enter],
            elapsed: std::time::Duration::from_millis(1500),
        }
    }
}

#[test]
fn all_three_protocols_coexist_on_one_machine() {
    let ca = PrivacyCa::new(512, 600);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(601));
    let enrollment = ca.enroll(&mut machine);

    // Base protocol.
    let mut verifier = Verifier::new(ca.public_key().clone(), 602);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment.clone());
    let tx = Transaction::new(1, "shop.example", 100, "EUR", "base");
    let request =
        verifier.issue_request_with_mode(tx.clone(), ConfirmMode::PressEnter, machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 603);
    let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
    verifier.verify(&evidence, machine.now()).unwrap();

    // Amortized protocol on the same machine/TPM.
    let mut amortized = AmortizedVerifier::new(ca.public_key().clone(), 512, 604);
    let mut aclient = AmortizedClient::new(enrollment.clone());
    aclient.setup(&mut machine, &mut amortized).unwrap();
    let tx = Transaction::new(2, "shop.example", 200, "EUR", "amortized");
    let request = amortized.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 605);
    let (evidence, _) = aclient
        .confirm_with_report(&mut machine, &request, &mut human)
        .unwrap();
    amortized.verify(&evidence, machine.now()).unwrap();

    // Batch protocol on the same machine/TPM.
    let mut batch_verifier = BatchVerifier::new(ca.public_key().clone());
    let mut bclient = BatchClient::new(enrollment);
    let txs: Vec<Transaction> = (0..3)
        .map(|i| Transaction::new(10 + i, "shop.example", 50, "EUR", "batch"))
        .collect();
    let request = batch_verifier.issue_batch(txs.clone(), machine.now());
    let (evidence, _) = bclient
        .confirm_batch(&mut machine, &request, &mut ApproveAll)
        .unwrap();
    assert_eq!(
        batch_verifier
            .verify(&evidence, machine.now())
            .unwrap()
            .len(),
        3
    );

    // Five DRTM launches total: base, setup, amortized-confirm, batch...
    assert_eq!(machine.skinit_count(), 4);
}

#[test]
fn amortized_key_survives_interleaved_other_pals() {
    // Sessions of *other* PALs between setup and confirm must not break
    // the sealed key: PCR 17 is reset at each launch, so the amortized
    // PAL's unseal still matches its own measurement chain.
    let ca = PrivacyCa::new(512, 610);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(611));
    let enrollment = ca.enroll(&mut machine);
    let mut amortized = AmortizedVerifier::new(ca.public_key().clone(), 512, 612);
    let mut aclient = AmortizedClient::new(enrollment.clone());
    aclient.setup(&mut machine, &mut amortized).unwrap();

    // Run a base confirmation in between (a different PAL).
    let mut verifier = Verifier::new(ca.public_key().clone(), 613);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let tx = Transaction::new(1, "other.example", 5, "EUR", "");
    let request =
        verifier.issue_request_with_mode(tx.clone(), ConfirmMode::PressEnter, machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 614);
    client.confirm(&mut machine, &request, &mut human).unwrap();

    // Amortized confirm still works afterwards.
    let tx = Transaction::new(2, "shop.example", 75, "EUR", "");
    let request = amortized.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 615);
    let (evidence, _) = aclient
        .confirm_with_report(&mut machine, &request, &mut human)
        .unwrap();
    amortized.verify(&evidence, machine.now()).unwrap();
}

#[test]
fn amortized_evidence_cannot_cross_clients() {
    // Two enrolled clients with separate keys; client B's MAC key cannot
    // validate client A's token.
    let ca = PrivacyCa::new(512, 620);
    let mut amortized = AmortizedVerifier::new(ca.public_key().clone(), 512, 621);
    let mut machine_a = Machine::new(MachineConfig::fast_for_tests(622));
    let mut machine_b = Machine::new(MachineConfig::fast_for_tests(623));
    let mut client_a = AmortizedClient::new(ca.enroll(&mut machine_a));
    let mut client_b = AmortizedClient::new(ca.enroll(&mut machine_b));
    client_a.setup(&mut machine_a, &mut amortized).unwrap();
    client_b.setup(&mut machine_b, &mut amortized).unwrap();

    let tx = Transaction::new(1, "shop.example", 100, "EUR", "");
    let request = amortized.issue_request(tx.clone(), ConfirmMode::PressEnter, machine_a.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 624);
    let (mut evidence, _) = client_a
        .confirm_with_report(&mut machine_a, &request, &mut human)
        .unwrap();
    // Claim the evidence came from client B.
    let a_id = evidence.client_id;
    evidence.client_id = a_id % 2 + 1; // the *other* registered id
    assert!(amortized.verify(&evidence, machine_a.now()).is_err());
    // Restored, it verifies.
    evidence.client_id = a_id;
    amortized.verify(&evidence, machine_a.now()).unwrap();
}

#[test]
fn batch_of_one_equals_base_semantics() {
    let ca = PrivacyCa::new(512, 630);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(631));
    let enrollment = ca.enroll(&mut machine);
    let mut batch_verifier = BatchVerifier::new(ca.public_key().clone());
    let mut bclient = BatchClient::new(enrollment);
    let tx = Transaction::new(1, "solo.example", 250, "EUR", "");
    let request = batch_verifier.issue_batch(vec![tx.clone()], machine.now());
    let (evidence, _) = bclient
        .confirm_batch(&mut machine, &request, &mut ApproveAll)
        .unwrap();
    assert_eq!(
        batch_verifier.verify(&evidence, machine.now()).unwrap(),
        vec![tx.digest()]
    );
}

#[test]
fn scancode_codec_matches_event_model() {
    // The event-level keyboard model and the PS/2 wire codec agree: a
    // human's typed line decodes to exactly the events the model queues.
    use utp::platform::scancode::{encode_line, ScancodeDecoder};
    let bytes = encode_line("confirm 482913").unwrap();
    let events = ScancodeDecoder::new().decode_all(&bytes);
    let expected: Vec<KeyEvent> = "confirm 482913"
        .chars()
        .map(KeyEvent::Char)
        .chain(std::iter::once(KeyEvent::Enter))
        .collect();
    assert_eq!(events, expected);
}
