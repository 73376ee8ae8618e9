//! The verifier's nonce lifecycle, checked by the one model checker.
//!
//! Freshness and single use are trace properties: over every schedule
//! of deliveries, replays, cross-deliveries, clock advances past the
//! nonce TTL and crashes, the provider must keep
//!
//! 1. a nonce settling at most once (`balance-conservation`'s
//!    consumed-nonce check);
//! 2. no nonce settling after expiry (`no-settle-after-expiry`);
//! 3. no unissued nonce settling (`no-unissued-settle`);
//! 4. the settlement core's `accepted` total in step with the orders
//!    that became `Confirmed` (`counters-match`).
//!
//! `utp-explore` checks all four after every action on the real
//! journaled provider stack; this file runs it exhaustively over a
//! one-order scenario to depth 3, and checks invariant 3's direct case
//! on the serial `Verifier`.

use utp::core::ca::PrivacyCa;
use utp::core::client::{Client, ClientConfig};
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::core::protocol::Transaction;
use utp::core::verifier::{Verifier, VerifyError};
use utp::explore::{default_alphabet, explore, ExploreConfig, Scenario, INVARIANT_COUNT};
use utp::platform::machine::{Machine, MachineConfig};

#[test]
fn nonce_lifecycle_depth_3_exhaustive() {
    let (scenario, root) = Scenario::build(10_000, 1);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let config = ExploreConfig {
        max_depth: 3,
        ..ExploreConfig::smoke()
    };
    let report = explore(&scenario, &root, &alphabet, &config);
    assert!(
        report.violations.is_empty(),
        "nonce lifecycle violated {:?}\nschedule:\n{}",
        report.violations[0].violation,
        utp::explore::render_schedule(&report.violations[0].schedule)
    );
    assert!(!report.budget_exhausted, "depth 3 must drain the frontier");
    assert!(report.explored > 100, "explored only {}", report.explored);
    assert_eq!(report.deepest, 3);
    assert!(report.checks >= report.explored * INVARIANT_COUNT);
}

#[test]
fn unissued_nonce_never_verifies() {
    // Invariant 3 directly: evidence answering a *different* verifier's
    // request is UnknownNonce here.
    let ca = PrivacyCa::new(512, 99_000);
    let mut issuer = Verifier::new(ca.public_key().clone(), 99_001);
    let mut verifier = Verifier::new(ca.public_key().clone(), 99_101);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(99_002));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);
    let tx = Transaction::new(1, "shop.example", 100, "EUR", "");
    let request = issuer.issue_request(tx.clone(), machine.now());
    let mut human = ConfirmingHuman::new(Intent::approving(&tx), 1);
    let foreign = client
        .confirm(&mut machine, &request, &mut human)
        .expect("confirmation runs");
    assert_eq!(
        verifier.verify(&foreign, machine.now()).unwrap_err(),
        VerifyError::UnknownNonce
    );
    assert_eq!(verifier.stats().accepted, 0);
    assert!(issuer.verify(&foreign, machine.now()).is_ok());
}
