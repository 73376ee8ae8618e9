//! Online banking with the protocol extensions: one attested key-setup
//! session, then fast amortized (quote-free) confirmations, plus a batch
//! session settling several standing orders at once.
//!
//! Run with: `cargo run --example online_banking`

use utp::core::amortized::{AmortizedClient, AmortizedVerifier};
use utp::core::batch::{BatchClient, BatchVerifier};
use utp::core::ca::PrivacyCa;
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::core::protocol::{ConfirmMode, Transaction};
use utp::flicker::pal::{Operator, OperatorResponse};
use utp::platform::keyboard::KeyEvent;
use utp::platform::machine::{Machine, MachineConfig};
use utp::tpm::VendorProfile;

fn main() {
    println!("== Online banking: amortized + batch confirmations ==\n");
    let ca = PrivacyCa::new(1024, 41);
    let mut machine = Machine::new(MachineConfig::realistic(VendorProfile::Broadcom, 42));

    // --- One-time enrollment + key setup (the only quote of the day) -------
    let mut amortized = AmortizedVerifier::new(ca.public_key().clone(), 1024, 43);
    let enrollment = ca.enroll(&mut machine);
    let mut client = AmortizedClient::new(enrollment.clone());
    let setup = client
        .setup(&mut machine, &mut amortized)
        .expect("setup session runs");
    println!(
        "[bank] key-setup session attested with one quote ({:.0} ms machine time)",
        setup.timings.machine_only().as_secs_f64() * 1e3
    );

    // --- Three wire transfers, each MAC-authenticated, no quotes ----------
    for (payee, cents) in [
        ("landlord.example", 95_000u64),
        ("energy.example", 8_420),
        ("isp.example", 3_999),
    ] {
        let tx = Transaction::new(cents, payee, cents, "EUR", "monthly");
        let request = amortized.issue_request(tx.clone(), ConfirmMode::PressEnter, machine.now());
        let mut human = ConfirmingHuman::new(Intent::approving(&tx), cents);
        let (evidence, report) = client
            .confirm_with_report(&mut machine, &request, &mut human)
            .expect("amortized session runs");
        amortized
            .verify(&evidence, machine.now())
            .expect("MAC verifies");
        println!(
            "[bank] transfer {} to {} confirmed — {:.0} ms machine time, no quote",
            tx.display_amount(),
            payee,
            report.timings.machine_only().as_secs_f64() * 1e3
        );
    }

    // --- A batch of standing orders in one session -------------------------
    println!("\n-- quarterly standing orders, one session, one quote --");
    let mut batch_verifier = BatchVerifier::new(ca.public_key().clone());
    let mut batch_client = BatchClient::new(enrollment);
    let orders: Vec<Transaction> = [
        ("charity.example", 2_000u64),
        ("gym.example", 4_500),
        ("paper.example", 5_900),
        ("insurance.example", 21_750),
    ]
    .iter()
    .enumerate()
    .map(|(i, (payee, cents))| Transaction::new(i as u64, *payee, *cents, "EUR", "standing order"))
    .collect();
    let request = batch_verifier.issue_batch(orders.clone(), machine.now());

    struct ApproveAll;
    impl Operator for ApproveAll {
        fn respond(&mut self, _screen: &[String]) -> OperatorResponse {
            OperatorResponse {
                events: vec![KeyEvent::Enter],
                elapsed: std::time::Duration::from_secs(2),
            }
        }
    }
    let (evidence, report) = batch_client
        .confirm_batch(&mut machine, &request, &mut ApproveAll)
        .expect("batch session runs");
    let confirmed = batch_verifier
        .verify(&evidence, machine.now())
        .expect("batch verifies");
    println!(
        "[bank] {} of {} standing orders confirmed in one session",
        confirmed.len(),
        orders.len()
    );
    println!(
        "[bank] per-order machine time: {:.0} ms (vs ~{:.0} ms unbatched on this chip)",
        report.timings.machine_only().as_secs_f64() * 1e3 / orders.len() as f64,
        report.timings.machine_only().as_secs_f64() * 1e3
    );
    assert_eq!(confirmed.len(), orders.len());
}
