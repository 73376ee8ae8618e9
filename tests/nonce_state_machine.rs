//! Exhaustive state-machine exploration of the verifier's nonce
//! lifecycle — a miniature model check: for every sequence of operations
//! up to a bounded depth, the verifier must uphold its invariants:
//!
//! 1. a nonce verifies successfully **at most once** (no double settle);
//! 2. a nonce never verifies after expiry;
//! 3. an unissued nonce never verifies;
//! 4. accepted count == number of distinct nonces that reached a
//!    successful verify.
//!
//! `Verifier` is a one-shard use of the settlement core the provider
//! runs (`Settler`), so the search exercises the production settle path
//! and invariant 4 reads that core's counters.

use std::time::Duration;
use utp::core::ca::PrivacyCa;
use utp::core::client::{Client, ClientConfig};
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::core::protocol::{ConfirmMode, Evidence, Transaction};
use utp::core::verifier::Verifier;
use utp::platform::machine::{Machine, MachineConfig};

/// The operations the model explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    /// Issue a new request and immediately confirm it (producing evidence
    /// held for later submission).
    IssueAndConfirm,
    /// Submit the oldest unsubmitted evidence.
    SubmitNext,
    /// Re-submit the most recently submitted evidence (replay).
    ReplayLast,
    /// Advance time beyond the nonce TTL.
    Expire,
}

const OPS: [Op; 4] = [
    Op::IssueAndConfirm,
    Op::SubmitNext,
    Op::ReplayLast,
    Op::Expire,
];

struct ModelState {
    verifier: Verifier,
    machine: Machine,
    client: Client,
    queue: Vec<Evidence>,
    submitted: Vec<Evidence>,
    tx_counter: u64,
    successes: u64,
}

impl ModelState {
    fn new(seed: u64) -> Self {
        let ca = PrivacyCa::new(512, seed);
        let verifier = Verifier::new(ca.public_key().clone(), seed + 1);
        let mut machine = Machine::new(MachineConfig::fast_for_tests(seed + 2));
        let enrollment = ca.enroll(&mut machine);
        let client = Client::new(ClientConfig::fast_for_tests(), enrollment);
        ModelState {
            verifier,
            machine,
            client,
            queue: Vec::new(),
            submitted: Vec::new(),
            tx_counter: 0,
            successes: 0,
        }
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::IssueAndConfirm => {
                self.tx_counter += 1;
                let tx = Transaction::new(self.tx_counter, "shop.example", 100, "EUR", "");
                let request = self.verifier.issue_request_with_mode(
                    tx.clone(),
                    ConfirmMode::PressEnter,
                    self.machine.now(),
                );
                let mut human = ConfirmingHuman::new(Intent::approving(&tx), self.tx_counter);
                let evidence = self
                    .client
                    .confirm(&mut self.machine, &request, &mut human)
                    .expect("confirmation runs");
                self.queue.push(evidence);
            }
            Op::SubmitNext => {
                if self.queue.is_empty() {
                    return;
                }
                let evidence = self.queue.remove(0);
                if self.verifier.verify(&evidence, self.machine.now()).is_ok() {
                    self.successes += 1;
                }
                self.submitted.push(evidence);
            }
            Op::ReplayLast => {
                if let Some(evidence) = self.submitted.last().cloned() {
                    // Invariant 1: replay must never succeed.
                    assert!(
                        self.verifier.verify(&evidence, self.machine.now()).is_err(),
                        "replay accepted"
                    );
                }
            }
            Op::Expire => {
                self.machine.advance(Duration::from_secs(301));
                // Invariant 2: everything queued is now expired.
                for evidence in std::mem::take(&mut self.queue) {
                    assert!(
                        self.verifier.verify(&evidence, self.machine.now()).is_err(),
                        "expired nonce accepted"
                    );
                    self.submitted.push(evidence);
                }
            }
        }
        // Invariant 4 (continuously): the settlement core's counters
        // agree with the model.
        assert_eq!(self.verifier.stats().accepted, self.successes);
    }
}

/// Enumerates every op sequence of length `depth` (4^depth worlds).
fn explore(depth: usize) {
    let sequences: u64 = (OPS.len() as u64).pow(depth as u32);
    for index in 0..sequences {
        let mut state = ModelState::new(10_000 + index);
        let mut rest = index;
        for _ in 0..depth {
            let op = OPS[(rest % OPS.len() as u64) as usize];
            rest /= OPS.len() as u64;
            state.apply(op);
        }
    }
}

#[test]
fn nonce_lifecycle_depth_3_exhaustive() {
    explore(3); // 64 worlds
}

#[test]
fn nonce_lifecycle_depth_4_exhaustive() {
    explore(4); // 256 worlds
}

#[test]
fn unissued_nonce_never_verifies() {
    // Invariant 3 directly: evidence answering a *different* verifier's
    // request is UnknownNonce here.
    let mut a = ModelState::new(99_000);
    let mut b = ModelState::new(99_100);
    a.apply(Op::IssueAndConfirm);
    let foreign = a.queue.pop().unwrap();
    assert!(b.verifier.verify(&foreign, b.machine.now()).is_err());
}
