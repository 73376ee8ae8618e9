//! The bounded protocol run the explorer branches over.
//!
//! Everything expensive and adversary-independent happens once, up
//! front: CA key generation, AIK enrollment, order placement, and the
//! PAL runs that produce confirmation evidence. The prologue captures
//! an *evidence kit* per order — the genuine human-approved evidence
//! plus tampered and rogue-certificate variants — and from then on the
//! adversary only replays, reorders, withholds, delays, or crashes;
//! the victim machine and client are never touched again. That is what
//! makes state forking cheap: a branch only needs to clone the
//! provider-side state (store, ledger, audit log, journal).

use std::sync::Arc;
use std::time::Duration;

use utp_core::ca::PrivacyCa;
use utp_core::client::{Client, ClientConfig};
use utp_core::operator::{ConfirmingHuman, Intent};
use utp_core::protocol::Evidence;
use utp_core::verifier::VerifierConfig;
use utp_journal::{Journal, JournalConfig};
use utp_platform::machine::{Machine, MachineConfig};
use utp_server::provider::ServiceProvider;

use crate::action::EvidenceKind;
use crate::sut::RealSystem;

/// The account every scenario order debits.
pub const ACCOUNT: &str = "victim";

/// Opening balance of [`ACCOUNT`] in cents.
pub const OPENING_CENTS: i64 = 100_000;

/// One order's captured evidence kit.
#[derive(Debug, Clone)]
pub struct ScenarioOrder {
    /// Provider-side order id.
    pub order_id: u64,
    /// Transaction amount in cents.
    pub amount_cents: u64,
    /// The challenge nonce bound to this order.
    pub nonce: [u8; 20],
    /// Virtual time the provider issued the challenge.
    pub issued_at: Duration,
    /// Digest of the transaction the human saw and approved.
    pub tx_digest: [u8; 20],
    /// Genuine human-approved evidence.
    pub genuine: Evidence,
    /// Evidence from a PAL run the human rejected (order 0 only).
    pub rejected: Option<Evidence>,
    /// Genuine token re-encoded with a bumped attempts field: the
    /// quote's IO digest no longer covers the token bytes.
    pub tampered: Evidence,
    /// Genuine evidence with the AIK certificate swapped for one from
    /// an untrusted CA.
    pub rogue: Evidence,
}

/// A fully provisioned bounded run: provider-side state plus the
/// adversary's captured evidence. Immutable during exploration.
#[derive(Debug)]
pub struct Scenario {
    /// Captured kits, indexed by scenario order index.
    pub orders: Vec<ScenarioOrder>,
    /// Virtual time when the prologue finished (exploration starts here).
    pub base_now: Duration,
    /// The provider's nonce TTL (alphabet needs it for expiry skips).
    pub nonce_ttl: Duration,
}

impl Scenario {
    /// Builds the prologue deterministically from a seed: a journaled
    /// provider holding `k` pending orders, and the adversary's captured
    /// evidence kits for each. Returns the scenario (immutable) and the
    /// live system positioned at the branch point.
    pub fn build(seed: u64, k: usize) -> (Scenario, RealSystem) {
        let ca = PrivacyCa::new(512, seed ^ 0xCA);
        let rogue_ca = PrivacyCa::new(512, seed ^ 0x60);
        let verifier_config = VerifierConfig::default();
        let mut provider = ServiceProvider::with_config(
            ca.public_key().clone(),
            verifier_config.clone(),
            seed ^ 0x5E,
        );
        let journal = Arc::new(Journal::new(JournalConfig::fast_for_tests()));
        provider.attach_journal(Arc::clone(&journal));
        provider.open_account(ACCOUNT, OPENING_CENTS);

        let mut machine = Machine::new(MachineConfig::fast_for_tests(seed));
        let enrollment = ca.enroll(&mut machine);
        let rogue_cert = rogue_ca.enroll(&mut machine).certificate.to_bytes();
        let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);

        let mut orders = Vec::with_capacity(k);
        for i in 0..k {
            let amount = 4_200 + 1_100 * i as u64;
            let issued_at = machine.now();
            let (order_id, request) =
                provider.place_order(ACCOUNT, "shop.example", amount, "EUR", "explore", issued_at);
            let mut human = ConfirmingHuman::new(
                Intent::approving(&request.transaction),
                seed ^ (0x100 + i as u64),
            );
            let genuine = client
                .confirm(&mut machine, &request, &mut human)
                .expect("prologue confirmation succeeds");
            // A second PAL run on order 0's challenge where the human
            // walks away: same nonce, Rejected verdict.
            let rejected = if i == 0 {
                let mut refuser = ConfirmingHuman::new(Intent::rejecting(), seed ^ 0x200);
                Some(
                    client
                        .confirm(&mut machine, &request, &mut refuser)
                        .expect("prologue rejection run succeeds"),
                )
            } else {
                None
            };
            let tampered = tamper_token(&genuine);
            let rogue = Evidence {
                token_bytes: genuine.token_bytes.clone(),
                quote: genuine.quote.clone(),
                aik_cert: rogue_cert.clone(),
            };
            orders.push(ScenarioOrder {
                order_id,
                amount_cents: amount,
                nonce: *request.nonce.as_bytes(),
                issued_at,
                tx_digest: *request.transaction.digest().as_bytes(),
                genuine,
                rejected,
                tampered,
                rogue,
            });
        }
        // The branch point must be fully durable: every fork replays the
        // same WAL, and the adversary's initial rollback image is the
        // prologue itself.
        journal.sync();
        let scenario = Scenario {
            orders,
            base_now: machine.now(),
            nonce_ttl: verifier_config.nonce_ttl,
        };
        let system = RealSystem::new(
            provider,
            ca.public_key().clone(),
            verifier_config,
            JournalConfig::fast_for_tests(),
        );
        (scenario, system)
    }

    /// Number of orders in the scenario.
    pub fn order_count(&self) -> usize {
        self.orders.len()
    }

    /// The evidence variant for `(order, kind)`, or `None` when the
    /// scenario never captured it (inapplicable actions are no-ops).
    pub fn kit(&self, order: usize, kind: EvidenceKind) -> Option<&Evidence> {
        let entry = self.orders.get(order)?;
        match kind {
            EvidenceKind::Genuine => Some(&entry.genuine),
            EvidenceKind::Rejected => entry.rejected.as_ref(),
            EvidenceKind::TamperedToken => Some(&entry.tampered),
            EvidenceKind::RogueCert => Some(&entry.rogue),
        }
    }
}

/// Re-encodes the token with its attempts counter bumped. The token
/// still names the right transaction and nonce — only the quote's IO
/// digest betrays the modification, so this specifically exercises the
/// quote-chain check rather than the order-binding check.
fn tamper_token(genuine: &Evidence) -> Evidence {
    let mut token = genuine.token().expect("prologue token parses");
    token.attempts += 1;
    Evidence {
        token_bytes: token.to_bytes(),
        quote: genuine.quote.clone(),
        aik_cert: genuine.aik_cert.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prologue_is_deterministic_and_durable() {
        let (a, sys_a) = Scenario::build(11, 2);
        let (b, sys_b) = Scenario::build(11, 2);
        assert_eq!(a.order_count(), 2);
        assert_eq!(a.base_now, b.base_now);
        assert_eq!(a.orders[0].nonce, b.orders[0].nonce);
        assert_eq!(a.orders[1].tx_digest, b.orders[1].tx_digest);
        // Same prologue, same observable state.
        assert_eq!(
            crate::sut::System::view(&sys_a),
            crate::sut::System::view(&sys_b)
        );
        // Kits: order 0 has all four variants, order 1 lacks `rejected`.
        assert!(a.kit(0, EvidenceKind::Rejected).is_some());
        assert!(a.kit(1, EvidenceKind::Rejected).is_none());
        assert!(a.kit(2, EvidenceKind::Genuine).is_none());
        assert_ne!(
            a.kit(0, EvidenceKind::Genuine).map(|e| &e.token_bytes),
            a.kit(0, EvidenceKind::TamperedToken)
                .map(|e| &e.token_bytes),
        );
    }
}
