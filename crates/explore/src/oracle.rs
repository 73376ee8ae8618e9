//! The invariant oracle: the paper's server-side guarantees as
//! executable checks over [`StateView`]s.
//!
//! Seven invariants, checked in a fixed order after every action:
//!
//! 1. **no-unauthorized-settle** — every confirmed order's transaction
//!    digest is one a human actually approved in a PAL run. The
//!    adversary holds tampered tokens, rogue certificates, and other
//!    orders' evidence; none of it may mint a confirmation for a
//!    transaction the human never saw.
//! 2. **balance-conservation** — each account's balance equals its
//!    opening balance minus the sum of its confirmed orders, and every
//!    confirmed order's challenge nonce is in the consumed set
//!    (at-most-once settlement per nonce: a replayed or rolled-back
//!    nonce can never pay twice).
//! 3. **audit-append-only** — across non-crash actions the audit log
//!    only grows by appending; across a crash it may shrink only to a
//!    prefix of what it was (recovery cannot reorder or rewrite
//!    history, only lose an un-synced tail).
//! 4. **recovery-matches-durable** — the live state equals the pure
//!    replay of its own durable bytes. Because the provider journals
//!    and syncs before acknowledging any decision, this can be checked
//!    after *every* action, not just crashes: recovery never invents
//!    history and never forgets an acknowledged decision.
//! 5. **no-settle-after-expiry** — no order becomes confirmed on a step
//!    whose virtual time is more than the nonce TTL past the moment its
//!    challenge was issued (freshness).
//! 6. **no-unissued-settle** — every consumed nonce is one the scenario
//!    issued: the provider never settles a challenge it did not send.
//! 7. **counters-match** — across every non-crash action, the rise in
//!    the settlement core's `accepted` total equals the number of orders
//!    that newly became confirmed. Recovery starts the counters again,
//!    so crash actions only reset the baseline.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use crate::scenario::Scenario;
use crate::sut::{AuditView, StateView};

/// A violated invariant with enough detail to debug the counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name (`no-unauthorized-settle`,
    /// `balance-conservation`, `audit-append-only`,
    /// `recovery-matches-durable`, `no-settle-after-expiry`,
    /// `no-unissued-settle`, `counters-match`).
    pub invariant: &'static str,
    /// Human-readable description of the failure.
    pub detail: String,
}

/// Number of invariants [`Oracle::check`] evaluates per call.
pub const INVARIANT_COUNT: u64 = 7;

/// Per-branch invariant state. Cloned alongside the system on every
/// fork because the audit-prefix truth, the confirmed set and the
/// counter baseline evolve per timeline.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Opening balance per account, captured at the branch point.
    opening: Vec<(String, i64)>,
    /// Transaction digests a human approved during the prologue.
    approved: HashSet<[u8; 20]>,
    /// order id → (challenge nonce, virtual time it was issued) from the
    /// prologue.
    orders: HashMap<u64, ([u8; 20], Duration)>,
    /// How long an issued nonce stays settleable.
    nonce_ttl: Duration,
    /// The audit history this branch has already accepted as truth.
    truth_audit: Vec<AuditView>,
    /// Orders confirmed in the last accepted view.
    confirmed: HashSet<u64>,
    /// The settlement core's `accepted` total in the last accepted view.
    accepted: u64,
}

impl Oracle {
    /// Builds the oracle from the scenario and the branch-point view.
    pub fn new(scenario: &Scenario, initial: &StateView) -> Self {
        Oracle {
            opening: initial.accounts.clone(),
            approved: scenario.orders.iter().map(|o| o.tx_digest).collect(),
            orders: scenario
                .orders
                .iter()
                .map(|o| (o.order_id, (o.nonce, o.issued_at)))
                .collect(),
            nonce_ttl: scenario.nonce_ttl,
            truth_audit: initial.audit.clone(),
            confirmed: confirmed_ids(initial),
            accepted: initial.accepted,
        }
    }

    /// Checks all seven invariants against `view`, the state an action
    /// left at virtual time `now`; `crashed` says the action was a
    /// crash and recovery, which selects the audit-prefix direction and
    /// restarts the counters.
    pub fn check(
        &mut self,
        view: &StateView,
        crashed: bool,
        now: Duration,
    ) -> Result<(), Violation> {
        self.check_unauthorized_settle(view)?;
        self.check_balance_conservation(view)?;
        self.check_audit_append_only(view, crashed)?;
        self.check_recovery_matches_durable(view)?;
        self.check_settle_after_expiry(view, now)?;
        self.check_unissued_settle(view)?;
        self.check_counters_match(view, crashed)?;
        self.confirmed = confirmed_ids(view);
        self.accepted = view.accepted;
        Ok(())
    }

    fn check_unauthorized_settle(&self, view: &StateView) -> Result<(), Violation> {
        for order in &view.orders {
            if order.status == "Confirmed" && !self.approved.contains(&order.tx_digest) {
                return Err(Violation {
                    invariant: "no-unauthorized-settle",
                    detail: format!(
                        "order {} confirmed but its transaction digest was never human-approved",
                        order.id
                    ),
                });
            }
        }
        Ok(())
    }

    fn check_balance_conservation(&self, view: &StateView) -> Result<(), Violation> {
        let used: HashSet<&[u8; 20]> = view.used.iter().collect();
        let mut debits: HashMap<&str, i64> = HashMap::new();
        for order in &view.orders {
            if order.status != "Confirmed" {
                continue;
            }
            *debits.entry(order.account.as_str()).or_insert(0) += order.amount_cents as i64;
            if let Some((nonce, _)) = self.orders.get(&order.id) {
                if !used.contains(nonce) {
                    return Err(Violation {
                        invariant: "balance-conservation",
                        detail: format!(
                            "order {} confirmed but its challenge nonce is not consumed",
                            order.id
                        ),
                    });
                }
            }
        }
        for (name, opening) in &self.opening {
            let debit = debits.get(name.as_str()).copied().unwrap_or(0);
            let expected = opening - debit;
            let actual = view
                .accounts
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, b)| *b);
            if actual != Some(expected) {
                return Err(Violation {
                    invariant: "balance-conservation",
                    detail: format!(
                        "account {name}: balance {actual:?} != opening {opening} - confirmed debits {debit}"
                    ),
                });
            }
        }
        Ok(())
    }

    fn check_audit_append_only(
        &mut self,
        view: &StateView,
        crashed: bool,
    ) -> Result<(), Violation> {
        let (prefix, whole, direction) = if crashed {
            // A crash may lose an un-synced tail, never synced history.
            (
                &view.audit,
                &self.truth_audit,
                "crash rewrote audit history",
            )
        } else {
            (
                &self.truth_audit,
                &view.audit,
                "audit log shrank or was rewritten without a crash",
            )
        };
        let is_prefix = prefix.len() <= whole.len() && whole[..prefix.len()] == prefix[..];
        if !is_prefix {
            return Err(Violation {
                invariant: "audit-append-only",
                detail: format!(
                    "{direction} (had {} entries, now {})",
                    self.truth_audit.len(),
                    view.audit.len()
                ),
            });
        }
        self.truth_audit = view.audit.clone();
        Ok(())
    }

    fn check_recovery_matches_durable(&self, view: &StateView) -> Result<(), Violation> {
        let replayed = view.replay_durable();
        if let Some(field) = view.semantic_diff(&replayed) {
            return Err(Violation {
                invariant: "recovery-matches-durable",
                detail: format!(
                    "live state diverges from replay of its own durable bytes in `{field}`"
                ),
            });
        }
        Ok(())
    }

    /// Orders confirmed in `view` that the last accepted view had not,
    /// by id.
    fn newly_confirmed<'v>(&'v self, view: &'v StateView) -> impl Iterator<Item = u64> + 'v {
        view.orders
            .iter()
            .filter(|o| o.status == "Confirmed" && !self.confirmed.contains(&o.id))
            .map(|o| o.id)
    }

    fn check_settle_after_expiry(&self, view: &StateView, now: Duration) -> Result<(), Violation> {
        for id in self.newly_confirmed(view) {
            let Some((_, issued_at)) = self.orders.get(&id) else {
                continue;
            };
            let age = now.saturating_sub(*issued_at);
            if age > self.nonce_ttl {
                return Err(Violation {
                    invariant: "no-settle-after-expiry",
                    detail: format!(
                        "order {id} confirmed {age:?} after its challenge was issued (ttl {:?})",
                        self.nonce_ttl
                    ),
                });
            }
        }
        Ok(())
    }

    fn check_unissued_settle(&self, view: &StateView) -> Result<(), Violation> {
        for nonce in &view.used {
            if !self.orders.values().any(|(issued, _)| issued == nonce) {
                return Err(Violation {
                    invariant: "no-unissued-settle",
                    detail: format!(
                        "consumed nonce {:02x}{:02x}.. was never issued",
                        nonce[0], nonce[1]
                    ),
                });
            }
        }
        Ok(())
    }

    fn check_counters_match(&self, view: &StateView, crashed: bool) -> Result<(), Violation> {
        if crashed {
            return Ok(());
        }
        let newly = self.newly_confirmed(view).count() as u64;
        if view.accepted.checked_sub(self.accepted) != Some(newly) {
            return Err(Violation {
                invariant: "counters-match",
                detail: format!(
                    "accepted went {} -> {} while {newly} order(s) became confirmed",
                    self.accepted, view.accepted
                ),
            });
        }
        Ok(())
    }
}

/// Ids of the orders `view` shows confirmed.
fn confirmed_ids(view: &StateView) -> HashSet<u64> {
    view.orders
        .iter()
        .filter(|o| o.status == "Confirmed")
        .map(|o| o.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::OrderView;

    const NONCE: [u8; 20] = [7; 20];
    const TTL: Duration = Duration::from_secs(300);

    /// An oracle over one order (id 1, challenge `NONCE` issued at 0)
    /// whose last accepted view had it pending and nothing accepted.
    fn oracle() -> Oracle {
        Oracle {
            opening: Vec::new(),
            approved: HashSet::new(),
            orders: HashMap::from([(1, (NONCE, Duration::ZERO))]),
            nonce_ttl: TTL,
            truth_audit: Vec::new(),
            confirmed: HashSet::new(),
            accepted: 0,
        }
    }

    /// Order 1 confirmed, `used` consumed, `accepted` counted.
    fn confirmed(used: [u8; 20], accepted: u64) -> StateView {
        StateView {
            accounts: Vec::new(),
            orders: vec![OrderView {
                id: 1,
                account: "victim".to_string(),
                amount_cents: 100,
                tx_digest: [0; 20],
                status: "Confirmed".to_string(),
            }],
            pending: Vec::new(),
            used: vec![used],
            audit: Vec::new(),
            durable_snapshot: Vec::new(),
            durable_log: Vec::new(),
            accepted,
        }
    }

    #[test]
    fn settle_at_the_ttl_passes_and_past_it_violates() {
        let view = confirmed(NONCE, 1);
        assert_eq!(oracle().check_settle_after_expiry(&view, TTL), Ok(()));
        let late = TTL + Duration::from_millis(1);
        let err = oracle().check_settle_after_expiry(&view, late).unwrap_err();
        assert_eq!(err.invariant, "no-settle-after-expiry");
    }

    #[test]
    fn issued_nonce_passes_and_unissued_violates() {
        assert_eq!(oracle().check_unissued_settle(&confirmed(NONCE, 1)), Ok(()));
        let err = oracle()
            .check_unissued_settle(&confirmed([9; 20], 1))
            .unwrap_err();
        assert_eq!(err.invariant, "no-unissued-settle");
    }

    #[test]
    fn counter_rise_must_equal_new_confirmations() {
        let oracle = oracle();
        assert_eq!(
            oracle.check_counters_match(&confirmed(NONCE, 1), false),
            Ok(())
        );
        let err = oracle
            .check_counters_match(&confirmed(NONCE, 2), false)
            .unwrap_err();
        assert_eq!(err.invariant, "counters-match");
        // Recovery starts the counters again, so a crash is not checked.
        assert_eq!(
            oracle.check_counters_match(&confirmed(NONCE, 0), true),
            Ok(())
        );
    }
}
