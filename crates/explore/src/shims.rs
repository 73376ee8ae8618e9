//! Deliberately buggy providers — the oracle's self-check.
//!
//! A model checker that never fires is indistinguishable from one that
//! checks nothing. [`Bug::ALL`] lists every seeded provider bug once,
//! with the invariant that must catch it; a [`Shim`] wraps the real
//! stack and injects one of them; and [`catch`] explores a shim, shrinks
//! its first counterexample and renders it. The explorer tests (against
//! golden fixtures), `explore_smoke` and E12 part B all run the list
//! through [`catch`].

use std::time::Duration;

use utp_core::ca::AikCertificate;
use utp_core::protocol::Evidence;
use utp_core::verifier::{Settler, VerifyError};
use utp_journal::RecoveryReport;
use utp_server::store::OrderStatus;

use crate::action::{default_alphabet, CrashKind, Schedule};
use crate::explorer::{explore, Counterexample, ExploreConfig};
use crate::scenario::Scenario;
use crate::shrink::{render_counterexample, shrink};
use crate::sut::{Fork, RealSystem, StateView, System};

/// A seeded provider bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bug {
    /// Every successful settlement debits the account a second time —
    /// the classic lost-idempotency bug.
    DoubleSettle,
    /// Recovery "forgets" the most recent settlement: the order comes
    /// back pending and the debit is refunded, even though the WAL
    /// acknowledged it. Balances stay conserved — only the
    /// durable-consistency invariant can catch this one.
    ForgottenOrder,
    /// The audit log caps itself by discarding its *oldest* entry once a
    /// second decision lands — history rewritten in place.
    AuditTruncation,
    /// A nonce consumed on one shard is settled again when its replay is
    /// routed through another shard, which never saw it consumed.
    CrossShardDoubleSettle,
}

impl Bug {
    /// Every seeded bug, in the order the self-check reports them.
    pub const ALL: [Bug; 4] = [
        Bug::DoubleSettle,
        Bug::ForgottenOrder,
        Bug::AuditTruncation,
        Bug::CrossShardDoubleSettle,
    ];

    /// Stable name; golden fixtures are
    /// `tests/fixtures/<name with '_' for '-'>.counterexample`.
    pub fn name(self) -> &'static str {
        match self {
            Bug::DoubleSettle => "double-settle",
            Bug::ForgottenOrder => "forgotten-order",
            Bug::AuditTruncation => "audit-truncation",
            Bug::CrossShardDoubleSettle => "cross-shard-double-settle",
        }
    }

    /// The oracle invariant that must catch the bug first.
    pub fn invariant(self) -> &'static str {
        match self {
            Bug::DoubleSettle | Bug::CrossShardDoubleSettle => "balance-conservation",
            Bug::ForgottenOrder => "recovery-matches-durable",
            Bug::AuditTruncation => "audit-append-only",
        }
    }
}

/// The real stack with one [`Bug`] injected.
#[derive(Debug)]
pub struct Shim {
    bug: Bug,
    inner: RealSystem,
    /// [`Bug::CrossShardDoubleSettle`]'s other shard: a copy of the
    /// settlement shards taken when the shim was built, which never
    /// learns what the provider's own shards consume.
    replica: Option<Settler>,
}

impl Shim {
    /// Wraps the real stack.
    pub fn new(bug: Bug, inner: RealSystem) -> Self {
        let replica = (bug == Bug::CrossShardDoubleSettle)
            .then(|| inner.provider().settlement().settler().fork());
        Shim {
            bug,
            inner,
            replica,
        }
    }
}

impl System for Shim {
    fn submit(
        &mut self,
        order_id: u64,
        evidence: &Evidence,
        now: Duration,
    ) -> Result<(), VerifyError> {
        let result = self.inner.submit(order_id, evidence, now);
        match (self.bug, &self.replica, result) {
            (Bug::DoubleSettle, _, Ok(())) => {
                // Bug: settle runs a second time. `try_settle` debits
                // unconditionally, so the account pays twice.
                self.inner.provider_mut().store_mut().try_settle(order_id);
                Ok(())
            }
            (_, Some(replica), Err(VerifyError::Replayed)) => {
                // Bug: the replay is routed to the other shard, which
                // still holds the nonce pending and settles it again.
                let ca_key = replica.ca_key();
                replica.settle_evidence(evidence, now, |cert| {
                    AikCertificate::from_bytes(cert)?.validate(ca_key)
                })?;
                self.inner.provider_mut().store_mut().try_settle(order_id);
                Ok(())
            }
            (_, _, result) => result,
        }
    }

    fn crash_recover(&mut self, kind: &CrashKind) -> RecoveryReport {
        let report = self.inner.crash_recover(kind);
        if self.bug != Bug::ForgottenOrder {
            return report;
        }
        // Bug: after replaying the WAL, the highest-id confirmed order
        // is quietly reset to pending and its debit refunded.
        let store = self.inner.provider_mut().store_mut();
        let forgotten = store
            .orders()
            .filter(|(_, o)| o.status == OrderStatus::Confirmed)
            .map(|(id, o)| (*id, o.clone()))
            .max_by_key(|(id, _)| *id);
        if let Some((id, mut order)) = forgotten {
            let refund = order.transaction.amount_cents as i64;
            let balance = store
                .account(&order.account)
                .map(|a| a.balance_cents)
                .unwrap_or(0);
            order.status = OrderStatus::Pending;
            let account = order.account.clone();
            store.restore_order(id, order);
            store.open_account(account, balance + refund);
        }
        report
    }

    fn checkpoint(&mut self) {
        self.inner.checkpoint();
    }

    fn view(&self) -> StateView {
        let mut view = self.inner.view();
        // Bug: the observable audit history drops its oldest entry as
        // soon as there is more than one.
        if self.bug == Bug::AuditTruncation && view.audit.len() >= 2 {
            view.audit.remove(0);
        }
        view
    }
}

impl Fork for Shim {
    fn fork(&self) -> Self {
        Shim {
            bug: self.bug,
            inner: self.inner.fork(),
            replica: self.replica.as_ref().map(Settler::fork),
        }
    }
}

/// A seeded bug the explorer caught.
#[derive(Debug, Clone)]
pub struct Caught {
    /// The first counterexample, as the search found it.
    pub found: Counterexample,
    /// Its ddmin-shrunk schedule.
    pub minimal: Schedule,
    /// The shrunk counterexample rendered the way golden fixtures pin
    /// it (see [`render_counterexample`]).
    pub rendered: String,
}

/// The oracle's self-check for one seeded bug: explores a [`Shim`]
/// around a fresh `(seed, orders)` scenario within `config`'s bounds
/// until the first violation, requires [`Bug::invariant`] to be the one
/// that fired, then shrinks and renders the counterexample.
///
/// # Errors
///
/// A description when the search misses the bug, another invariant
/// fires first, or the shrunk counterexample renders differently on a
/// second replay.
pub fn catch(bug: Bug, seed: u64, orders: usize, config: &ExploreConfig) -> Result<Caught, String> {
    let name = bug.name();
    let invariant = bug.invariant();
    let (scenario, root) = Scenario::build(seed, orders);
    let shim = Shim::new(bug, root);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let config = ExploreConfig {
        stop_at_first_violation: true,
        ..config.clone()
    };
    let found = explore(&scenario, &shim, &alphabet, &config)
        .violations
        .into_iter()
        .next()
        .ok_or_else(|| format!("explorer missed the seeded {name} bug"))?;
    if found.violation.invariant != invariant {
        return Err(format!(
            "{name}: expected invariant {invariant}, explorer reported {}",
            found.violation.invariant
        ));
    }
    let minimal = shrink(&scenario, &shim, &found.schedule, invariant);
    let rendered = render_counterexample(&scenario, &shim, &minimal, invariant);
    if rendered != render_counterexample(&scenario, &shim, &minimal, invariant) {
        return Err(format!(
            "{name}: counterexample replay is not deterministic"
        ));
    }
    Ok(Caught {
        found,
        minimal,
        rendered,
    })
}
