//! Revert-fixture for PR 7's first provider bug: the evidence-order
//! binding pre-check removed. Evidence is cryptographically verified
//! but never bound to the order it settles, so evidence confirming
//! order A delivered against order B would debit B on A's approval.
//! The authorization-flow pass must deny both settlement sinks for the
//! missing `order-bound` capability.
use utp_core::verifier::Verifier;
pub fn submit_unbound(
    store: &mut Store,
    verifier: &Verifier,
    order_id: u64,
    evidence: &Evidence,
    now: Duration,
) -> Result<Receipt, VerifyError> {
    let verified = verifier.verify(evidence, now)?;
    store.try_settle(order_id);
    Ok(Receipt {
        order_id,
        attempts: verified.attempts,
    })
}
