//! Clean twin of `provider_unbound.rs`: the evidence-order binding
//! pre-check runs unconditionally before dispatch, so `order-bound`
//! dominates every path to the settlement sinks.
use utp_core::verifier::Verifier;

pub fn submit_bound(
    provider: &ServiceProvider,
    store: &mut Store,
    verifier: &Verifier,
    order_id: u64,
    evidence: &Evidence,
    now: Duration,
) -> Result<Receipt, VerifyError> {
    provider.check_order_binding(order_id, evidence)?;
    let verified = verifier.verify(evidence, now)?;
    store.try_settle(order_id);
    Ok(Receipt {
        order_id,
        attempts: verified.attempts,
    })
}
