//! Revert-fixture for the settlement path's evidence check: the
//! `check_evidence` call deleted from the settle wrapper, as in a
//! `Settler::settle_evidence` that only consumes the nonce. The worker
//! arm still grants `verified`, but the inline arm does not, so the
//! store settle and the `Receipt` after the dispatch must deny for the
//! missing `verified` capability.
use utp_core::verifier::NonceLedger;

pub fn settle_unchecked(ledger: &mut NonceLedger, evidence: &Evidence, now: u64) -> Result<u64, VerifyError> {
    ledger.settle(now)
}

pub fn submit_unchecked(
    provider: &ServiceProvider,
    service: Option<&VerifierService>,
    store: &mut Store,
    ledger: &mut NonceLedger,
    order_id: u64,
    evidence: &Evidence,
    now: u64,
) -> Result<Receipt, VerifyError> {
    provider.check_order_binding(order_id, evidence)?;
    let outcome = match service {
        Some(service) => service.submit_evidence_for_order(order_id, evidence, now),
        None => settle_unchecked(ledger, evidence, now),
    };
    outcome?;
    store.try_settle(order_id);
    Ok(Receipt {
        order_id,
        attempts: 1,
    })
}
