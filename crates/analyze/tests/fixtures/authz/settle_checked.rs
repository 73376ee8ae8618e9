//! Clean twin of `settle_unchecked.rs`: the settle wrapper runs the
//! evidence check before it consumes the nonce, so the granting closure
//! derives `verified` and `nonce-settled` for it, and both arms of the
//! dispatch (worker pool or inline) establish them before the store
//! settles.
use utp_core::verifier::{check_evidence, NonceLedger};

pub fn settle_checked(ledger: &mut NonceLedger, evidence: &Evidence, now: u64) -> Result<u64, VerifyError> {
    check_evidence(evidence)?;
    ledger.settle(now)
}

pub fn submit_checked(
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
        None => settle_checked(ledger, evidence, now),
    };
    outcome?;
    store.try_settle(order_id);
    Ok(Receipt {
        order_id,
        attempts: 1,
    })
}
