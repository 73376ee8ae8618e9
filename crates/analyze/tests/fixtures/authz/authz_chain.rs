//! A chain of five wrappers around `check_evidence`, declared
//! callers-first, so each pass in declaration order lifts the grant one
//! wrapper up. Only a granting closure run to convergence makes
//! `check_1` a source of `verified`; then `settle_chained` is clean.
use utp_core::verifier::{check_evidence, NonceLedger};

pub fn settle_chained(
    provider: &ServiceProvider,
    store: &mut Store,
    ledger: &mut NonceLedger,
    order_id: u64,
    evidence: &Evidence,
    now: u64,
) -> Result<(), VerifyError> {
    provider.check_order_binding(order_id, evidence)?;
    check_1(evidence)?;
    ledger.settle(now)?;
    store.try_settle(order_id);
    Ok(())
}

fn check_1(evidence: &Evidence) -> Result<(), VerifyError> {
    check_2(evidence)
}

fn check_2(evidence: &Evidence) -> Result<(), VerifyError> {
    check_3(evidence)
}

fn check_3(evidence: &Evidence) -> Result<(), VerifyError> {
    check_4(evidence)
}

fn check_4(evidence: &Evidence) -> Result<(), VerifyError> {
    check_5(evidence)
}

fn check_5(evidence: &Evidence) -> Result<(), VerifyError> {
    check_evidence(evidence)
}
