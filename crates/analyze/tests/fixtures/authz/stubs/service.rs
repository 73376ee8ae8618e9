//! Fed as `crates/server/src/service.rs`: the worker-pool submission
//! whose grant the authz spec declares, because it crosses the worker
//! channel.
pub struct VerifierService;

impl VerifierService {
    pub fn submit_evidence_for_order(&self, order: u64, evidence: &Evidence, now: u64) -> Result<u64, VerifyError> {
        Ok(order)
    }
}
