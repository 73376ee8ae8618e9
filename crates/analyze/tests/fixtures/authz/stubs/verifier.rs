//! Fed as `crates/core/src/verifier.rs`: the verifier primitives the
//! authz spec names, reduced to their signatures, and the wrappers over
//! them — `check_evidence` ends in the quote-chain check, `verify` runs
//! the evidence check and the nonce settle — so the granting closure,
//! not the spec, makes them sources.
pub fn check_evidence(evidence: &Evidence) -> Result<(), VerifyError> {
    check_quote_chain(evidence)
}

pub fn check_quote_chain(evidence: &Evidence) -> Result<(), VerifyError> {
    evidence.check()
}

pub struct NonceLedger;

impl NonceLedger {
    pub fn settle(&mut self, now: u64) -> Result<u64, VerifyError> {
        Ok(now)
    }
}

pub struct Settler;

impl Settler {
    pub fn register(&self, request: &Request, now: u64) {}
}

pub struct Verifier {
    ledger: NonceLedger,
}

impl Verifier {
    pub fn verify(&mut self, evidence: &Evidence, now: u64) -> Result<Verified, VerifyError> {
        check_evidence(evidence)?;
        self.ledger.settle(now)?;
        Ok(Verified { attempts: 1 })
    }
}
