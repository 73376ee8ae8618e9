//! Fed as `crates/server/src/provider.rs`: the receipt and the binding
//! primitive the authz spec names, reduced to their signatures.
pub struct Receipt {
    pub order_id: u64,
    pub attempts: u32,
}

pub struct ServiceProvider;

impl ServiceProvider {
    fn check_order_binding(&self, order_id: u64, evidence: &Evidence) -> Result<(), VerifyError> {
        evidence.bind(order_id)
    }
}
