//! Interprocedural lifting fixtures. `finish` lacks any local
//! authorization, but its only caller establishes every capability
//! before the call (via the `authorize` wrapper, which the granting
//! closure turns into a source) — clean. `finish_unchecked`'s only
//! caller establishes nothing — deny.
use utp_core::verifier::Verifier;

pub fn entry(
    provider: &ServiceProvider,
    store: &mut Store,
    verifier: &Verifier,
    order_id: u64,
    evidence: &Evidence,
) {
    authorize(provider, verifier, order_id, evidence);
    finish(store, order_id);
}

fn authorize(
    provider: &ServiceProvider,
    verifier: &Verifier,
    order_id: u64,
    evidence: &Evidence,
) {
    provider.check_order_binding(order_id, evidence);
    verifier.verify(evidence, 0);
}

fn finish(store: &mut Store, order_id: u64) {
    store.try_settle(order_id);
}

pub fn entry_unchecked(store: &mut Store, order_id: u64) {
    finish_unchecked(store, order_id);
}

fn finish_unchecked(store: &mut Store, order_id: u64) {
    store.try_settle(order_id);
}
