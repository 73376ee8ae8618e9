// Fed as `crates/server/src/two_inner_cycle.rs` next to `two_inner.rs`:
// the same two locks taken in the opposite order, which with
// `transfer`'s order is a lock-order cycle.
pub fn refund(accounts: &Accounts, ledger: &Ledger) {
    let l = ledger.inner.lock();
    let a = accounts.inner.lock();
    let _ = (a, l);
}
