// Fed as `crates/server/src/two_inner.rs`. Two structs each guard their
// state with a mutex field named `inner`, and `transfer` holds one while
// taking the other. Keyed by resolved `(type, field)` these are two
// locks, so the nesting is clean; keyed by field name it was a false
// self-deadlock.
pub struct Accounts {
    inner: Mutex<u64>,
}

pub struct Ledger {
    inner: Mutex<u64>,
}

pub fn transfer(accounts: &Accounts, ledger: &Ledger) {
    let a = accounts.inner.lock();
    let l = ledger.inner.lock();
    let _ = (a, l);
}
