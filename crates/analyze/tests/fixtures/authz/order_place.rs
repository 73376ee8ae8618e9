//! WAL-before-challenge fixtures: the order/nonce binding must be WAL'd
//! (`CreateOrder` record) before the confirmation challenge is
//! registered with the settlement core. Only `register_first` violates
//! the rule.
use {utp_core::verifier::Settler, utp_journal::Journal};
pub fn register_first(
    journal: &Journal,
    settlement: &Settler,
    request: &Request,
    now: Duration,
) {
    settlement.register(request, now);
    journal.append_record(&JournalRecord::CreateOrder { id: 1 });
}

pub fn wal_then_register(
    journal: &Journal,
    settlement: &Settler,
    request: &Request,
    now: Duration,
) {
    journal.append_record(&JournalRecord::CreateOrder { id: 1 });
    settlement.register(request, now);
}
