//! Fed as `crates/journal/src/journal.rs`: the journal append the authz
//! spec names (the `wal-settle-record` sink and the before-event of
//! `wal-before-challenge`) and the barrier (the before-event of
//! `wal-before-ack`), reduced to their signatures.
pub struct Journal;

impl Journal {
    pub fn append_record(&self, record: &JournalRecord) -> u64 {
        record.seq()
    }

    pub fn sync_to(&self, seq: u64) -> u64 {
        seq
    }
}
