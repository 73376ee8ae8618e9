//! Fed as `crates/journal/src/journal.rs`: the journal append the authz
//! spec names (the `wal-settle-record` sink and the before-event of both
//! order rules), reduced to its signature.
pub struct Journal;

impl Journal {
    pub fn append_record(&self, record: &JournalRecord) -> u64 {
        record.seq()
    }
}
