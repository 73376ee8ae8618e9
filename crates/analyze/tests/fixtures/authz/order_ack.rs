//! WAL-before-ack fixtures: on `Settle` work items the decision must be
//! journaled (or the no-journal mode guarded) before the ticket is
//! resolved. Only `ack_first` violates the rule.
use utp_journal::Journal;
pub fn ack_first(journal: &Journal, reply: &Sender, item: WorkItem) {
    if let WorkItem::Settle { outcome, .. } = item {
        reply.send(outcome);
        journal.append_record(&JournalRecord::Decision(1));
    }
}

pub fn ack_after_wal(journal: &Journal, reply: &Sender, item: WorkItem) {
    if let WorkItem::Settle { outcome, .. } = item {
        journal.append_record(&JournalRecord::Decision(1));
        reply.send(outcome);
    }
}

pub fn ack_guarded(journal: Option<&Journal>, reply: &Sender, item: WorkItem) {
    if let WorkItem::Settle { outcome, .. } = item {
        if let Some(journal) = journal {
            journal.append_record(&JournalRecord::Decision(1));
        }
        reply.send(outcome);
    }
}

pub fn ack_via_helper(journal: &Journal, reply: &Sender, item: WorkItem) {
    if let WorkItem::Settle { outcome, .. } = item {
        journal_settle(journal);
        reply.send(outcome);
    }
}

fn journal_settle(journal: &Journal) {
    journal.append_record(&JournalRecord::Decision(1));
}
