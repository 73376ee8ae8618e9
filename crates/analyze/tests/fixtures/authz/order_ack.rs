//! WAL-before-ack fixtures: on `Settle` work items a journal barrier
//! (`sync_to`) must cover the decision (or the no-journal mode be
//! guarded) before the ticket is resolved. Only `ack_first` and
//! `ack_before_barrier` violate the rule; the second appends every
//! decision of a batch but resolves a ticket before the batch's barrier.
use utp_journal::Journal;
pub fn ack_first(journal: &Journal, reply: &Sender, item: WorkItem) {
    if let WorkItem::Settle { outcome, .. } = item {
        reply.send(outcome);
        let seq = journal.append_record(&JournalRecord::Decision(1));
        journal.sync_to(seq);
    }
}

pub fn ack_after_wal(journal: &Journal, reply: &Sender, item: WorkItem) {
    if let WorkItem::Settle { outcome, .. } = item {
        let seq = journal.append_record(&JournalRecord::Decision(1));
        journal.sync_to(seq);
        reply.send(outcome);
    }
}

pub fn ack_guarded(journal: Option<&Journal>, reply: &Sender, item: WorkItem) {
    if let WorkItem::Settle { outcome, .. } = item {
        if let Some(journal) = journal {
            let seq = journal.append_record(&JournalRecord::Decision(1));
            journal.sync_to(seq);
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
    let seq = journal.append_record(&JournalRecord::Decision(1));
    journal.sync_to(seq);
}

pub fn ack_batch(journal: &Journal, reply: &Sender, outcomes: &[u64]) {
    let mut seq = 0;
    for outcome in outcomes {
        seq = journal.append_record(&JournalRecord::Decision(*outcome));
    }
    journal.sync_to(seq);
    for outcome in outcomes {
        reply.send(*outcome);
    }
}

pub fn ack_before_barrier(journal: &Journal, reply: &Sender, first: u64, second: u64) {
    journal.append_record(&JournalRecord::Decision(first));
    let seq = journal.append_record(&JournalRecord::Decision(second));
    reply.send(first);
    journal.sync_to(seq);
    reply.send(second);
}
