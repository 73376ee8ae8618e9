//! Crash-point sweep over the settlement journal.
//!
//! One scripted multi-order run against a journaled provider with the
//! sharded verification service attached produces a reference WAL. The
//! sweep then crashes the provider at **every frame boundary** of that
//! log — every prefix a real power loss could leave behind — recovers,
//! and checks the paper's server-side guarantee end to end:
//!
//! - **Zero double-spends**: a nonce consumed before the crash stays
//!   consumed; replaying its evidence after recovery is rejected, and
//!   the account is never debited twice.
//! - **No accepted-then-forgotten orders**: every settle decision whose
//!   WAL record is durable (i.e. was acked — WAL-before-ack) is
//!   reflected in the recovered store.
//! - **Audit prefix**: the recovered audit history is exactly a prefix
//!   of the uncrashed run's history.
//! - **Pending orders stay settleable**: an order whose challenge was
//!   issued but not settled before the crash settles exactly once after
//!   recovery.
//!
//! A second test strikes a crash inside one group commit, after the
//! batch's appends and before its barrier, with every prefix of the
//! batch the device could have written.

use std::sync::Arc;
use std::time::Duration;
use utp::core::ca::PrivacyCa;
use utp::core::client::{Client, ClientConfig};
use utp::core::operator::{ConfirmingHuman, Intent};
use utp::core::protocol::Evidence;
use utp::core::verifier::{VerifierConfig, VerifyError};
use utp::journal::{
    frame_boundaries, replay_bytes, scan, DeviceProfile, Journal, JournalConfig, JournalRecord,
    LogEnd, RecoveredStatus,
};
use utp::platform::machine::{Machine, MachineConfig};
use utp::server::provider::ServiceProvider;
use utp::server::store::OrderStatus;

const OPENING_CENTS: i64 = 1_000_000;
const ORDERS: usize = 6;

/// Everything the sweep needs from the uncrashed reference run.
struct ReferenceRun {
    ca: PrivacyCa,
    /// The full durable WAL of the uncrashed run.
    log: Vec<u8>,
    /// `(order_id, amount_cents, evidence)` for every order, in order.
    orders: Vec<(u64, u64, Evidence)>,
    /// Virtual time at the end of the run (re-submissions happen here).
    end: Duration,
}

/// Runs ORDERS confirmed transactions through a journaled provider with
/// a 2-thread verification pool attached.
fn reference_run() -> ReferenceRun {
    let ca = PrivacyCa::new(512, 7_001);
    let mut provider = ServiceProvider::new(ca.public_key().clone(), 7_002);
    let journal = Arc::new(Journal::new(JournalConfig::fast_for_tests()));
    provider.attach_journal(Arc::clone(&journal));
    provider.open_account("alice", OPENING_CENTS);
    provider.attach_service(2);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(7_003));
    let enrollment = ca.enroll(&mut machine);
    let mut client = Client::new(ClientConfig::fast_for_tests(), enrollment);

    let mut orders = Vec::new();
    for i in 0..ORDERS {
        let amount = 1_000 + 100 * i as u64;
        let (order_id, request) =
            provider.place_order("alice", "shop", amount, "EUR", "sweep", machine.now());
        let mut human =
            ConfirmingHuman::new(Intent::approving(&request.transaction), 7_100 + i as u64);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        provider
            .submit_evidence(order_id, &evidence, machine.now())
            .unwrap();
        orders.push((order_id, amount, evidence));
    }
    provider.detach_service();
    journal.sync();
    ReferenceRun {
        ca,
        log: journal.durable_log_bytes(),
        orders,
        end: machine.now(),
    }
}

/// Orders with a durable `CreateOrder` / accepted `Settle` record in the
/// given log prefix.
fn durable_ids(prefix: &[u8]) -> (Vec<u64>, Vec<u64>) {
    let mut created = Vec::new();
    let mut settled_ok = Vec::new();
    for f in scan(prefix).frames {
        match f.record {
            JournalRecord::CreateOrder { order_id, .. } => created.push(order_id),
            JournalRecord::Settle {
                order_id,
                outcome: Ok(()),
                ..
            } => settled_ok.push(order_id),
            _ => {}
        }
    }
    (created, settled_ok)
}

/// Pure-replay invariants at every boundary: prefix-consistency, balance
/// conservation, no accepted-then-forgotten settle, audit prefix.
#[test]
fn every_crash_point_recovers_a_consistent_prefix() {
    let run = reference_run();
    let (reference, _) = replay_bytes(&[], &run.log);
    let boundaries = frame_boundaries(&run.log);
    // 1 open + ORDERS creates + ORDERS settles, plus the start boundary.
    assert_eq!(boundaries.len(), 2 + 2 * ORDERS);

    for &b in &boundaries {
        let prefix = &run.log[..b];
        let (state, report) = replay_bytes(&[], prefix);
        assert!(
            matches!(report.log_end, LogEnd::Clean),
            "boundary {b}: a frame-aligned prefix must scan clean"
        );
        let (created, settled_ok) = durable_ids(prefix);

        // No accepted-then-forgotten: every durable accepted settle is
        // Confirmed in the recovered store.
        for id in &settled_ok {
            assert_eq!(
                state.orders.get(id).map(|o| &o.status),
                Some(&RecoveredStatus::Confirmed),
                "boundary {b}: settle record for order {id} is durable but not recovered"
            );
        }
        // ...and nothing else is: confirmations come only from the WAL.
        let confirmed: Vec<u64> = state
            .orders
            .iter()
            .filter(|(_, o)| o.status == RecoveredStatus::Confirmed)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(confirmed, settled_ok, "boundary {b}");

        // Zero double-spends, balance conservation: the account is
        // debited exactly once per confirmed order.
        let debits: i64 = run
            .orders
            .iter()
            .filter(|(id, _, _)| settled_ok.contains(id))
            .map(|(_, amount, _)| *amount as i64)
            .sum();
        if !created.is_empty() || !settled_ok.is_empty() || b > 0 {
            // The account-opening record is the first frame; any
            // non-empty prefix contains it.
            assert_eq!(
                state.accounts.get("alice").copied(),
                Some(OPENING_CENTS - debits),
                "boundary {b}"
            );
        }
        // Every confirmed order's nonce is consumed.
        assert_eq!(state.used.len(), settled_ok.len(), "boundary {b}");

        // Audit prefix of the uncrashed run.
        assert!(state.audit.len() <= reference.audit.len(), "boundary {b}");
        assert_eq!(
            state.audit.as_slice(),
            &reference.audit[..state.audit.len()],
            "boundary {b}: recovered audit must be a prefix of the uncrashed history"
        );
    }
}

/// Full-provider re-verification at every boundary: rebuild a provider
/// from the prefix and drive real evidence through it.
#[test]
fn recovered_provider_re_verifies_correctly_at_every_boundary() {
    let run = reference_run();
    let boundaries = frame_boundaries(&run.log);
    let now = run.end;

    for &b in &boundaries {
        let prefix = &run.log[..b];
        let (created, settled_ok) = durable_ids(prefix);
        let journal = Journal::with_durable(JournalConfig::fast_for_tests(), &[], prefix);
        let (mut provider, report) = ServiceProvider::recover(
            run.ca.public_key().clone(),
            VerifierConfig::default(),
            7_200,
            Arc::new(journal),
        );
        assert!(matches!(report.log_end, LogEnd::Clean), "boundary {b}");

        for (order_id, _, evidence) in &run.orders {
            let res = provider.submit_evidence(*order_id, evidence, now);
            if settled_ok.contains(order_id) {
                // Settled before the crash: the nonce stays consumed.
                assert_eq!(res.unwrap_err(), VerifyError::Replayed, "boundary {b}");
            } else if created.contains(order_id) {
                // Challenge issued, not settled: settles exactly once...
                assert!(res.is_ok(), "boundary {b}, order {order_id}");
                // ...and the second attempt is a replay.
                assert_eq!(
                    provider
                        .submit_evidence(*order_id, evidence, now)
                        .unwrap_err(),
                    VerifyError::Replayed,
                    "boundary {b}"
                );
            } else {
                // The challenge never became durable: fail closed.
                assert_eq!(res.unwrap_err(), VerifyError::UnknownNonce, "boundary {b}");
            }
        }

        // Exactly one debit per durable challenge, no matter where the
        // crash fell between challenge and settle.
        if b > 0 {
            let expected: i64 = OPENING_CENTS
                - run
                    .orders
                    .iter()
                    .filter(|(id, _, _)| created.contains(id))
                    .map(|(_, amount, _)| *amount as i64)
                    .sum::<i64>();
            assert_eq!(
                provider.store().account("alice").unwrap().balance_cents,
                expected,
                "boundary {b}"
            );
        }
    }
}

/// Orders settled one at a time, and acknowledged, before the batch.
const ACKED: usize = 2;
/// Decisions in the group commit the crash strikes.
const BATCH: usize = 4;

/// How a crash strikes a group commit between its appends and its
/// barrier, in the explorer's crash vocabulary. Truncation and torn
/// tails apply to the log as it would read had the staged batch
/// reached the media: the device wrote part of the batch before power
/// failed.
#[derive(Debug, Clone, Copy)]
enum Strike {
    /// The staged batch is lost whole.
    PowerLoss,
    /// The batch reached the media but its last `drop_frames` frames.
    Truncate { drop_frames: usize },
    /// The batch reached the media but its last `bytes` bytes.
    TornTail { bytes: usize },
}

/// A crash between a batch's appends and its `sync_to`: the verdicts of
/// the batch never leave it, every acknowledged decision survives, and
/// resubmitting the batch's evidence after recovery settles each order
/// exactly once, whatever prefix of the batch the device wrote.
#[test]
fn crash_between_batch_appends_and_barrier_forgets_nothing_acknowledged() {
    let ca = PrivacyCa::new(512, 7_301);
    let mut provider = ServiceProvider::new(ca.public_key().clone(), 7_302);
    // Larger than the batch: no automatic flush makes any of it durable.
    let config = JournalConfig::new(DeviceProfile::fast_for_tests(), 4 * BATCH);
    let journal = Arc::new(Journal::new(config.clone()));
    provider.attach_journal(Arc::clone(&journal));
    provider.open_account("alice", OPENING_CENTS);
    let mut machine = Machine::new(MachineConfig::fast_for_tests(7_303));
    let mut client = Client::new(ClientConfig::fast_for_tests(), ca.enroll(&mut machine));

    let mut orders = Vec::new();
    for i in 0..ACKED + BATCH {
        let amount = 2_000 + 100 * i as u64;
        let (order_id, request) =
            provider.place_order("alice", "shop", amount, "EUR", "batch", machine.now());
        let mut human =
            ConfirmingHuman::new(Intent::approving(&request.transaction), 7_400 + i as u64);
        let evidence = client.confirm(&mut machine, &request, &mut human).unwrap();
        orders.push((order_id, amount, evidence));
    }
    let now = machine.now();
    let (acked, batched) = orders.split_at(ACKED);
    for (order_id, _, evidence) in acked {
        provider.submit_evidence(*order_id, evidence, now).unwrap();
    }

    // The seam: every decision of the batch appended, none covered.
    let mut batch = provider.settlement().batch();
    for (order_id, _, evidence) in batched {
        batch.settle(*order_id, evidence, now);
    }
    let appended = journal.stats().appends;
    assert_eq!(journal.durable_seq() + BATCH as u64, appended);
    let durable = journal.durable_log_bytes();
    let written = journal.fork();
    written.sync();
    let full = written.durable_log_bytes();
    let frames = frame_boundaries(&full);
    let batch_frames = &frames[frames.len() - 1 - BATCH..];
    assert_eq!(batch_frames[0], durable.len());
    // The crash: the batch never commits, so none of its verdicts is
    // released, and the provider acted on none of them.
    drop(batch);
    for (order_id, _, _) in batched {
        assert_eq!(
            provider.store().order(*order_id).map(|o| &o.status),
            Some(&OrderStatus::Pending)
        );
        assert!(provider.audit().entries().all(|e| e.order_id != *order_id));
    }

    let mut strikes = vec![Strike::PowerLoss];
    strikes.extend((0..=BATCH).map(|drop_frames| Strike::Truncate { drop_frames }));
    strikes.extend(batch_frames.windows(2).map(|w| Strike::TornTail {
        bytes: full.len() - (w[0] + w[1]) / 2,
    }));
    for strike in strikes {
        let image = match strike {
            Strike::PowerLoss => {
                let crashed = journal.fork();
                crashed.crash();
                crashed
            }
            Strike::Truncate { drop_frames } => {
                let cut = frames[frames.len() - 1 - drop_frames];
                Journal::with_durable(config.clone(), &[], &full[..cut])
            }
            Strike::TornTail { bytes } => {
                Journal::with_durable(config.clone(), &[], &full[..full.len() - bytes])
            }
        };
        let log = image.durable_log_bytes();
        assert!(
            log.starts_with(&durable),
            "{strike:?}: history below the batch survives"
        );
        let (_, survived) = durable_ids(&log);
        let (mut recovered, _) = ServiceProvider::recover(
            ca.public_key().clone(),
            VerifierConfig::default(),
            7_304,
            Arc::new(image),
        );

        // Nothing acknowledged is forgotten.
        for (order_id, _, evidence) in acked {
            assert_eq!(
                recovered.store().order(*order_id).map(|o| &o.status),
                Some(&OrderStatus::Confirmed),
                "{strike:?}"
            );
            assert_eq!(
                recovered.submit_evidence(*order_id, evidence, now),
                Err(VerifyError::Replayed),
                "{strike:?}"
            );
        }
        // Resubmitting the batch's evidence settles each order once:
        // now, or already through the frame the device wrote.
        for (order_id, _, evidence) in batched {
            let first = recovered.submit_evidence(*order_id, evidence, now);
            if survived.contains(order_id) {
                assert_eq!(first, Err(VerifyError::Replayed), "{strike:?}");
            } else {
                assert!(first.is_ok(), "{strike:?}, order {order_id}: {first:?}");
            }
            assert_eq!(
                recovered.submit_evidence(*order_id, evidence, now),
                Err(VerifyError::Replayed),
                "{strike:?}"
            );
        }
        let debits: i64 = orders.iter().map(|(_, amount, _)| *amount as i64).sum();
        assert_eq!(
            recovered.store().account("alice").unwrap().balance_cents,
            OPENING_CENTS - debits,
            "{strike:?}: every order debited exactly once"
        );
    }
}
