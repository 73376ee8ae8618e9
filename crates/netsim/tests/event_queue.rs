//! Differential test of `EventQueue` against a reference that keeps
//! every pending event sorted by `(at, seq)` and pops the least.
//!
//! Seeded random interleavings mix `schedule` (past times that clamp,
//! equal-time ties), `schedule_in` over a few repeated delays (more
//! distinct delays than the queue has lanes) and `pop`; after every
//! step the two must agree on what popped, `now` and `len`. A second
//! mix aims at the calendar's edges: times far beyond the ring's
//! horizon, gaps longer than the ring, bursts on one instant and on a
//! bucket boundary, and schedules into the bucket being drained.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;
use utp_netsim::event::{BUCKETS, BUCKET_NS};
use utp_netsim::EventQueue;

/// Virtual time one calendar bucket covers.
const BUCKET: Duration = Duration::from_nanos(BUCKET_NS);

/// Virtual time the calendar ring covers past its current bucket.
const HORIZON: Duration = Duration::from_nanos(BUCKET_NS * BUCKETS as u64);

/// The queue's specification: one ordered map from `(at, seq)`.
#[derive(Default)]
struct Reference {
    pending: BTreeMap<(Duration, u64), u32>,
    seq: u64,
    now: Duration,
}

impl Reference {
    fn schedule(&mut self, at: Duration, payload: u32) {
        self.pending.insert((at.max(self.now), self.seq), payload);
        self.seq += 1;
    }

    fn schedule_in(&mut self, delay: Duration, payload: u32) {
        self.schedule(self.now + delay, payload);
    }

    fn pop(&mut self) -> Option<(Duration, u32)> {
        let ((at, _), payload) = self.pending.pop_first()?;
        self.now = at;
        Some((at, payload))
    }
}

/// Both queues, driven in lockstep.
#[derive(Default)]
struct Pair {
    queue: EventQueue<u32>,
    reference: Reference,
    next: u32,
}

impl Pair {
    fn schedule(&mut self, at: Duration) {
        self.queue.schedule(at, self.next);
        self.reference.schedule(at, self.next);
        self.next += 1;
    }

    fn schedule_in(&mut self, delay: Duration) {
        self.queue.schedule_in(delay, self.next);
        self.reference.schedule_in(delay, self.next);
        self.next += 1;
    }

    fn pop(&mut self) -> Option<(Duration, u32)> {
        let got = self.queue.pop();
        assert_eq!(got, self.reference.pop(), "pop order diverged");
        self.check();
        got
    }

    fn check(&self) {
        assert_eq!(self.queue.now(), self.reference.now);
        assert_eq!(self.queue.len(), self.reference.pending.len());
        assert_eq!(self.queue.is_empty(), self.reference.pending.is_empty());
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
        self.check();
    }
}

/// Delays `schedule_in` draws from: five distinct values, one more than
/// the lanes the queue keeps, so some share the heap.
const DELAYS: [Duration; 5] = [
    Duration::ZERO,
    Duration::from_micros(120),
    Duration::from_millis(1),
    Duration::from_millis(5),
    Duration::from_millis(800),
];

fn run_seed(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pair::default();
    for _ in 0..steps {
        let now = p.reference.now;
        match rng.gen_range(0..10u32) {
            // Past times clamp to `now`.
            0 => p.schedule(now.saturating_sub(Duration::from_millis(rng.gen_range(0..10u64)))),
            // A coarse grid makes equal-time ties common, also with
            // lane entries (whose delays sit on the same grid).
            1 | 2 => p.schedule(now + Duration::from_millis(rng.gen_range(0..8u64))),
            3 => p.schedule(now + Duration::from_nanos(rng.gen_range(0..2_000_000u64))),
            4..=6 => p.schedule_in(DELAYS[rng.gen_range(0..DELAYS.len())]),
            _ => {
                p.pop();
            }
        }
        p.check();
    }
    p.drain();
}

/// The start of the calendar bucket `t` falls in.
fn bucket_start(t: Duration) -> Duration {
    let ns = u64::try_from(t.as_nanos()).expect("test times fit in u64 ns");
    Duration::from_nanos(ns / BUCKET_NS * BUCKET_NS)
}

/// Like [`run_seed`], with schedules aimed at the calendar's edges and
/// pops in runs, so the queue empties often and the next pop crosses a
/// gap longer than the ring.
fn run_calendar_seed(seed: u64, steps: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Pair::default();
    for _ in 0..steps {
        let now = p.reference.now;
        match rng.gen_range(0..16u32) {
            // Far beyond the horizon: 10 s or an hour ahead.
            0 => {
                let far =
                    [Duration::from_secs(10), Duration::from_secs(3_600)][rng.gen_range(0..2)];
                p.schedule(now + far + Duration::from_nanos(rng.gen_range(0..1_000u64)));
            }
            // Within a bucket of the horizon, on either side of it.
            1 => p.schedule(
                now + HORIZON - BUCKET + Duration::from_nanos(rng.gen_range(0..2 * BUCKET_NS)),
            ),
            // A burst on one instant.
            2 => {
                let at = now + BUCKET * rng.gen_range(0..4u32);
                for _ in 0..rng.gen_range(1..20u32) {
                    p.schedule(at);
                }
            }
            // A burst on both sides of a bucket boundary.
            3 => {
                let edge = bucket_start(now) + BUCKET * rng.gen_range(1..4u32);
                for _ in 0..rng.gen_range(1..10u32) {
                    p.schedule(edge - Duration::from_nanos(1));
                    p.schedule(edge);
                }
            }
            // Into the bucket being drained, or at `now` itself.
            4 | 5 => p.schedule(now + Duration::from_nanos(rng.gen_range(0..BUCKET_NS / 4))),
            6 => p.schedule(now),
            // A few buckets ahead, where network deliveries land.
            7 | 8 => p.schedule(now + Duration::from_nanos(rng.gen_range(0..8 * BUCKET_NS))),
            9 | 10 => p.schedule_in(DELAYS[rng.gen_range(0..DELAYS.len())]),
            11..=13 => {
                p.pop();
            }
            _ => {
                for _ in 0..rng.gen_range(1..40u32) {
                    p.pop();
                }
            }
        }
        p.check();
    }
    p.drain();
}

#[test]
fn random_interleavings_match_the_reference() {
    for seed in 0..200 {
        run_seed(seed, 2_000);
    }
}

#[test]
fn long_run_keeps_lanes_and_slab_in_step() {
    // Lanes grow past several chunks and the slab recycles its slots.
    run_seed(0xE13, 200_000);
}

#[test]
fn lane_head_and_heap_entry_at_one_instant_resolve_by_seq() {
    let mut p = Pair::default();
    let d = Duration::from_millis(5);
    // Heap entry first, then the lane entry at the same instant…
    p.schedule(d);
    p.schedule_in(d);
    // …and a lane entry first, then the heap entry.
    p.schedule_in(2 * d);
    p.schedule(2 * d);
    assert_eq!(p.pop(), Some((d, 0)));
    assert_eq!(p.pop(), Some((d, 1)));
    // Once `now` has moved, a fresh lane entry and a heap entry tie at
    // `now + d` with the pending pair, behind a clamped past entry:
    // schedule order still decides.
    p.schedule_in(d);
    p.schedule(Duration::ZERO);
    p.schedule(2 * d);
    p.drain();
}

#[test]
fn calendar_edge_interleavings_match_the_reference() {
    for seed in 0..200 {
        run_calendar_seed(seed, 2_000);
    }
}

#[test]
fn entries_beyond_the_horizon_join_the_turning_ring_in_order() {
    let mut p = Pair::default();
    // One entry in each of the ring's buckets and a few past it, so the
    // ring turns a bucket at a time (it never jumps); and one entry
    // just past the horizon for each of those buckets, filed while
    // they were still beyond it.
    for k in 1..BUCKETS as u32 + 8 {
        p.schedule(BUCKET * k);
        p.schedule(HORIZON + BUCKET * k - Duration::from_nanos(1));
    }
    // The same instants from far away, which sit in the overflow the
    // longest.
    p.schedule(Duration::from_secs(10));
    p.schedule(Duration::from_secs(3_600));
    p.schedule(Duration::from_secs(10));
    p.drain();
}

#[test]
fn a_migrated_entry_orders_against_ring_entries_filed_after_it() {
    let mut p = Pair::default();
    let target = HORIZON + BUCKET * 5;
    // Filed beyond the horizon, so it waits in the overflow.
    p.schedule(target + Duration::from_nanos(10));
    // One entry per bucket: the ring turns a bucket at a time, and
    // once past bucket 5 its horizon covers the target's bucket.
    for k in 1..=10u32 {
        p.schedule(BUCKET * k);
    }
    for _ in 0..8 {
        p.pop();
    }
    // Filed straight into the ring, on both sides of the migrated one.
    p.schedule(target + Duration::from_nanos(5));
    p.schedule(target + Duration::from_nanos(20));
    p.drain();
}

#[test]
fn gaps_longer_than_the_ring_jump_to_the_overflow() {
    let mut p = Pair::default();
    p.schedule(Duration::from_secs(3_600));
    p.schedule(Duration::from_secs(10));
    p.schedule(Duration::from_millis(3));
    assert_eq!(p.pop(), Some((Duration::from_millis(3), 2)));
    assert_eq!(p.pop(), Some((Duration::from_secs(10), 1)));
    // The ring now starts at 10 s: near and far schedules still order
    // against the hour-long wait.
    p.schedule_in(Duration::from_millis(1));
    p.schedule(Duration::from_secs(10) + HORIZON);
    p.schedule(Duration::from_secs(7_200));
    assert_eq!(
        p.pop(),
        Some((Duration::from_secs(10) + Duration::from_millis(1), 3))
    );
    p.drain();
}

#[test]
fn bursts_on_an_instant_and_a_bucket_boundary_keep_schedule_order() {
    let mut p = Pair::default();
    let edge = BUCKET * 3;
    for _ in 0..100 {
        p.schedule(edge - Duration::from_nanos(1));
        p.schedule(edge);
        p.schedule(edge + Duration::from_nanos(1));
    }
    // Pop into the burst, then add to the bucket being drained: at the
    // instant being popped (after its pending peers), and behind it.
    for _ in 0..150 {
        p.pop();
    }
    p.schedule(edge);
    p.schedule(edge + Duration::from_nanos(1));
    p.schedule(edge + BUCKET / 2);
    p.drain();
}

#[test]
fn schedule_now_after_a_lane_pop_behind_the_ring_pops_first() {
    let mut p = Pair::default();
    let d = Duration::from_millis(5);
    // A lane entry at 5 ms and a calendar entry 15 buckets later.
    p.schedule_in(d);
    p.schedule(d + BUCKET * 15);
    // To compare heads the ring turns to the 20 ms bucket, then the
    // lane entry wins: `now` is 5 ms, behind the ring's current bucket.
    assert_eq!(p.pop(), Some((d, 0)));
    // Both land before the bucket the ring has turned to, and must pop
    // before the entry in it.
    p.schedule(p.reference.now);
    p.schedule(p.reference.now + BUCKET * 3);
    assert_eq!(p.pop(), Some((d, 2)));
    assert_eq!(p.pop(), Some((d + BUCKET * 3, 3)));
    p.drain();
}
