//! Differential test of `EventQueue` against a reference that keeps
//! every pending event sorted by `(at, seq)` and pops the least.
//!
//! Seeded random interleavings mix `schedule` (past times that clamp,
//! equal-time ties), `schedule_in` over a few repeated delays (more
//! distinct delays than the queue has lanes) and `pop`; after every
//! step the two must agree on what popped, `now` and `len`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::time::Duration;
use utp_netsim::EventQueue;

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
