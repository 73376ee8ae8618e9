//! The discrete-event core: a virtual-time event queue with stable
//! tie-breaking, built from a calendar queue of compact keys plus FIFO
//! lanes for fixed-delay timers.
//!
//! Determinism contract: events pop in `(at, seq)` order, where `seq`
//! is a monotonically increasing sequence number taken at schedule
//! time, so two events scheduled for the same virtual instant pop in
//! the order they were scheduled. The queue never reads the host clock
//! — `now` only moves when the caller pops, and only forward.
//!
//! Layout: every event `schedule(at, ..)` files is a 24-byte
//! `(at_ns, seq, slot)` entry; the payload waits in a slab slot that is
//! reused once popped, so sorting never moves payloads. The entries sit
//! in a calendar queue (Brown, "Calendar queues", CACM 31(10), 1988): a
//! ring of [`BUCKETS`] buckets, each [`BUCKET_NS`] of virtual time
//! wide and each an unsorted list, so filing an entry a few
//! milliseconds ahead is one append. A bucket is sorted once, when the
//! ring turns to it, and then pops from its end. A bucket's list is a
//! chain of fixed-size blocks from one pool shared by the ring: a
//! drained bucket's blocks serve the next ones to fill, so the ring's
//! memory follows its live entries, not the largest bucket each slot
//! ever held, and a bucket grows without calling the allocator.
//! Two binary heaps keep the rest in order:
//!
//! - the *overflow* heap holds entries beyond the ring's horizon
//!   (about 2.15 s past the current bucket); they move into the ring as
//!   it turns, and when the ring is empty it jumps straight to the
//!   overflow's first bucket, so a long gap costs no walk over empty
//!   buckets;
//! - the *late* heap holds entries for the bucket being drained, or an
//!   earlier one, filed after that bucket was sorted. Earlier happens
//!   because the ring turns as soon as its current bucket is empty,
//!   while a lane entry can still be due before the new bucket starts:
//!   popping it puts `now` behind the ring, and `schedule(now)` must
//!   still pop first.
//!
//! So every push and pop costs O(1) amortized when events spread over
//! the ring, and at worst O(log n), as a heap would (all events in one
//! bucket, or all beyond the ring).
//!
//! `schedule_in(delay, ..)` appends to the FIFO lane for that `delay`
//! instead: `now` never decreases, so entries scheduled at
//! `now + delay` for one `delay` arrive already sorted (the idea behind
//! timing wheels). The first few distinct delays get lanes; the rest
//! share the calendar. `pop` takes the least key among the calendar's
//! and the lane heads; the one `seq` counter makes ties across them
//! resolve exactly as a single heap would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

/// Virtual time one calendar bucket covers: 2^20 ns, about 1.05 ms.
/// Network deliveries land a few buckets past `now`.
pub const BUCKET_NS: u64 = 1 << 20;

/// Buckets in the calendar ring, a power of two. The ring covers
/// `BUCKETS * BUCKET_NS`, about 2.15 s of virtual time past the current
/// bucket; later events wait in the overflow heap.
pub const BUCKETS: usize = 2048;

/// The calendar bucket `at_ns` falls in.
fn bucket(at_ns: u64) -> u64 {
    at_ns / BUCKET_NS
}

/// Distinct delays that get a FIFO lane, first come first served. A
/// `schedule_in` whose delay has no lane goes to the calendar, so a
/// caller with many distinct delays costs one calendar push each, not
/// a long scan of lane heads on every pop.
const MAX_LANES: usize = 4;

/// Sort key of one event: virtual time in nanoseconds, then schedule
/// order. `seq` is unique, so no two keys are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at_ns: u64,
    seq: u64,
}

/// One calendar entry: the key and the slab slot holding the payload.
#[derive(Clone, Copy)]
struct Entry {
    key: Key,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the least key
        // on top; a sorted bucket likewise ends with its least key.
        other.key.cmp(&self.key)
    }
}

/// Entries per ring block. Small, because every non-empty bucket has
/// a partly filled last block: on `fleet_flash` 16 entries per block
/// raised peak RSS by about 0.7 MB, 8 by less than 0.1 MB.
const BLOCK: usize = 8;

/// One ring bucket: `len` entries in a chain of blocks from `head` to
/// `tail`, filled in order. `head` and `tail` mean nothing while `len`
/// is 0.
#[derive(Clone, Copy, Default)]
struct Bucket {
    head: u32,
    tail: u32,
    len: u32,
}

/// The calendar ring: [`BUCKETS`] unsorted buckets whose entries sit in
/// blocks of [`BLOCK`] from one pool. Bucket `b` lives at index
/// `b % BUCKETS`; the caller keeps every filed bucket within one turn of
/// the ring.
struct Ring {
    buckets: Vec<Bucket>,
    /// Block `k` is `blocks[k * BLOCK..][..BLOCK]`.
    blocks: Vec<Entry>,
    /// The block after block `k` in its bucket's chain.
    next: Vec<u32>,
    /// Blocks of drained buckets, reused before the pool grows.
    spare: Vec<u32>,
    /// Entries in all buckets.
    len: usize,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            buckets: vec![Bucket::default(); BUCKETS],
            blocks: Vec::new(),
            next: Vec::new(),
            spare: Vec::new(),
            len: 0,
        }
    }

    fn push(&mut self, b: u64, entry: Entry) {
        let i = b as usize % BUCKETS;
        let fill = self.buckets[i].len as usize % BLOCK;
        if fill == 0 {
            let block = match self.spare.pop() {
                Some(block) => block,
                None => {
                    let block =
                        u32::try_from(self.next.len()).expect("ring pool beyond u32 blocks");
                    self.next.push(0);
                    self.blocks.resize(self.blocks.len() + BLOCK, entry);
                    block
                }
            };
            let bucket = &mut self.buckets[i];
            if bucket.len == 0 {
                bucket.head = block;
            } else {
                self.next[bucket.tail as usize] = block;
            }
            bucket.tail = block;
        }
        let bucket = &mut self.buckets[i];
        self.blocks[bucket.tail as usize * BLOCK + fill] = entry;
        bucket.len += 1;
        self.len += 1;
    }

    /// Appends bucket `b`'s entries to `out` and returns its blocks to
    /// the pool.
    fn take(&mut self, b: u64, out: &mut Vec<Entry>) {
        let bucket = std::mem::take(&mut self.buckets[b as usize % BUCKETS]);
        let mut left = bucket.len as usize;
        let mut block = bucket.head;
        while left > 0 {
            let n = left.min(BLOCK);
            let start = block as usize * BLOCK;
            out.extend_from_slice(&self.blocks[start..start + n]);
            self.spare.push(block);
            block = self.next[block as usize];
            left -= n;
        }
        self.len -= bucket.len as usize;
    }
}

/// Entries per lane chunk.
const CHUNK: usize = 512;

/// The events scheduled `delay_ns` after the `now` they were scheduled
/// at, in `(at, seq)` order by construction. Entries sit in chunks of
/// [`CHUNK`], freed as they drain, so a lane's memory follows its live
/// count; one ring buffer would keep, and touch, its doubled capacity.
struct Lane<T> {
    delay_ns: u64,
    chunks: VecDeque<VecDeque<(Key, T)>>,
}

impl<T> Lane<T> {
    fn front(&self) -> Option<&(Key, T)> {
        self.chunks.front().and_then(VecDeque::front)
    }

    fn push_back(&mut self, entry: (Key, T)) {
        match self.chunks.back_mut() {
            Some(chunk) if chunk.len() < CHUNK => chunk.push_back(entry),
            _ => {
                let mut chunk = VecDeque::with_capacity(CHUNK);
                chunk.push_back(entry);
                self.chunks.push_back(chunk);
            }
        }
    }

    fn pop_front(&mut self) -> Option<(Key, T)> {
        let chunk = self.chunks.front_mut()?;
        let entry = chunk.pop_front();
        if chunk.is_empty() {
            self.chunks.pop_front();
        }
        entry
    }
}

/// A virtual-time event queue.
///
/// `schedule` accepts any time at or after `now`; a time in the past
/// is clamped to `now` (the event fires immediately, after everything
/// already due) rather than rewinding the clock. Times are kept in
/// whole nanoseconds: scheduling beyond `u64::MAX` ns (about 584 years)
/// of virtual time panics rather than wrapping.
pub struct EventQueue<T> {
    /// The current bucket's entries as the ring turned to it, sorted so
    /// the least key is last.
    current: Vec<Entry>,
    /// Entries for the current bucket or an earlier one, filed after
    /// the current bucket was sorted.
    late: BinaryHeap<Entry>,
    /// Unsorted entries of buckets `cur + 1 .. cur + BUCKETS`.
    ring: Ring,
    /// Entries of bucket `cur + BUCKETS` or later.
    overflow: BinaryHeap<Entry>,
    /// The bucket `current` holds.
    cur: u64,
    /// Payloads of calendar entries, indexed by `Entry::slot`.
    slab: Vec<Option<T>>,
    /// Slab slots whose payload was popped, reused before the slab grows.
    free: Vec<u32>,
    lanes: Vec<Lane<T>>,
    len: usize,
    seq: u64,
    now_ns: u64,
}

/// `t` in whole nanoseconds; panics past `u64::MAX` instead of wrapping.
fn nanos(t: Duration) -> u64 {
    u64::try_from(t.as_nanos()).expect("virtual time beyond u64::MAX ns (~584 years)")
}

impl<T> EventQueue<T> {
    /// An empty queue at virtual time zero.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            current: Vec::new(),
            late: BinaryHeap::new(),
            ring: Ring::new(),
            overflow: BinaryHeap::new(),
            cur: 0,
            slab: Vec::new(),
            free: Vec::new(),
            lanes: Vec::new(),
            len: 0,
            seq: 0,
            now_ns: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> Duration {
        Duration::from_nanos(self.now_ns)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn key(&mut self, at_ns: u64) -> Key {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        Key { at_ns, seq }
    }

    /// Schedules `payload` at virtual time `at` (clamped to `now`).
    pub fn schedule(&mut self, at: Duration, payload: T) {
        self.push_calendar(nanos(at).max(self.now_ns), payload);
    }

    fn push_calendar(&mut self, at_ns: u64, payload: T) {
        let key = self.key(at_ns);
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot =
                    u32::try_from(self.slab.len()).expect("more than u32::MAX pending events");
                self.slab.push(Some(payload));
                slot
            }
        };
        let entry = Entry { key, slot };
        let b = bucket(at_ns);
        if b <= self.cur {
            self.late.push(entry);
        } else if b - self.cur < BUCKETS as u64 {
            self.ring.push(b, entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Schedules `payload` at `now + delay`.
    pub fn schedule_in(&mut self, delay: Duration, payload: T) {
        let delay_ns = nanos(delay);
        let at_ns = self
            .now_ns
            .checked_add(delay_ns)
            .expect("virtual time beyond u64::MAX ns (~584 years)");
        let lane = match self.lanes.iter().position(|l| l.delay_ns == delay_ns) {
            Some(i) => i,
            None if self.lanes.len() < MAX_LANES => {
                self.lanes.push(Lane {
                    delay_ns,
                    chunks: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
            None => return self.push_calendar(at_ns, payload),
        };
        let key = self.key(at_ns);
        self.lanes[lane].push_back((key, payload));
    }

    /// The least key in the calendar, turning the ring first when the
    /// current bucket is drained.
    fn calendar_min(&mut self) -> Option<Key> {
        if self.current.is_empty() && self.late.is_empty() && !self.turn() {
            return None;
        }
        match (self.current.last(), self.late.peek()) {
            (Some(a), Some(b)) => Some(a.key.min(b.key)),
            (a, b) => a.or(b).map(|e| e.key),
        }
    }

    /// Moves `cur` to the next non-empty bucket and sorts it into
    /// `current`; false when the calendar holds nothing.
    fn turn(&mut self) -> bool {
        if self.ring.len == 0 {
            // Nothing inside the horizon: jump to the overflow's first
            // bucket (at least `cur + BUCKETS`, so never bucket 0).
            let Some(first) = self.overflow.peek() else {
                return false;
            };
            self.cur = bucket(first.key.at_ns) - 1;
        }
        loop {
            self.cur += 1;
            // The horizon moved on: file the overflow entries it now
            // covers. Every overflow bucket is at least `cur + BUCKETS - 1`.
            while let Some(first) = self.overflow.peek() {
                let b = bucket(first.key.at_ns);
                if b - self.cur >= BUCKETS as u64 {
                    break;
                }
                if let Some(entry) = self.overflow.pop() {
                    self.ring.push(b, entry);
                }
            }
            self.ring.take(self.cur, &mut self.current);
            if !self.current.is_empty() {
                // `Entry` orders in reverse, so the least key ends last.
                self.current.sort_unstable();
                return true;
            }
        }
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Duration, T)> {
        // `None` names the calendar, `Some(i)` lane `i`.
        let mut best = self.calendar_min().map(|key| (key, None));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some((key, _)) = lane.front() {
                if best.is_none_or(|(b, _)| *key < b) {
                    best = Some((*key, Some(i)));
                }
            }
        }
        let (key, source) = best?;
        let payload = match source {
            None => match self.late.peek() {
                Some(e) if e.key == key => self.late.pop(),
                _ => self.current.pop(),
            }
            .and_then(|e| {
                self.free.push(e.slot);
                self.slab[e.slot as usize].take()
            }),
            Some(i) => self.lanes[i].pop_front().map(|(_, p)| p),
        }
        .expect("the peeked entry holds a payload");
        debug_assert!(key.at_ns >= self.now_ns, "virtual time went backwards");
        self.len -= 1;
        self.now_ns = key.at_ns;
        Some((Duration::from_nanos(key.at_ns), payload))
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(ms(30), "c");
        q.schedule(ms(10), "a");
        q.schedule(ms(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        for label in ["first", "second", "third"] {
            q.schedule(ms(5), label);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["first", "second", "third"]);
    }

    #[test]
    fn now_advances_monotonically_and_past_is_clamped() {
        let mut q = EventQueue::new();
        q.schedule(ms(10), 1);
        assert_eq!(q.pop(), Some((ms(10), 1)));
        assert_eq!(q.now(), ms(10));
        q.schedule(ms(3), 2); // in the past: clamps to now
        assert_eq!(q.pop(), Some((ms(10), 2)));
        assert_eq!(q.now(), ms(10));
        q.schedule_in(ms(7), 3);
        assert_eq!(q.pop(), Some((ms(17), 3)));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_stable() {
        let mut q = EventQueue::new();
        q.schedule(ms(1), 10);
        q.schedule(ms(2), 20);
        assert_eq!(q.pop(), Some((ms(1), 10)));
        q.schedule(ms(2), 21); // same instant as the pending 20: pops after it
        q.schedule(ms(2), 22);
        assert_eq!(q.pop(), Some((ms(2), 20)));
        assert_eq!(q.pop(), Some((ms(2), 21)));
        assert_eq!(q.pop(), Some((ms(2), 22)));
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(ms(i), i);
            assert_eq!(q.pop(), Some((ms(i), i)));
        }
        assert_eq!(
            q.slab.len(),
            1,
            "one slot serves a queue that never holds two"
        );
    }

    #[test]
    fn delays_beyond_the_lane_budget_share_the_calendar() {
        let mut q = EventQueue::new();
        for d in (1..=2 * MAX_LANES as u64).rev() {
            q.schedule_in(Duration::from_nanos(d * BUCKET_NS), d);
        }
        // The first delays seen (the longest) hold the lanes; the rest
        // are unsorted entries in the ring, one per bucket ahead.
        assert_eq!(q.lanes.len(), MAX_LANES);
        assert_eq!(q.ring.len, MAX_LANES);
        assert!(q.current.is_empty() && q.late.is_empty() && q.overflow.is_empty());
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (1..=2 * MAX_LANES as u64).collect::<Vec<_>>());
        assert_eq!(q.ring.len, 0);
    }

    #[test]
    #[should_panic(expected = "584 years")]
    fn times_past_u64_nanoseconds_panic_instead_of_wrapping() {
        let mut q = EventQueue::new();
        q.schedule(Duration::from_secs(600 * 365 * 86_400), ());
    }
}
