//! The discrete-event core: a virtual-time event queue with stable
//! tie-breaking, built from a binary heap of compact keys plus FIFO
//! lanes for fixed-delay timers.
//!
//! Determinism contract: events pop in `(at, seq)` order, where `seq`
//! is a monotonically increasing sequence number taken at schedule
//! time, so two events scheduled for the same virtual instant pop in
//! the order they were scheduled. The queue never reads the host clock
//! — `now` only moves when the caller pops, and only forward.
//!
//! Layout: `schedule(at, ..)` pushes a 24-byte `(at_ns, seq, slot)`
//! entry onto the heap; the payload waits in a slab slot that is reused
//! once popped, so sifting never moves payloads. `schedule_in(delay, ..)`
//! appends to the FIFO lane for that `delay` instead: `now` never
//! decreases, so entries scheduled at `now + delay` for one `delay`
//! arrive already sorted and need no heap (the idea behind timing
//! wheels). The first few distinct delays get lanes; the rest share
//! the heap. `pop` takes the least key among the heap top and the lane
//! heads; the one `seq` counter makes ties across them resolve exactly
//! as a single heap would.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Duration;

/// Distinct delays that get a FIFO lane, first come first served. A
/// `schedule_in` whose delay has no lane goes to the heap, so a caller
/// with many distinct delays costs one heap push each, not a long scan
/// of lane heads on every pop.
const MAX_LANES: usize = 4;

/// Sort key of one event: virtual time in nanoseconds, then schedule
/// order. `seq` is unique, so no two keys are equal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at_ns: u64,
    seq: u64,
}

/// One heap entry: the key and the slab slot holding the payload.
struct HeapEntry {
    key: Key,
    slot: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap and we want the least key
        // on top.
        other.key.cmp(&self.key)
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
    heap: BinaryHeap<HeapEntry>,
    /// Payloads of heap entries, indexed by `HeapEntry::slot`.
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
            heap: BinaryHeap::new(),
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
        self.push_heap(nanos(at).max(self.now_ns), payload);
    }

    fn push_heap(&mut self, at_ns: u64, payload: T) {
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
        self.heap.push(HeapEntry { key, slot });
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
            None => return self.push_heap(at_ns, payload),
        };
        let key = self.key(at_ns);
        self.lanes[lane].push_back((key, payload));
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Duration, T)> {
        // `None` names the heap, `Some(i)` lane `i`.
        let mut best = self.heap.peek().map(|e| (e.key, None));
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some((key, _)) = lane.front() {
                if best.is_none_or(|(b, _)| *key < b) {
                    best = Some((*key, Some(i)));
                }
            }
        }
        let (key, source) = best?;
        let payload = match source {
            None => self.heap.pop().and_then(|e| {
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
    fn delays_beyond_the_lane_budget_share_the_heap() {
        let mut q = EventQueue::new();
        for d in (1..=2 * MAX_LANES as u64).rev() {
            q.schedule_in(ms(d), d);
        }
        assert_eq!(q.lanes.len(), MAX_LANES);
        assert_eq!(q.heap.len(), MAX_LANES);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (1..=2 * MAX_LANES as u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "584 years")]
    fn times_past_u64_nanoseconds_panic_instead_of_wrapping() {
        let mut q = EventQueue::new();
        q.schedule(Duration::from_secs(600 * 365 * 86_400), ());
    }
}
