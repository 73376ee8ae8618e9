//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel::unbounded` and `crossbeam::channel::
//! bounded` — the APIs the workspace uses — as multi-producer
//! multi-consumer queues over a `Mutex` + `Condvar` pair. Throughput is
//! lower than real crossbeam but semantics (cloneable receivers,
//! disconnect on last-sender/last-receiver drop, blocking backpressure on
//! full bounded queues) match.
//!
//! A `Condvar` notify costs a futex syscall even when no thread waits,
//! so each side counts its blocked threads under the channel mutex and
//! notifies only when that count is non-zero: a send to a receiver that
//! is already busy, or a drop nobody waits on, makes no syscall.

#![forbid(unsafe_code)]

/// MPMC channels mirroring `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        /// Signaled, while a receiver is blocked, when an item is
        /// enqueued or the last sender drops.
        ready: Condvar,
        /// Signaled, while a sender is blocked on a full bounded queue,
        /// when an item is dequeued or the last receiver drops.
        space: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// `usize::MAX` for unbounded channels.
        capacity: usize,
        /// Receivers blocked on `ready`.
        blocked_receivers: usize,
        /// Senders blocked on `space` (full bounded queue).
        blocked_senders: usize,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded queue is at capacity.
        Full(T),
        /// All receivers are gone.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::recv`] once the channel is empty and
    /// every sender has been dropped.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> core::fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> core::fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    fn with_capacity<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
                capacity,
                blocked_receivers: 0,
                blocked_senders: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(usize::MAX)
    }

    /// Creates a bounded MPMC channel: [`Sender::send`] blocks while the
    /// queue holds `capacity` items, which is the backpressure the
    /// verification service relies on. A capacity of zero is rounded up
    /// to one (the shim has no rendezvous mode).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(capacity.max(1))
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, blocking while a bounded queue is full.
        ///
        /// # Errors
        ///
        /// Returns the value if every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                if state.items.len() < state.capacity {
                    state.items.push_back(value);
                    let wake = state.blocked_receivers > 0;
                    drop(state);
                    if wake {
                        self.shared.ready.notify_one();
                    }
                    return Ok(());
                }
                state.blocked_senders += 1;
                state = self
                    .shared
                    .space
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                state.blocked_senders -= 1;
            }
        }

        /// Enqueues `value` without blocking.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] when a bounded queue is at capacity,
        /// [`TrySendError::Disconnected`] when every receiver is gone.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if state.items.len() >= state.capacity {
                return Err(TrySendError::Full(value));
            }
            state.items.push_back(value);
            let wake = state.blocked_receivers > 0;
            drop(state);
            if wake {
                self.shared.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.senders += 1;
            drop(state);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.senders -= 1;
            let wake = state.senders == 0 && state.blocked_receivers > 0;
            drop(state);
            if wake {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until an item arrives or all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(item) = state.items.pop_front() {
                    let wake = state.blocked_senders > 0;
                    drop(state);
                    if wake {
                        self.shared.space.notify_one();
                    }
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.blocked_receivers += 1;
                state = self
                    .shared
                    .ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                state.blocked_receivers -= 1;
            }
        }

        /// Returns an item if one is queued, without blocking on producers.
        pub fn try_recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            let item = state.items.pop_front().ok_or(RecvError)?;
            let wake = state.blocked_senders > 0;
            drop(state);
            if wake {
                self.shared.space.notify_one();
            }
            Ok(item)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers += 1;
            drop(state);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers -= 1;
            let wake = state.receivers == 0 && state.blocked_senders > 0;
            drop(state);
            if wake {
                self.shared.space.notify_all();
            }
        }
    }

    /// Wake-up tests: each parks a thread in `recv` or `send`, waits
    /// until the channel counts it as blocked, then checks that the one
    /// event meant to wake it does.
    #[cfg(test)]
    mod tests {
        use super::*;

        /// Spins until `n` threads are blocked on `shared`, as counted by
        /// `blocked`.
        fn await_blocked<T>(shared: &Shared<T>, n: usize, blocked: fn(&State<T>) -> usize) {
            while blocked(&shared.queue.lock().unwrap()) < n {
                std::thread::yield_now();
            }
        }

        fn receivers<T>(state: &State<T>) -> usize {
            state.blocked_receivers
        }

        fn senders<T>(state: &State<T>) -> usize {
            state.blocked_senders
        }

        /// No thread is left counted as blocked.
        fn assert_idle<T>(shared: &Shared<T>) {
            let state = shared.queue.lock().unwrap();
            assert_eq!((state.blocked_receivers, state.blocked_senders), (0, 0));
        }

        #[test]
        fn blocked_receiver_wakes_on_send() {
            let (tx, rx) = unbounded::<u8>();
            std::thread::scope(|scope| {
                let receiver = scope.spawn(|| rx.recv());
                await_blocked(&tx.shared, 1, receivers);
                tx.send(7).unwrap();
                assert_eq!(receiver.join().unwrap(), Ok(7));
            });
            assert_idle(&tx.shared);
        }

        #[test]
        fn blocked_receiver_wakes_on_last_sender_drop() {
            let (tx, rx) = unbounded::<u8>();
            let tx2 = tx.clone();
            std::thread::scope(|scope| {
                let receiver = scope.spawn(|| rx.recv());
                await_blocked(&rx.shared, 1, receivers);
                drop(tx);
                drop(tx2);
                assert_eq!(receiver.join().unwrap(), Err(RecvError));
            });
            assert_idle(&rx.shared);
        }

        #[test]
        fn blocked_sender_wakes_on_recv() {
            let (tx, rx) = bounded::<u8>(1);
            tx.send(1).unwrap();
            std::thread::scope(|scope| {
                let sender = scope.spawn(|| tx.send(2));
                await_blocked(&rx.shared, 1, senders);
                assert_eq!(rx.recv(), Ok(1));
                assert_eq!(sender.join().unwrap(), Ok(()));
            });
            assert_eq!(rx.try_recv(), Ok(2));
            assert_idle(&rx.shared);
        }

        #[test]
        fn blocked_sender_wakes_on_last_receiver_drop() {
            let (tx, rx) = bounded::<u8>(1);
            let rx2 = rx.clone();
            tx.send(1).unwrap();
            std::thread::scope(|scope| {
                let sender = scope.spawn(|| tx.send(2));
                await_blocked(&tx.shared, 1, senders);
                drop(rx);
                drop(rx2);
                assert_eq!(sender.join().unwrap(), Err(SendError(2)));
            });
            assert_idle(&tx.shared);
        }

        #[test]
        fn fan_out_to_blocked_receivers_drains_every_item() {
            let (tx, rx) = unbounded::<usize>();
            let mut seen: Vec<usize> = Vec::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..4)
                    .map(|_| {
                        let rx = rx.clone();
                        scope.spawn(move || {
                            let mut got = Vec::new();
                            while let Ok(i) = rx.recv() {
                                got.push(i);
                            }
                            got
                        })
                    })
                    .collect();
                await_blocked(&tx.shared, 4, receivers);
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
                let shared = Arc::clone(&tx.shared);
                drop(tx);
                for h in handles {
                    seen.extend(h.join().unwrap());
                }
                assert_idle(&shared);
            });
            seen.sort_unstable();
            assert_eq!(seen, (0..100).collect::<Vec<_>>());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    #[test]
    fn fan_out_drains_every_item() {
        let (tx, rx) = channel::unbounded::<usize>();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut seen: Vec<usize> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let rx = rx.clone();
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(i) = rx.recv() {
                            got.push(i);
                        }
                        got
                    })
                })
                .collect();
            for h in handles {
                seen.extend(h.join().unwrap());
            }
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_errors_after_last_sender_drops() {
        let (tx, rx) = channel::unbounded::<u8>();
        let tx2 = tx.clone();
        drop(tx);
        tx2.send(7).unwrap();
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn send_errors_after_last_receiver_drops() {
        let (tx, rx) = channel::bounded::<u8>(4);
        drop(rx);
        assert_eq!(tx.send(1), Err(channel::SendError(1)));
        assert_eq!(tx.try_send(2), Err(channel::TrySendError::Disconnected(2)));
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = channel::bounded::<u8>(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(channel::TrySendError::Full(3)));
        assert_eq!(rx.try_recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn bounded_send_blocks_until_space() {
        let (tx, rx) = channel::bounded::<usize>(1);
        tx.send(0).unwrap();
        std::thread::scope(|scope| {
            let sender = scope.spawn(|| {
                // Blocks until the main thread drains the first item.
                tx.send(1).unwrap();
            });
            assert_eq!(rx.recv(), Ok(0));
            sender.join().unwrap();
            assert_eq!(rx.recv(), Ok(1));
        });
    }

    #[test]
    fn bounded_backpressure_preserves_every_item() {
        let (tx, rx) = channel::bounded::<usize>(2);
        std::thread::scope(|scope| {
            for base in [0usize, 100] {
                let tx = tx.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        tx.send(base + i).unwrap();
                    }
                });
            }
            drop(tx);
            let mut seen = Vec::new();
            while let Ok(i) = rx.recv() {
                seen.push(i);
            }
            seen.sort_unstable();
            let expected: Vec<usize> = (0..50).chain(100..150).collect();
            assert_eq!(seen, expected);
        });
    }
}
