//! The message bus: typed frames routed over a [`Topology`] with
//! per-hop delay, loss, reordering, and scripted partitions.
//!
//! Delivery is simulated end to end in one step: `transit` walks the
//! route, accumulates per-hop delay, rolls loss/partition fate per
//! hop, and returns either the frame's one-way delay, at which the
//! caller schedules its delivery, or `None` for a dropped frame.
//! Accounting is split: a hop only counts toward
//! `messages_carried`/`bytes_carried` once the frame is known to
//! survive that hop; otherwise it lands in
//! `messages_dropped`/`bytes_dropped` for the hop that killed it.
//!
//! Every simulated frame takes this path, so it allocates nothing and
//! repeats no float work. The route is a `Copy`
//! [`Route`](crate::topology::Route) of at most four hops. Per-hop
//! delay is the flat [`Link`](crate::Link) model's formula,
//! [`LinkConfig::delay`](crate::LinkConfig::delay), split in two: the
//! [`fixed_delay`](crate::LinkConfig::fixed_delay) term (propagation +
//! serialization) is computed once per (frame size, link class) and
//! kept, and [`jittered`](crate::LinkConfig::jittered) adds the per-hop
//! jitter draw to it. A hop draws loss, jitter and reorder in the same
//! order whatever the link's settings, so the RNG stream, and with it
//! every delay, is the same as recomputing the formula per hop.

use crate::topology::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// What a frame carries — the five message kinds of the confirmation
/// protocol's network footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// Client → provider: open an order.
    PlaceOrder,
    /// Provider → client: the signed challenge/nonce.
    Challenge,
    /// Client → provider: the confirmation evidence. `replay` marks a
    /// retry resending evidence already delivered at least once.
    Evidence {
        /// True when this is a timeout-driven resend.
        replay: bool,
    },
    /// Provider → client: the settlement receipt. `settled` is false
    /// for a rejection receipt.
    Receipt {
        /// True when the transaction settled.
        settled: bool,
    },
    /// Provider → client: admission control shed the submission; retry
    /// no sooner than the carried delay.
    RetryAfter {
        /// Back-off the provider asked for.
        delay: Duration,
    },
}

/// One routed message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Typed payload.
    pub payload: Payload,
    /// Wire size in bytes (drives serialization delay).
    pub bytes: u32,
    /// The transaction this frame belongs to.
    pub txn: u64,
}

/// Aggregated per-class link accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Messages that survived a hop of this class.
    pub messages_carried: u64,
    /// Bytes that survived a hop of this class.
    pub bytes_carried: u64,
    /// Messages killed on a hop of this class (loss or partition).
    pub messages_dropped: u64,
    /// Bytes killed on a hop of this class.
    pub bytes_dropped: u64,
}

/// Frame sizes whose fixed delay terms the bus keeps; a scenario sends
/// five ([`WireSizes`](crate::WireSizes)).
const CACHED_SIZES: usize = 8;

/// Routes frames over a topology, rolling each frame's delay and fate.
pub struct MessageBus {
    topology: Topology,
    rng: StdRng,
    stats: Vec<ClassStats>,
    /// Per frame size seen, the
    /// [`LinkConfig::fixed_delay`](crate::LinkConfig::fixed_delay) of
    /// every class, indexed like [`Topology::classes`].
    fixed: Vec<(u32, Vec<Duration>)>,
}

impl MessageBus {
    /// A bus over `topology`, with all jitter/loss/reorder draws
    /// derived from `seed`.
    pub fn new(topology: Topology, seed: u64) -> MessageBus {
        let stats = vec![ClassStats::default(); topology.classes().len()];
        MessageBus {
            topology,
            rng: StdRng::seed_from_u64(seed ^ 0x0042_5553_u64),
            stats,
            fixed: Vec::new(),
        }
    }

    /// The topology the bus routes over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-class accounting, indexed like [`Topology::classes`].
    pub fn class_stats(&self) -> &[ClassStats] {
        &self.stats
    }

    /// Rolls the fate of `frame`, sent at virtual time `now`, hop by
    /// hop and returns its one-way delay, or `None` if loss or a
    /// partition window kills it. Accounting happens here; the caller
    /// schedules the delivery at `now + delay`.
    pub fn transit(&mut self, frame: &Frame, now: Duration) -> Option<Duration> {
        let row = self.fixed_row(frame.bytes);
        let route = self.topology.route(frame.src, frame.dst);
        let mut elapsed = Duration::ZERO;
        for &class in route.iter() {
            let idx = class as usize;
            let profile = &self.topology.classes()[idx].1;
            let depart = now + elapsed;
            // Fate first: accounting must not count a frame as carried
            // before it is known to survive the hop.
            let killed = profile.is_partitioned(depart)
                || (profile.loss_ppm > 0
                    && self.rng.gen_range(0..1_000_000_u32) < profile.loss_ppm);
            if killed {
                self.stats[idx].messages_dropped += 1;
                self.stats[idx].bytes_dropped += u64::from(frame.bytes);
                return None;
            }
            self.stats[idx].messages_carried += 1;
            self.stats[idx].bytes_carried += u64::from(frame.bytes);
            let delay = profile
                .config
                .jittered(self.fixed[row].1[idx], self.rng.gen::<f64>());
            let reorder = if profile.reorder_ppm > 0
                && self.rng.gen_range(0..1_000_000_u32) < profile.reorder_ppm
            {
                profile.reorder_window.mul_f64(self.rng.gen::<f64>())
            } else {
                Duration::ZERO
            };
            elapsed += delay + reorder;
        }
        Some(elapsed)
    }

    /// The row of `fixed` for frames of `bytes`, computed on first use.
    /// Past `CACHED_SIZES` distinct sizes the newest row is replaced.
    fn fixed_row(&mut self, bytes: u32) -> usize {
        if let Some(row) = self.fixed.iter().position(|(b, _)| *b == bytes) {
            return row;
        }
        if self.fixed.len() == CACHED_SIZES {
            self.fixed.pop();
        }
        let per_class = self
            .topology
            .classes()
            .iter()
            .map(|(_, profile)| profile.config.fixed_delay(u64::from(bytes)))
            .collect();
        self.fixed.push((bytes, per_class));
        self.fixed.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkProfile;
    use crate::LinkConfig;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn frame(src: u32, dst: u32, bytes: u32) -> Frame {
        Frame {
            src: NodeId(src),
            dst: NodeId(dst),
            payload: Payload::PlaceOrder,
            bytes,
            txn: 1,
        }
    }

    #[test]
    fn clean_star_delivers_with_floor_delay() {
        let t = Topology::star(2, LinkProfile::clean(LinkConfig::fixed_rtt(ms(40))));
        let mut bus = MessageBus::new(t, 7);
        let d = bus.transit(&frame(1, 0, 1_000), Duration::ZERO);
        let d = d.expect("clean link never drops");
        assert!(d >= ms(20), "at least half the RTT: {d:?}");
        assert_eq!(bus.class_stats()[0].messages_carried, 1);
        assert_eq!(bus.class_stats()[0].bytes_carried, 1_000);
        assert_eq!(bus.class_stats()[0].messages_dropped, 0);
    }

    #[test]
    fn partition_window_drops_and_accounts_separately() {
        let profile =
            LinkProfile::clean(LinkConfig::fixed_rtt(ms(10))).with_partition(ms(100), ms(200));
        let t = Topology::star(1, profile);
        let mut bus = MessageBus::new(t, 7);
        assert!(bus.transit(&frame(1, 0, 64), ms(150)).is_none());
        assert_eq!(bus.class_stats()[0].messages_dropped, 1);
        assert_eq!(bus.class_stats()[0].bytes_dropped, 64);
        assert_eq!(bus.class_stats()[0].messages_carried, 0);
        // After heal, traffic flows again.
        assert!(bus.transit(&frame(1, 0, 64), ms(250)).is_some());
        assert_eq!(bus.class_stats()[0].messages_carried, 1);
    }

    #[test]
    fn total_loss_kills_everything_deterministically() {
        let profile = LinkProfile::clean(LinkConfig::fixed_rtt(ms(10))).with_loss_ppm(1_000_000);
        let t = Topology::star(1, profile);
        let mut bus = MessageBus::new(t, 3);
        for _ in 0..10 {
            assert!(bus.transit(&frame(1, 0, 10), Duration::ZERO).is_none());
        }
        assert_eq!(bus.class_stats()[0].messages_dropped, 10);
        assert_eq!(bus.class_stats()[0].messages_carried, 0);
    }

    #[test]
    fn two_tier_hop_accounting_lands_per_class() {
        let core = LinkProfile::clean(LinkConfig::fixed_rtt(ms(4)));
        let leaf = LinkProfile::clean(LinkConfig::fixed_rtt(ms(30)));
        let t = Topology::two_tier(1, 1, core, leaf);
        let mut bus = MessageBus::new(t, 5);
        let d = bus
            .transit(&frame(2, 0, 100), Duration::ZERO)
            .expect("clean path");
        assert!(d >= ms(17), "leaf half-RTT 15ms + core half-RTT 2ms: {d:?}");
        assert_eq!(bus.class_stats()[0].messages_carried, 1, "core hop");
        assert_eq!(bus.class_stats()[1].messages_carried, 1, "leaf hop");
    }

    #[test]
    fn transit_delay_is_the_sum_of_per_hop_link_delays() {
        // Loss-free, jitter-free classes whose bandwidths differ, so
        // one frame size has a different fixed term on each class.
        let core = LinkConfig::fixed_rtt_bw(ms(4), 50_000_000);
        let leaf = LinkConfig::fixed_rtt_bw(ms(30), 100_000);
        let t = Topology::two_tier(
            1,
            1,
            LinkProfile::clean(core.clone()),
            LinkProfile::clean(leaf.clone()),
        );
        let mut bus = MessageBus::new(t, 9);
        // Thirteen distinct sizes, more than the bus keeps rows for,
        // then three early ones again.
        let sizes = [64, 2_048, 777].into_iter().chain(1..=10);
        for bytes in sizes.chain([64, 2_048, 777]) {
            let expected = leaf.delay(u64::from(bytes), 0.0) + core.delay(u64::from(bytes), 0.0);
            for (src, dst) in [(2, 0), (0, 2)] {
                assert_eq!(
                    bus.transit(&frame(src, dst, bytes), ms(5)),
                    Some(expected),
                    "{bytes} B from node {src} to node {dst}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_deliveries() {
        let profile = LinkProfile::clean(LinkConfig::broadband()).with_loss_ppm(200_000);
        let run = |seed: u64| {
            let t = Topology::star(4, profile.clone());
            let mut bus = MessageBus::new(t, seed);
            let mut deliveries = Vec::new();
            for i in 0..40 {
                let f = frame(1 + (i % 4), 0, 200);
                deliveries.push(bus.transit(&f, ms(u64::from(i))));
            }
            (deliveries, bus.class_stats().to_vec())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0, "seed changes the jitter/loss draws");
    }
}
