//! Deterministic network and fleet-load simulation.
//!
//! Two layers live here:
//!
//! - The original flat [`Link`] model — base propagation delay +
//!   seeded jitter + bandwidth-limited serialization — which is all
//!   the single-client end-to-end experiment (E3) needs.
//! - A discrete-event simulator ([`event`], [`topology`], [`bus`],
//!   [`fleet`], [`scenario`]) that routes typed frames over tree
//!   topologies with loss, reordering, and scripted partitions, and
//!   drives fleets of 100k–1M state-machine clients against a modeled
//!   provider — the E13 saturation harness. The [`admission`] policy
//!   it tunes is the same type the live `VerifierService` enforces.
//!
//! Everything runs on virtual time: no host clock is ever read, and
//! every random draw derives from caller-supplied seeds, so runs are
//! byte-reproducible.
//!
//! # Example
//!
//! ```
//! use utp_netsim::{Link, LinkConfig};
//! use std::time::Duration;
//!
//! let mut link = Link::new(LinkConfig::broadband(), 7);
//! let d = link.one_way_delay(1500);
//! assert!(d >= Duration::from_millis(10)); // half the 20 ms base RTT
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod bus;
pub mod event;
pub mod fleet;
pub mod scenario;
pub mod topology;

pub use admission::{Admission, AdmissionConfig};
pub use bus::{ClassStats, Frame, MessageBus, Payload};
pub use event::EventQueue;
pub use fleet::{ArrivalCurve, ArrivalPlan, FleetClient, Phase, RetryPolicy};
pub use scenario::{
    FleetReport, FullStackHook, FullStackTally, HookOutcome, NullHook, ProviderConfig, Scenario,
    WireSizes,
};
pub use topology::{LinkProfile, NodeId, NodeRole, PartitionWindow, Route, Topology};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Link parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkConfig {
    /// Base round-trip time (propagation both ways, no payload).
    pub base_rtt: Duration,
    /// Maximum extra jitter per one-way trip (uniform in `[0, jitter]`).
    pub jitter: Duration,
    /// Serialization bandwidth in bytes per second.
    pub bandwidth: u64,
}

impl LinkConfig {
    /// 2011-era home broadband: 20 ms RTT, ±5 ms jitter, 1 MB/s up.
    pub fn broadband() -> Self {
        LinkConfig {
            base_rtt: Duration::from_millis(20),
            jitter: Duration::from_millis(5),
            bandwidth: 1_000_000,
        }
    }

    /// Continental path: 80 ms RTT.
    pub fn continental() -> Self {
        LinkConfig {
            base_rtt: Duration::from_millis(80),
            jitter: Duration::from_millis(15),
            bandwidth: 1_000_000,
        }
    }

    /// Intercontinental path: 200 ms RTT.
    pub fn intercontinental() -> Self {
        LinkConfig {
            base_rtt: Duration::from_millis(200),
            jitter: Duration::from_millis(30),
            bandwidth: 500_000,
        }
    }

    /// A custom symmetric link with the given RTT, no jitter, and the
    /// 1 MB/s default bandwidth — used by RTT sweeps.
    pub fn fixed_rtt(rtt: Duration) -> Self {
        LinkConfig::fixed_rtt_bw(rtt, 1_000_000)
    }

    /// A custom symmetric link with the given RTT and bandwidth and no
    /// jitter — lets sweeps vary bandwidth independently of RTT.
    pub fn fixed_rtt_bw(rtt: Duration, bandwidth: u64) -> Self {
        LinkConfig {
            base_rtt: rtt,
            jitter: Duration::ZERO,
            bandwidth,
        }
    }

    /// One-way delay of a `bytes`-long message: propagation (half the
    /// RTT) + serialization + jitter scaled by `draw` in `[0, 1)`. The
    /// caller owns the RNG, and with it the draw order.
    pub fn delay(&self, bytes: u64, draw: f64) -> Duration {
        self.jittered(self.fixed_delay(bytes), draw)
    }

    /// The part of [`delay`](LinkConfig::delay) that no draw moves:
    /// propagation (half the RTT) + serialization of `bytes`. A caller
    /// that sends few distinct sizes can compute it once per size.
    pub fn fixed_delay(&self, bytes: u64) -> Duration {
        let propagation = self.base_rtt / 2;
        let serialization = Duration::from_secs_f64(bytes as f64 / self.bandwidth as f64);
        propagation + serialization
    }

    /// A [`fixed_delay`](LinkConfig::fixed_delay) term plus jitter
    /// scaled by `draw` in `[0, 1)`. `Duration` adds whole
    /// nanoseconds, so the sum does not depend on when `fixed` was
    /// computed.
    pub fn jittered(&self, fixed: Duration, draw: f64) -> Duration {
        fixed + self.jitter.mul_f64(draw)
    }
}

/// A seeded, lossless link instance.
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    rng: StdRng,
    bytes_carried: u64,
    messages_carried: u64,
}

impl Link {
    /// Creates a link with the given config and jitter seed.
    pub fn new(config: LinkConfig, seed: u64) -> Self {
        Link {
            config,
            rng: StdRng::seed_from_u64(seed ^ 0x4e_4554_u64),
            bytes_carried: 0,
            messages_carried: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Time for one message of `payload_len` bytes to cross the link.
    /// Draws one jitter sample and counts the message as carried.
    pub fn one_way_delay(&mut self, payload_len: usize) -> Duration {
        let delay = self.config.delay(payload_len as u64, self.rng.gen::<f64>());
        self.bytes_carried += payload_len as u64;
        self.messages_carried += 1;
        delay
    }

    /// Time for a request/response exchange with the given payload sizes.
    pub fn round_trip(&mut self, request_len: usize, response_len: usize) -> Duration {
        self.one_way_delay(request_len) + self.one_way_delay(response_len)
    }

    /// Total bytes carried (both directions).
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Total messages carried.
    pub fn messages_carried(&self) -> u64 {
        self.messages_carried
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_has_floor_of_half_rtt() {
        let mut link = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(100)), 1);
        for _ in 0..20 {
            assert!(link.one_way_delay(0) >= Duration::from_millis(50));
        }
    }

    #[test]
    fn larger_payloads_take_longer() {
        let mut a = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(10)), 1);
        let small = a.one_way_delay(100);
        let mut b = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(10)), 1);
        let large = b.one_way_delay(1_000_000);
        assert!(large > small + Duration::from_millis(500)); // 1 MB at 1 MB/s
    }

    #[test]
    fn fixed_rtt_bw_scales_serialization() {
        let mut slow = Link::new(
            LinkConfig::fixed_rtt_bw(Duration::from_millis(10), 100_000),
            1,
        );
        let mut fast = Link::new(
            LinkConfig::fixed_rtt_bw(Duration::from_millis(10), 10_000_000),
            1,
        );
        let d_slow = slow.one_way_delay(1_000_000);
        let d_fast = fast.one_way_delay(1_000_000);
        assert!(d_slow >= Duration::from_secs(10), "1 MB at 100 kB/s");
        assert!(d_fast <= Duration::from_millis(200), "1 MB at 10 MB/s");
        assert_eq!(
            LinkConfig::fixed_rtt(Duration::from_millis(5)),
            LinkConfig::fixed_rtt_bw(Duration::from_millis(5), 1_000_000),
            "fixed_rtt delegates to fixed_rtt_bw at the 1 MB/s default"
        );
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let cfg = LinkConfig {
            base_rtt: Duration::from_millis(20),
            jitter: Duration::from_millis(5),
            bandwidth: 1_000_000,
        };
        let mut a = Link::new(cfg.clone(), 9);
        let mut b = Link::new(cfg.clone(), 9);
        for _ in 0..50 {
            let da = a.one_way_delay(64);
            let db = b.one_way_delay(64);
            assert_eq!(da, db);
            assert!(da >= Duration::from_millis(10));
            assert!(da <= Duration::from_millis(16));
        }
    }

    #[test]
    fn round_trip_is_sum_of_legs() {
        let mut link = Link::new(LinkConfig::fixed_rtt(Duration::from_millis(40)), 3);
        let rt = link.round_trip(100, 100);
        assert!(rt >= Duration::from_millis(40));
        assert_eq!(link.messages_carried(), 2);
        assert_eq!(link.bytes_carried(), 200);
    }

    #[test]
    fn split_delay_equals_the_one_piece_formula() {
        let configs = [
            LinkConfig::broadband(),
            LinkConfig::intercontinental(),
            LinkConfig::fixed_rtt_bw(Duration::from_millis(4), 50_000_000),
        ];
        for cfg in &configs {
            for bytes in [0, 64, 1_500, 2_048, 1_000_000] {
                for draw in [0.0, 0.123_456_789, 0.5, 0.999_999] {
                    let one_piece = cfg.base_rtt / 2
                        + cfg.jitter.mul_f64(draw)
                        + Duration::from_secs_f64(bytes as f64 / cfg.bandwidth as f64);
                    assert_eq!(cfg.delay(bytes, draw), one_piece, "{cfg:?} {bytes} B");
                }
            }
        }
    }

    #[test]
    fn presets_order_sensibly() {
        assert!(LinkConfig::broadband().base_rtt < LinkConfig::continental().base_rtt);
        assert!(LinkConfig::continental().base_rtt < LinkConfig::intercontinental().base_rtt);
    }
}
