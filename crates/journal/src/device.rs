//! The simulated append-only storage device.
//!
//! Like the TPM and the network link, the disk is a *model*: every
//! operation returns its cost as a virtual-clock [`Duration`] (the
//! caller advances the simulated machine), and durability is explicit —
//! appended bytes sit in a volatile write cache until a flush moves them
//! to the durable media. Faults are injectable so crash-consistency is
//! testable deterministically: flushes can be silently dropped (a lying
//! drive), the device can halt after a configured number of appends (a
//! dying disk), and a crash can leave a torn tail — a prefix of the
//! unflushed cache, optionally with its last byte corrupted — exactly
//! the suffix states a real power loss produces.

use std::collections::BTreeSet;
use std::time::Duration;

/// Calibrated latency model for one device class. Append cost is
/// `append_base + append_per_byte × len`; a flush costs `flush` flat
/// (the dominant term for small settlement records, as fsync is on real
/// hardware); sequential recovery reads cost
/// `read_base + read_per_byte × len`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Fixed per-append overhead (submission, translation layers).
    pub append_base: Duration,
    /// Marginal cost per appended byte.
    pub append_per_byte: Duration,
    /// Cost of one durability barrier (fsync).
    pub flush: Duration,
    /// Fixed cost to open a sequential read (seek / queue).
    pub read_base: Duration,
    /// Marginal cost per byte read back during recovery.
    pub read_per_byte: Duration,
}

impl DeviceProfile {
    /// An NVMe-class drive: ~30 µs barriers, ~1 GB/s small writes.
    pub fn nvme() -> Self {
        DeviceProfile {
            append_base: Duration::from_nanos(1_000),
            append_per_byte: Duration::from_nanos(1),
            flush: Duration::from_micros(30),
            read_base: Duration::from_micros(10),
            read_per_byte: Duration::from_nanos(1),
        }
    }

    /// A SATA-SSD-class drive: ~0.5 ms barriers.
    pub fn ssd() -> Self {
        DeviceProfile {
            append_base: Duration::from_micros(5),
            append_per_byte: Duration::from_nanos(2),
            flush: Duration::from_micros(500),
            read_base: Duration::from_micros(100),
            read_per_byte: Duration::from_nanos(2),
        }
    }

    /// A spinning disk: ~12 ms barriers (rotational latency dominates).
    pub fn hdd() -> Self {
        DeviceProfile {
            append_base: Duration::from_micros(20),
            append_per_byte: Duration::from_nanos(10),
            flush: Duration::from_millis(12),
            read_base: Duration::from_millis(8),
            read_per_byte: Duration::from_nanos(10),
        }
    }

    /// Small, round costs for unit tests.
    pub fn fast_for_tests() -> Self {
        DeviceProfile {
            append_base: Duration::from_micros(1),
            append_per_byte: Duration::from_nanos(1),
            flush: Duration::from_micros(100),
            read_base: Duration::from_micros(10),
            read_per_byte: Duration::from_nanos(1),
        }
    }

    fn append_cost(&self, len: usize) -> Duration {
        self.append_base + self.append_per_byte * len as u32
    }

    fn read_cost(&self, len: usize) -> Duration {
        self.read_base + self.read_per_byte * len as u32
    }
}

/// Injectable fault script. All fields default to "no faults".
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// 1-based indexes of flush calls the device silently drops: the
    /// call returns normally (and is billed normally) but the cache is
    /// not persisted — a lying drive. A later honest flush still
    /// persists the data; a crash before one loses it.
    pub drop_flushes: BTreeSet<u64>,
    /// After this many accepted appends the device halts: subsequent
    /// appends and flushes are silently discarded (a dying disk).
    pub halt_after_appends: Option<u64>,
    /// On [`StorageDevice::crash`], keep this many bytes of the
    /// unflushed cache as a torn tail on the media.
    pub torn_tail_bytes: usize,
    /// If true, the last surviving torn-tail byte has its low bit
    /// flipped (a partially written sector).
    pub corrupt_torn_tail: bool,
}

impl FaultPlan {
    /// A fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }
}

/// Operation counters, snapshotted by [`StorageDevice::counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Appends accepted (halted-device drops excluded).
    pub appends: u64,
    /// Bytes accepted into the cache.
    pub bytes_appended: u64,
    /// Flush calls made (including dropped ones).
    pub flushes: u64,
    /// Flushes the fault plan silently dropped.
    pub flushes_dropped: u64,
}

/// The simulated append-only device: durable media plus a volatile
/// write cache, with deterministic costs and scripted faults.
///
/// `Clone` copies the whole device — media, cache, fault script and
/// counters — which is how the adversarial explorer forks a branch of
/// the state space without disturbing the original timeline.
#[derive(Debug, Clone)]
pub struct StorageDevice {
    profile: DeviceProfile,
    faults: FaultPlan,
    media: Vec<u8>,
    cache: Vec<u8>,
    halted: bool,
    counters: DeviceCounters,
}

impl StorageDevice {
    /// A fault-free device with the given cost model.
    pub fn new(profile: DeviceProfile) -> Self {
        Self::with_faults(profile, FaultPlan::none())
    }

    /// A device with a scripted fault plan.
    pub fn with_faults(profile: DeviceProfile, faults: FaultPlan) -> Self {
        StorageDevice {
            profile,
            faults,
            media: Vec::new(),
            cache: Vec::new(),
            halted: false,
            counters: DeviceCounters::default(),
        }
    }

    /// Appends bytes to the write cache, returning the virtual cost.
    /// A halted device discards the write and costs nothing.
    pub fn append(&mut self, bytes: &[u8]) -> Duration {
        if self.halted {
            return Duration::ZERO;
        }
        self.cache.extend_from_slice(bytes);
        self.counters.appends += 1;
        self.counters.bytes_appended += bytes.len() as u64;
        if self.faults.halt_after_appends == Some(self.counters.appends) {
            self.halted = true;
        }
        self.profile.append_cost(bytes.len())
    }

    /// Durability barrier: moves the cache onto the media — unless this
    /// flush index is scripted to be dropped, in which case the call is
    /// billed but the cache stays volatile. Returns the virtual cost.
    pub fn flush(&mut self) -> Duration {
        if self.halted {
            return Duration::ZERO;
        }
        self.counters.flushes += 1;
        if self.faults.drop_flushes.contains(&self.counters.flushes) {
            self.counters.flushes_dropped += 1;
        } else {
            self.media.append(&mut self.cache);
        }
        self.profile.flush
    }

    /// Power loss: the unflushed cache is lost, except for a scripted
    /// torn tail (a prefix of the cache, optionally with its final byte
    /// corrupted) that lands on the media. The device is usable again
    /// afterwards — recovery reads [`StorageDevice::durable`].
    pub fn crash(&mut self) {
        let keep = self.faults.torn_tail_bytes.min(self.cache.len());
        if keep > 0 {
            let mut tail = self.cache[..keep].to_vec();
            if self.faults.corrupt_torn_tail {
                // `keep > 0` guarantees a last element.
                if let Some(last) = tail.last_mut() {
                    *last ^= 1;
                }
            }
            self.media.extend_from_slice(&tail);
        }
        self.cache.clear();
        self.halted = false;
    }

    /// The durable bytes (what survives a crash right now).
    pub fn durable(&self) -> &[u8] {
        &self.media
    }

    /// The full appended view (media plus unflushed cache) — what a
    /// live reader sees, not what a crash preserves.
    pub fn appended(&self) -> Vec<u8> {
        let mut all = self.media.clone();
        all.extend_from_slice(&self.cache);
        all
    }

    /// Bytes sitting in the volatile cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Cost of sequentially reading `len` bytes back (recovery).
    pub fn read_cost(&self, len: usize) -> Duration {
        self.profile.read_cost(len)
    }

    /// Truncates the log to a new generation (media and cache cleared),
    /// billed as one barrier. Used after a snapshot supersedes the log.
    pub fn truncate(&mut self) -> Duration {
        self.media.clear();
        self.cache.clear();
        self.profile.flush
    }

    /// Discards durable bytes beyond `len` — crash repair: recovery
    /// chops a torn/corrupt suffix so later appends extend a clean
    /// prefix.
    pub fn discard_after(&mut self, len: usize) {
        self.media.truncate(len);
    }

    /// Replaces the durable media with a captured image, clearing the
    /// cache. Rehydration support for crash-point sweeps: this models
    /// swapping the platter in, not writing through the interface, so
    /// it costs nothing and bumps no counters.
    pub fn seed_media(&mut self, bytes: &[u8]) {
        self.media = bytes.to_vec();
        self.cache.clear();
    }

    /// Is the device halted by the fault plan?
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Operation counters.
    pub fn counters(&self) -> DeviceCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_flush_is_durable() {
        let mut d = StorageDevice::new(DeviceProfile::fast_for_tests());
        let c1 = d.append(b"hello");
        assert_eq!(c1, Duration::from_nanos(1_005));
        assert_eq!(d.durable(), b"");
        assert_eq!(d.cache_len(), 5);
        let c2 = d.flush();
        assert_eq!(c2, Duration::from_micros(100));
        assert_eq!(d.durable(), b"hello");
        assert_eq!(d.cache_len(), 0);
    }

    #[test]
    fn crash_loses_unflushed_cache() {
        let mut d = StorageDevice::new(DeviceProfile::fast_for_tests());
        d.append(b"durable");
        d.flush();
        d.append(b"volatile");
        d.crash();
        assert_eq!(d.durable(), b"durable");
        assert_eq!(d.cache_len(), 0);
    }

    #[test]
    fn torn_tail_survives_crash_with_corruption() {
        let faults = FaultPlan {
            torn_tail_bytes: 3,
            corrupt_torn_tail: true,
            ..FaultPlan::none()
        };
        let mut d = StorageDevice::with_faults(DeviceProfile::fast_for_tests(), faults);
        d.append(b"abcdef");
        d.crash();
        // First two torn bytes intact, third has its low bit flipped.
        assert_eq!(d.durable(), &[b'a', b'b', b'c' ^ 1]);
    }

    #[test]
    fn dropped_flush_loses_data_on_crash_but_later_flush_repairs() {
        let faults = FaultPlan {
            drop_flushes: [1].into_iter().collect(),
            ..FaultPlan::none()
        };
        let mut d = StorageDevice::with_faults(DeviceProfile::fast_for_tests(), faults);
        d.append(b"x");
        d.flush(); // dropped: billed, not persisted
        assert_eq!(d.durable(), b"");
        assert_eq!(d.counters().flushes_dropped, 1);
        d.flush(); // honest: repairs
        assert_eq!(d.durable(), b"x");
    }

    #[test]
    fn halted_device_discards_writes_silently() {
        let faults = FaultPlan {
            halt_after_appends: Some(2),
            ..FaultPlan::none()
        };
        let mut d = StorageDevice::with_faults(DeviceProfile::fast_for_tests(), faults);
        d.append(b"a");
        d.append(b"b"); // the halting append still lands in cache
        assert!(d.halted());
        assert_eq!(d.append(b"c"), Duration::ZERO);
        assert_eq!(d.flush(), Duration::ZERO);
        d.crash(); // power-cycle clears the halt
        assert!(!d.halted());
        assert_eq!(d.durable(), b"");
    }

    #[test]
    fn truncate_and_discard_after() {
        let mut d = StorageDevice::new(DeviceProfile::fast_for_tests());
        d.append(b"0123456789");
        d.flush();
        d.discard_after(4);
        assert_eq!(d.durable(), b"0123");
        d.truncate();
        assert_eq!(d.durable(), b"");
    }

    #[test]
    fn profiles_order_sanely() {
        for p in [
            DeviceProfile::nvme(),
            DeviceProfile::ssd(),
            DeviceProfile::hdd(),
        ] {
            assert!(p.flush > p.append_cost(64), "flush dominates appends");
        }
        assert!(DeviceProfile::hdd().flush > DeviceProfile::ssd().flush);
        assert!(DeviceProfile::ssd().flush > DeviceProfile::nvme().flush);
    }
}
