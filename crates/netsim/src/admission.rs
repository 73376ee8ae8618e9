//! Admission control policy, shared by the live `VerifierService` and
//! the fleet simulator's modeled provider.
//!
//! The policy is deliberately tiny and pure: given the current queue
//! depth — the number of jobs *waiting* in the queue, not counting the
//! ones a worker is already running — it either admits or sheds with a
//! typed retry-after hint that grows linearly with the backlog. Both
//! users read depth that way: the service's gauge drops when a worker
//! dequeues a job, and the simulator reads its queue's length. Keeping it here (the lowest crate
//! in the dependency chain that both the server and the simulator can
//! see) means the E13 saturation sweep tunes exactly the code the
//! production service runs.

use std::time::Duration;

/// Bounded-queue early-shed policy. "Depth" throughout is the number of
/// jobs waiting in the queue; jobs already running are not counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Waiting jobs at which submissions start being shed. Must be at
    /// least 1.
    pub max_queue: usize,
    /// Minimum retry-after handed to a shed client.
    pub retry_floor: Duration,
    /// Extra retry-after per queued job at shed time — an estimate of
    /// per-job service time, so the hint tracks the actual backlog
    /// drain horizon.
    pub retry_per_job: Duration,
}

impl AdmissionConfig {
    /// A policy sized for a queue bound and an estimated per-job
    /// service time: the retry hint starts at one service time and
    /// grows with the backlog.
    pub fn for_service_time(max_queue: usize, service_time: Duration) -> AdmissionConfig {
        AdmissionConfig {
            max_queue,
            retry_floor: service_time,
            retry_per_job: service_time,
        }
    }

    /// Decides the fate of a submission arriving while `queue_depth`
    /// jobs are waiting.
    pub fn decide(&self, queue_depth: usize) -> Admission {
        if queue_depth < self.max_queue.max(1) {
            return Admission::Admit;
        }
        let retry_after = self.retry_floor + self.retry_per_job * queue_depth as u32;
        Admission::Shed { retry_after }
    }
}

/// The outcome of an admission decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Enqueue the job.
    Admit,
    /// Shed it now; the client should retry no sooner than
    /// `retry_after`.
    Shed {
        /// Back-off hint proportional to the backlog at shed time.
        retry_after: Duration,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_below_bound_sheds_at_bound() {
        let policy = AdmissionConfig::for_service_time(4, Duration::from_micros(100));
        assert_eq!(policy.decide(0), Admission::Admit);
        assert_eq!(policy.decide(3), Admission::Admit);
        match policy.decide(4) {
            Admission::Shed { retry_after } => {
                assert_eq!(retry_after, Duration::from_micros(500));
            }
            Admission::Admit => panic!("depth at bound must shed"),
        }
    }

    #[test]
    fn retry_hint_grows_with_backlog() {
        let policy = AdmissionConfig::for_service_time(2, Duration::from_millis(1));
        let at = |depth: usize| match policy.decide(depth) {
            Admission::Shed { retry_after } => retry_after,
            Admission::Admit => panic!("expected shed at depth {depth}"),
        };
        assert!(at(10) > at(2), "deeper backlog, longer hint");
    }

    #[test]
    fn zero_bound_still_admits_nothing_past_one() {
        let policy = AdmissionConfig::for_service_time(0, Duration::from_micros(50));
        assert_eq!(policy.decide(0), Admission::Admit, "max_queue clamps to 1");
        assert!(matches!(policy.decide(1), Admission::Shed { .. }));
    }
}
