//! The adversary-action vocabulary shared by the explorer and the
//! attack playbooks.
//!
//! A [`Schedule`] is simply a sequence of [`Action`]s. Actions are
//! *labels*, not closures: the same schedule can be applied to the
//! real stack or a deliberately buggy shim, and can be
//! rendered/persisted as text — which is what makes
//! counterexamples replayable and shrinkable.
//!
//! Inapplicable actions (an order index the scenario does not have, an
//! evidence kind that was never captured) are **deterministic no-ops**.
//! That convention is load-bearing: the delta-debugging shrinker may
//! remove any subsequence of a schedule and the remainder must still
//! mean the same thing for the steps it kept.

use std::fmt;
use std::time::Duration;

/// Which captured evidence variant to deliver for an order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceKind {
    /// The genuine, human-approved evidence captured off the wire.
    Genuine,
    /// Evidence from a PAL run where the human rejected the quote.
    Rejected,
    /// The genuine token re-encoded with a flipped field: the quote no
    /// longer covers the token bytes, so the chain check must fail.
    TamperedToken,
    /// The genuine evidence with its AIK certificate swapped for one
    /// issued by a CA the provider does not trust.
    RogueCert,
}

impl EvidenceKind {
    /// Stable lowercase label used in rendered schedules and logs.
    pub fn label(&self) -> &'static str {
        match self {
            EvidenceKind::Genuine => "genuine",
            EvidenceKind::Rejected => "rejected",
            EvidenceKind::TamperedToken => "tampered",
            EvidenceKind::RogueCert => "roguecert",
        }
    }
}

/// How the durable substrate fails before recovery runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Power loss: everything staged in the write caches is gone; the
    /// durable media survive as-is.
    PowerLoss,
    /// Power loss plus media rollback: the durable WAL additionally
    /// loses its last `drop_frames` complete frames (frame-boundary
    /// crash-point injection). The cut is clamped at the durable base
    /// (last checkpoint / prologue image): losing history *below* the
    /// base is the rollback adversary's move, not a crash.
    Truncate {
        /// Complete tail frames removed from the durable log.
        drop_frames: usize,
    },
    /// Power loss mid-write: the durable WAL ends `bytes` into its last
    /// frame — a torn tail the recovery scan must fail-closed on.
    /// Clamped at the durable base like [`CrashKind::Truncate`].
    TornTail {
        /// Bytes cut off the durable log (not frame-aligned).
        bytes: usize,
    },
    /// The adversary substitutes the durable image captured at the last
    /// [`Action::Checkpoint`] (or scenario start) — a storage rollback.
    Rollback,
}

impl CrashKind {
    /// Stable lowercase label used in rendered schedules and logs.
    pub fn label(&self) -> String {
        match self {
            CrashKind::PowerLoss => "power".to_string(),
            CrashKind::Truncate { drop_frames } => format!("truncate frames={drop_frames}"),
            CrashKind::TornTail { bytes } => format!("torn bytes={bytes}"),
            CrashKind::Rollback => "rollback".to_string(),
        }
    }
}

/// One adversary move against the provider stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Deliver a captured evidence variant for order `order` (replay
    /// when delivered more than once).
    Deliver {
        /// Scenario order index.
        order: usize,
        /// Which captured variant to deliver.
        kind: EvidenceKind,
    },
    /// Deliver order `evidence_from`'s genuine evidence against order
    /// `to_order` — the cross-binding (reorder/substitution) move.
    CrossDeliver {
        /// Scenario order index whose evidence is replayed.
        evidence_from: usize,
        /// Scenario order index the evidence is submitted against.
        to_order: usize,
    },
    /// Withhold order `order`'s evidence (message drop). A no-op on
    /// provider state; kept in the vocabulary so playbooks can spell
    /// out full message-level schedules.
    Drop {
        /// Scenario order index whose evidence is dropped.
        order: usize,
    },
    /// Advance the virtual clock (message delay / adversary waiting out
    /// a nonce TTL).
    AdvanceClock {
        /// Virtual milliseconds to skip.
        millis: u64,
    },
    /// Crash the durable substrate per [`CrashKind`] and recover.
    Crash(CrashKind),
    /// Provider takes a snapshot, truncates the WAL, and (in the
    /// explorer's model) refreshes the adversary's rollback image.
    Checkpoint,
}

impl Action {
    /// True for actions that replace the live state with a recovery.
    pub fn is_crash(&self) -> bool {
        matches!(self, Action::Crash(_))
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Deliver { order, kind } => {
                write!(f, "deliver order={order} kind={}", kind.label())
            }
            Action::CrossDeliver {
                evidence_from,
                to_order,
            } => write!(f, "cross evidence={evidence_from} to={to_order}"),
            Action::Drop { order } => write!(f, "drop order={order}"),
            Action::AdvanceClock { millis } => write!(f, "advance ms={millis}"),
            Action::Crash(kind) => write!(f, "crash {}", kind.label()),
            Action::Checkpoint => write!(f, "checkpoint"),
        }
    }
}

/// A sequence of adversary moves.
pub type Schedule = Vec<Action>;

/// Renders a schedule one action per line — the on-disk counterexample
/// format pinned by the golden fixtures.
pub fn render_schedule(schedule: &[Action]) -> String {
    let mut out = String::new();
    for action in schedule {
        out.push_str(&action.to_string());
        out.push('\n');
    }
    out
}

/// The explorer's default action alphabet for a `k`-order scenario:
/// every delivery variant per order, the cross-bindings between the
/// first two orders, a short and a TTL-crossing clock skip, and every
/// crash flavor. Order is part of the exploration contract — logs and
/// counterexamples are only comparable across runs using the same
/// alphabet.
pub fn default_alphabet(k: usize, nonce_ttl: Duration) -> Vec<Action> {
    let mut actions = Vec::new();
    for order in 0..k {
        actions.push(Action::Deliver {
            order,
            kind: EvidenceKind::Genuine,
        });
        actions.push(Action::Deliver {
            order,
            kind: EvidenceKind::TamperedToken,
        });
        actions.push(Action::Deliver {
            order,
            kind: EvidenceKind::RogueCert,
        });
    }
    // Only order 0 captures a human-rejected PAL run (see Scenario).
    actions.push(Action::Deliver {
        order: 0,
        kind: EvidenceKind::Rejected,
    });
    if k >= 2 {
        actions.push(Action::CrossDeliver {
            evidence_from: 0,
            to_order: 1,
        });
        actions.push(Action::CrossDeliver {
            evidence_from: 1,
            to_order: 0,
        });
    }
    actions.push(Action::AdvanceClock { millis: 1_000 });
    actions.push(Action::AdvanceClock {
        millis: nonce_ttl.as_millis() as u64 + 1_000,
    });
    actions.push(Action::Checkpoint);
    actions.push(Action::Crash(CrashKind::PowerLoss));
    actions.push(Action::Crash(CrashKind::Truncate { drop_frames: 1 }));
    actions.push(Action::Crash(CrashKind::TornTail { bytes: 3 }));
    actions.push(Action::Crash(CrashKind::Rollback));
    actions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendering_is_stable() {
        let schedule = vec![
            Action::Deliver {
                order: 0,
                kind: EvidenceKind::Genuine,
            },
            Action::CrossDeliver {
                evidence_from: 0,
                to_order: 1,
            },
            Action::AdvanceClock { millis: 301_000 },
            Action::Crash(CrashKind::Truncate { drop_frames: 1 }),
            Action::Checkpoint,
        ];
        assert_eq!(
            render_schedule(&schedule),
            "deliver order=0 kind=genuine\n\
             cross evidence=0 to=1\n\
             advance ms=301000\n\
             crash truncate frames=1\n\
             checkpoint\n"
        );
    }

    #[test]
    fn default_alphabet_is_deterministic_and_complete() {
        let a = default_alphabet(2, Duration::from_secs(300));
        let b = default_alphabet(2, Duration::from_secs(300));
        assert_eq!(a, b);
        assert!(a.iter().any(|x| x.is_crash()));
        assert!(a.contains(&Action::Checkpoint));
        assert!(a.contains(&Action::Crash(CrashKind::Rollback)));
        // One delivery triple per order plus the rejected variant.
        let deliveries = a
            .iter()
            .filter(|x| matches!(x, Action::Deliver { .. }))
            .count();
        assert_eq!(deliveries, 7);
    }
}
