//! utp-explore: bounded adversarial state-space exploration for the
//! uni-directional trusted path settlement stack.
//!
//! The paper's server-side claim is an *invariant over adversary
//! schedules*: however messages are replayed, reordered, dropped or
//! delayed, and however the provider crashes and recovers, no
//! transaction settles without a fresh human-confirmed quote and none
//! settles twice. This crate checks that claim the way a model checker
//! would:
//!
//! * [`scenario`] provisions a bounded protocol run once (CA, AIK
//!   enrollment, PAL confirmations) and captures per-order *evidence
//!   kits* — the adversary's ammunition.
//! * [`action`] is the adversary vocabulary — deliver / cross-deliver /
//!   drop / delay / crash / checkpoint — shared with the attack
//!   playbooks in `utp-attack`.
//! * [`sut`] wraps the real `ServiceProvider` + journal stack behind a
//!   forkable [`sut::System`] interface with a canonical observable
//!   [`sut::StateView`].
//! * [`oracle`] holds the four invariants, checked after every action.
//! * [`explorer`] enumerates interleavings breadth- or depth-first
//!   with fingerprint deduplication under explicit bounds.
//! * [`shrink`](mod@shrink) replays counterexample schedules
//!   deterministically and ddmin-shrinks them to minimal form.
//! * [`shims`] are deliberately buggy providers the explorer must
//!   catch — the oracle's self-check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod action;
pub mod explorer;
pub mod oracle;
pub mod scenario;
pub mod shims;
pub mod shrink;
pub mod sut;

pub use action::{default_alphabet, render_schedule, Action, CrashKind, EvidenceKind, Schedule};
pub use explorer::{explore, Counterexample, ExploreConfig, ExploreReport, Strategy};
pub use oracle::{Oracle, Violation, INVARIANT_COUNT};
pub use scenario::{Scenario, ScenarioOrder, ACCOUNT, OPENING_CENTS};
pub use shims::{AuditTruncationShim, DoubleSettleShim, ForgottenOrderShim};
pub use shrink::{render_counterexample, replay_schedule, shrink, ReplayOutcome};
pub use sut::{apply_action, fingerprint, Fork, RealSystem, StateView, System};
