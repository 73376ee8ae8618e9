//! Deterministic schedule replay and delta-debugging counterexample
//! shrinking.
//!
//! A counterexample is just a [`Schedule`]; replaying it from a fork of
//! the pristine branch point reproduces the violation byte-for-byte.
//! The shrinker is classic ddmin over the schedule: remove chunks,
//! keep the removal if the *same invariant* still fires, finish with a
//! one-at-a-time pass. Removal is always safe to try because
//! inapplicable actions are deterministic no-ops (see
//! [`crate::action`]).

use std::fmt::Write as _;
use std::time::Duration;

use crate::action::{render_schedule, Action, Schedule};
use crate::oracle::{Oracle, Violation};
use crate::scenario::Scenario;
use crate::sut::{apply_action, Fork};

/// Result of replaying a schedule from the branch point.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// One line per step: `step=N action=[..] result=..`, then either
    /// `violation step=N invariant=..` or `clean steps=N`.
    pub trace: String,
    /// First violation hit, with the index of the offending step.
    pub violation: Option<(usize, Violation)>,
}

/// Replays `schedule` against a fresh fork of `root`, checking the
/// oracle after every step. Stops at the first violation.
pub fn replay_schedule<S: Fork>(
    scenario: &Scenario,
    root: &S,
    schedule: &[Action],
) -> ReplayOutcome {
    let mut sut = root.fork();
    let mut oracle = Oracle::new(scenario, &root.view());
    let mut now: Duration = scenario.base_now;
    let mut trace = String::new();
    for (i, action) in schedule.iter().enumerate() {
        let result = apply_action(&mut sut, scenario, &mut now, action);
        let _ = writeln!(trace, "step={i} action=[{action}] result={result}");
        if let Err(violation) = oracle.check(&sut.view(), action.is_crash(), now) {
            let _ = writeln!(
                trace,
                "violation step={i} invariant={}",
                violation.invariant
            );
            return ReplayOutcome {
                trace,
                violation: Some((i, violation)),
            };
        }
    }
    let _ = writeln!(trace, "clean steps={}", schedule.len());
    ReplayOutcome {
        trace,
        violation: None,
    }
}

/// True when replaying `candidate` still violates `invariant`.
fn reproduces<S: Fork>(
    scenario: &Scenario,
    root: &S,
    candidate: &[Action],
    invariant: &str,
) -> bool {
    replay_schedule(scenario, root, candidate)
        .violation
        .is_some_and(|(_, v)| v.invariant == invariant)
}

/// Shrinks `schedule` to a locally minimal schedule that still
/// violates `invariant`, using ddmin followed by a single-action
/// elimination pass. Deterministic; returns the input unchanged if it
/// does not reproduce.
pub fn shrink<S: Fork>(
    scenario: &Scenario,
    root: &S,
    schedule: &[Action],
    invariant: &str,
) -> Schedule {
    let mut current: Schedule = schedule.to_vec();
    if !reproduces(scenario, root, &current, invariant) {
        return current;
    }
    // ddmin: remove ever-finer chunks while the violation survives.
    let mut n = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if reproduces(scenario, root, &candidate, invariant) {
                current = candidate;
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if n >= current.len() {
                break;
            }
            n = (n * 2).min(current.len());
        }
    }
    // Final pass: drop single actions until none can go.
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < current.len() {
            let mut candidate = current.clone();
            candidate.remove(i);
            if reproduces(scenario, root, &candidate, invariant) {
                current = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }
    current
}

/// Renders a counterexample the way golden fixtures pin it: the
/// violated invariant, the minimal schedule, and the replay trace.
pub fn render_counterexample<S: Fork>(
    scenario: &Scenario,
    root: &S,
    minimal: &[Action],
    invariant: &str,
) -> String {
    let outcome = replay_schedule(scenario, root, minimal);
    let mut out = String::new();
    let _ = writeln!(out, "invariant={invariant}");
    let _ = writeln!(out, "schedule:");
    out.push_str(&render_schedule(minimal));
    let _ = writeln!(out, "replay:");
    out.push_str(&outcome.trace);
    out
}
