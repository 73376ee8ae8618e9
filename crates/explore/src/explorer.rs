//! The bounded state-space explorer.
//!
//! Classic explicit-state model checking, specialised to the paper's
//! settlement path: states are forks of the live provider stack (plus
//! the virtual clock), transitions are adversary [`Action`]s, and every
//! reached state is checked against the invariant [`Oracle`]. State
//! deduplication hashes the canonical observable view — two
//! interleavings that land on identical provider state are explored
//! once.
//!
//! The search is **bounded** (depth and state budget) and therefore
//! sound only up to the bound: it proves the absence of violations
//! reachable within `max_depth` adversary moves over the given
//! alphabet, nothing more. Exhaustion of a budget is reported, never
//! silent.

use std::collections::{HashSet, VecDeque};
use std::fmt::Write as _;
use std::time::Duration;

use crate::action::{Action, Schedule};
use crate::oracle::{Oracle, Violation, INVARIANT_COUNT};
use crate::scenario::Scenario;
use crate::sut::{fingerprint, Fork};

/// Frontier discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Breadth-first: finds *shortest* counterexamples first. Default.
    Bfs,
    /// Depth-first: lower frontier memory, longer counterexamples.
    Dfs,
}

impl Strategy {
    fn label(&self) -> &'static str {
        match self {
            Strategy::Bfs => "bfs",
            Strategy::Dfs => "dfs",
        }
    }
}

/// Exploration bounds and options.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum schedule length explored.
    pub max_depth: usize,
    /// Maximum number of distinct states retained (budget).
    pub max_states: usize,
    /// Frontier discipline.
    pub strategy: Strategy,
    /// Stop at the first invariant violation instead of collecting all.
    pub stop_at_first_violation: bool,
}

impl ExploreConfig {
    /// The CI smoke budget: BFS to depth 2 within 5,000 states, which
    /// drains the frontier of the two-order scenario.
    pub fn smoke() -> Self {
        ExploreConfig {
            max_depth: 2,
            max_states: 5_000,
            strategy: Strategy::Bfs,
            stop_at_first_violation: false,
        }
    }

    /// The nightly budget: deeper and wider than [`ExploreConfig::smoke`].
    pub fn nightly() -> Self {
        ExploreConfig {
            max_depth: 5,
            max_states: 60_000,
            strategy: Strategy::Bfs,
            stop_at_first_violation: false,
        }
    }
}

/// An invariant violation plus the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The adversary moves from the branch point to the violation.
    pub schedule: Schedule,
    /// What broke.
    pub violation: Violation,
}

/// What an exploration run did and found.
#[derive(Debug)]
pub struct ExploreReport {
    /// Distinct states reached (root included).
    pub explored: u64,
    /// Transitions pruned because the successor state was already seen.
    pub pruned: u64,
    /// Deepest schedule length reached.
    pub deepest: usize,
    /// Individual invariant evaluations performed.
    pub checks: u64,
    /// Every violation found (first per violating transition).
    pub violations: Vec<Counterexample>,
    /// True when `max_states` stopped the search before the frontier
    /// drained — coverage below the depth bound is then incomplete.
    pub budget_exhausted: bool,
    /// Deterministic exploration log: header, one line per discovered
    /// state, one line per violation, and a trailing summary.
    pub log: String,
}

struct Node<S> {
    sut: S,
    now: Duration,
    oracle: Oracle,
    schedule: Schedule,
    depth: usize,
    id: u64,
}

/// Explores every interleaving of `alphabet` actions from the branch
/// point, up to the configured bounds, checking the oracle after each
/// action. Deterministic: identical inputs produce an identical report
/// and byte-identical log.
pub fn explore<S: Fork>(
    scenario: &Scenario,
    root: &S,
    alphabet: &[Action],
    config: &ExploreConfig,
) -> ExploreReport {
    let mut log = String::new();
    let _ = writeln!(
        log,
        "explore strategy={} max_depth={} max_states={} alphabet={}",
        config.strategy.label(),
        config.max_depth,
        config.max_states,
        alphabet.len(),
    );

    let root_view = root.view();
    let root_oracle = Oracle::new(scenario, &root_view);
    let root_fp = fingerprint(scenario.base_now, &root_view);

    let mut visited: HashSet<[u8; 32]> = HashSet::new();
    visited.insert(*root_fp.as_bytes());
    let _ = writeln!(log, "s=0 d=0 parent=- via=- fp={}", &root_fp.to_hex()[..16]);

    let mut frontier: VecDeque<Node<S>> = VecDeque::new();
    frontier.push_back(Node {
        sut: root.fork(),
        now: scenario.base_now,
        oracle: root_oracle,
        schedule: Vec::new(),
        depth: 0,
        id: 0,
    });

    let mut explored: u64 = 1;
    let mut pruned: u64 = 0;
    let mut deepest: usize = 0;
    let mut checks: u64 = 0;
    let mut violations: Vec<Counterexample> = Vec::new();
    let mut budget_exhausted = false;
    let mut next_id: u64 = 1;

    'search: while let Some(node) = match config.strategy {
        Strategy::Bfs => frontier.pop_front(),
        Strategy::Dfs => frontier.pop_back(),
    } {
        if node.depth >= config.max_depth {
            continue;
        }
        // DFS pushes children onto the back; iterate the alphabet in
        // reverse there so states are still *visited* in alphabet order.
        let order: Vec<&Action> = match config.strategy {
            Strategy::Bfs => alphabet.iter().collect(),
            Strategy::Dfs => alphabet.iter().rev().collect(),
        };
        let mut children: Vec<Node<S>> = Vec::new();
        for action in order {
            let mut sut = node.sut.fork();
            let mut oracle = node.oracle.clone();
            let mut now = node.now;
            let _result = crate::sut::apply_action(&mut sut, scenario, &mut now, action);
            let view = sut.view();
            checks += INVARIANT_COUNT;
            let mut schedule = node.schedule.clone();
            schedule.push(*action);
            if let Err(violation) = oracle.check(&view, action.is_crash(), now) {
                let _ = writeln!(
                    log,
                    "violation parent={} via=[{}] invariant={}",
                    node.id, action, violation.invariant
                );
                violations.push(Counterexample {
                    schedule,
                    violation,
                });
                if config.stop_at_first_violation {
                    break 'search;
                }
                continue;
            }
            let fp = fingerprint(now, &view);
            if !visited.insert(*fp.as_bytes()) {
                pruned += 1;
                continue;
            }
            if explored as usize >= config.max_states {
                budget_exhausted = true;
                break 'search;
            }
            let id = next_id;
            next_id += 1;
            explored += 1;
            deepest = deepest.max(node.depth + 1);
            let _ = writeln!(
                log,
                "s={} d={} parent={} via=[{}] fp={}",
                id,
                node.depth + 1,
                node.id,
                action,
                &fp.to_hex()[..16]
            );
            children.push(Node {
                sut,
                now,
                oracle,
                schedule,
                depth: node.depth + 1,
                id,
            });
        }
        frontier.extend(children);
    }

    let _ = writeln!(
        log,
        "summary explored={} pruned={} deepest={} checks={} violations={} budget_exhausted={}",
        explored,
        pruned,
        deepest,
        checks,
        violations.len(),
        budget_exhausted
    );

    ExploreReport {
        explored,
        pruned,
        deepest,
        checks,
        violations,
        budget_exhausted,
        log,
    }
}
