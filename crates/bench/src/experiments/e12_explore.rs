//! E12 — adversarial state-space exploration: coverage and cost.
//!
//! **Part A** runs the `utp-explore` bounded explorer against the real
//! journaled provider stack at increasing depth bounds and reports
//! coverage (distinct states, pruned transitions, deepest schedule) and
//! cost (invariant checks and host-measured checks/second — the one
//! wall-clock number here, since the explorer itself runs entirely on
//! the virtual clock and host time only prices the harness).
//!
//! **Part B** is the oracle's self-check: every seeded bug in
//! `utp_explore::Bug::ALL` must be caught by its invariant, and its
//! counterexample must shrink to the pinned minimal schedule.
//!
//! Regenerate: `cargo run -p utp-bench --bin e12_explore`

use std::time::Instant;

use crate::table;
use utp_explore::{
    catch, default_alphabet, explore, render_schedule, Bug, ExploreConfig, Scenario, Strategy,
};

/// Scenario seed shared with the tier-1 exploration tests.
pub const SEED: u64 = 7;

/// Orders per scenario.
pub const ORDERS: usize = 2;

/// One (depth bound × strategy) exploration measurement.
#[derive(Debug, Clone)]
pub struct ExploreRow {
    /// Frontier discipline label.
    pub strategy: &'static str,
    /// Depth bound.
    pub max_depth: usize,
    /// Distinct states reached.
    pub states: u64,
    /// Transitions pruned by fingerprint dedup.
    pub pruned: u64,
    /// Deepest schedule reached.
    pub deepest: usize,
    /// Individual invariant evaluations.
    pub checks: u64,
    /// Invariant violations found (must be 0 on the real stack).
    pub violations: usize,
    /// Host-measured invariant checks per second.
    pub checks_per_sec: f64,
    /// True when `max_states` cut the search short.
    pub budget_exhausted: bool,
}

/// One seeded-bug detection measurement.
#[derive(Debug, Clone)]
pub struct ShimRow {
    /// Shim name.
    pub shim: &'static str,
    /// Invariant the explorer reported.
    pub invariant: &'static str,
    /// Schedule length as found by BFS.
    pub found_len: usize,
    /// Minimal schedule after ddmin, rendered one action per ` | `.
    pub minimal: String,
}

/// The full E12 report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Part A rows.
    pub coverage: Vec<ExploreRow>,
    /// Part B rows.
    pub detection: Vec<ShimRow>,
}

fn explore_row(strategy: Strategy, max_depth: usize, max_states: usize) -> ExploreRow {
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let config = ExploreConfig {
        max_depth,
        max_states,
        strategy,
        stop_at_first_violation: false,
    };
    let start = Instant::now();
    let report = explore(&scenario, &root, &alphabet, &config);
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    ExploreRow {
        strategy: match strategy {
            Strategy::Bfs => "bfs",
            Strategy::Dfs => "dfs",
        },
        max_depth,
        states: report.explored,
        pruned: report.pruned,
        deepest: report.deepest,
        checks: report.checks,
        violations: report.violations.len(),
        checks_per_sec: report.checks as f64 / secs,
        budget_exhausted: report.budget_exhausted,
    }
}

fn shim_row(bug: Bug, max_states: usize) -> ShimRow {
    let config = ExploreConfig {
        max_states,
        ..ExploreConfig::smoke()
    };
    let caught = catch(bug, SEED, ORDERS, &config).unwrap_or_else(|e| panic!("{e}"));
    ShimRow {
        shim: bug.name(),
        invariant: caught.found.violation.invariant,
        found_len: caught.found.schedule.len(),
        minimal: render_schedule(&caught.minimal)
            .trim_end()
            .replace('\n', " | "),
    }
}

/// Runs E12: real-stack coverage at each depth in `depths` (BFS, plus
/// one DFS row at the deepest bound) and seeded-bug detection.
pub fn run(depths: &[usize], max_states: usize) -> Report {
    let mut coverage: Vec<ExploreRow> = depths
        .iter()
        .map(|d| explore_row(Strategy::Bfs, *d, max_states))
        .collect();
    if let Some(deepest) = depths.iter().max() {
        coverage.push(explore_row(Strategy::Dfs, *deepest, max_states));
    }
    let detection = Bug::ALL
        .iter()
        .map(|bug| shim_row(*bug, max_states))
        .collect();
    Report {
        coverage,
        detection,
    }
}

/// Flattens the report into its perf artifact pair. Exploration is
/// deterministic — states, pruning, checks, violation counts, and the
/// shrunk schedule lengths are all canonical; only checks-per-second
/// prices the host CPU.
pub fn artifacts(report: &Report, config: &str) -> utp_obs::ArtifactPair {
    let mut pair = utp_obs::ArtifactPair::new("E12", config);
    for r in &report.coverage {
        let depth = r.max_depth.to_string();
        let labels: &[(&str, &str)] = &[("strategy", r.strategy), ("depth", &depth)];
        pair.canonical.push_u64("e12.states", labels, r.states);
        pair.canonical.push_u64("e12.pruned", labels, r.pruned);
        pair.canonical
            .push_u64("e12.deepest", labels, r.deepest as u64);
        pair.canonical.push_u64("e12.checks", labels, r.checks);
        pair.canonical
            .push_u64("e12.violations", labels, r.violations as u64);
        pair.canonical.push_u64(
            "e12.budget_exhausted",
            labels,
            u64::from(r.budget_exhausted),
        );
        pair.host
            .push_f64("e12.checks_per_sec", labels, r.checks_per_sec);
    }
    for r in &report.detection {
        let labels: &[(&str, &str)] = &[("shim", r.shim)];
        pair.canonical
            .push_u64("e12.found_len", labels, r.found_len as u64);
        pair.canonical.push_u64(
            "e12.minimal_len",
            labels,
            r.minimal.split(" | ").count() as u64,
        );
    }
    pair
}

/// Renders both E12 tables.
pub fn render(report: &Report) -> String {
    let coverage_rows: Vec<Vec<String>> = report
        .coverage
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                r.max_depth.to_string(),
                r.states.to_string(),
                r.pruned.to_string(),
                r.deepest.to_string(),
                r.checks.to_string(),
                r.violations.to_string(),
                format!("{:.0}", r.checks_per_sec),
                if r.budget_exhausted { "yes" } else { "no" }.to_string(),
            ]
        })
        .collect();
    let mut out = table::render(
        "E12a — bounded exploration of the real stack (seed 7, 2 orders, 16-action alphabet)",
        &[
            "strategy",
            "depth",
            "states",
            "pruned",
            "deepest",
            "checks",
            "violations",
            "checks/s",
            "budget hit",
        ],
        &coverage_rows,
    );
    out.push('\n');
    let detection_rows: Vec<Vec<String>> = report
        .detection
        .iter()
        .map(|r| {
            vec![
                r.shim.to_string(),
                r.invariant.to_string(),
                r.found_len.to_string(),
                r.minimal.clone(),
            ]
        })
        .collect();
    out.push_str(&table::render(
        "E12b — seeded-bug detection and ddmin-shrunk minimal schedules",
        &["shim", "invariant", "found len", "minimal schedule"],
        &detection_rows,
    ));
    out
}

/// True when every real-stack row is violation-free — the number the
/// smoke gate asserts on.
pub fn clean(report: &Report) -> bool {
    report.coverage.iter().all(|r| r.violations == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e12_small_run_is_clean_and_detects_all_shims() {
        let report = run(&[1], 500);
        assert!(clean(&report));
        assert_eq!(report.detection.len(), Bug::ALL.len());
        for (row, bug) in report.detection.iter().zip(Bug::ALL) {
            assert_eq!((row.shim, row.invariant), (bug.name(), bug.invariant()));
        }
        let rendered = render(&report);
        assert!(rendered.contains("E12a"));
        assert!(rendered.contains("minimal schedule"));
    }
}
