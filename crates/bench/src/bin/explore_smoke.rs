//! Exploration smoke gate: runs the bounded adversarial explorer
//! against the real provider stack at the CI budget, asserts zero
//! invariant violations with the frontier fully drained, asserts the
//! exploration log is **byte-identical across two runs**, checks that
//! every seeded-bug shim is caught, and replays every named attack
//! playbook cleanly. Writes the exploration log, the E12 tables, and
//! the shrunk counterexamples to `target/explore/` for CI artifact
//! upload.
//!
//! Run: `cargo run -p utp-bench --bin explore_smoke` (pass `--nightly`
//! for the deeper nightly budget).

use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

use utp_attack::playbooks;
use utp_bench::experiments::e12_explore as e12;
use utp_explore::{
    catch, default_alphabet, explore, replay_schedule, Bug, ExploreConfig, Scenario,
};

fn explore_log(config: &ExploreConfig) -> (String, usize, bool) {
    let (scenario, root) = Scenario::build(e12::SEED, e12::ORDERS);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let report = explore(&scenario, &root, &alphabet, config);
    (report.log, report.violations.len(), report.budget_exhausted)
}

fn main() -> ExitCode {
    let nightly = std::env::args().any(|a| a == "--nightly");
    let config = if nightly {
        ExploreConfig::nightly()
    } else {
        ExploreConfig::smoke()
    };

    // Real stack: clean, and byte-identical across two runs.
    let (log_a, violations_a, budget_a) = explore_log(&config);
    let (log_b, _, _) = explore_log(&config);
    if log_a != log_b {
        eprintln!("explore smoke FAILED: exploration logs diverge across runs");
        for (i, (la, lb)) in log_a.lines().zip(log_b.lines()).enumerate() {
            if la != lb {
                eprintln!(
                    "first differing line {}:\n  run 1: {la}\n  run 2: {lb}",
                    i + 1
                );
                break;
            }
        }
        return ExitCode::FAILURE;
    }
    if violations_a != 0 {
        eprintln!(
            "explore smoke FAILED: {violations_a} invariant violation(s) on the real stack \
             (see exploration log)"
        );
        return ExitCode::FAILURE;
    }
    if !nightly && budget_a {
        eprintln!("explore smoke FAILED: smoke budget must drain the frontier at depth 2");
        return ExitCode::FAILURE;
    }

    // Oracle self-check: all seeded bugs found, shrunk, and replayable.
    let mut counterexamples = String::new();
    for bug in Bug::ALL {
        match catch(bug, e12::SEED, e12::ORDERS, &ExploreConfig::smoke()) {
            Ok(caught) => {
                let _ = write!(counterexamples, "=== {}\n{}", bug.name(), caught.rendered);
            }
            Err(e) => {
                eprintln!("explore smoke FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Named playbooks stay clean on the real stack.
    for book in playbooks::all() {
        let (scenario, root) = Scenario::build(e12::SEED, e12::ORDERS);
        let outcome = replay_schedule(&scenario, &root, &book.schedule);
        if let Some((step, violation)) = outcome.violation {
            eprintln!(
                "explore smoke FAILED: playbook {} violated {} at step {step}",
                book.name, violation.invariant
            );
            return ExitCode::FAILURE;
        }
    }

    // E12 tables for the artifact.
    let depths: &[usize] = if nightly { &[1, 2, 3, 4] } else { &[1, 2] };
    let report = e12::run(depths, config.max_states);
    if !e12::clean(&report) {
        eprintln!("explore smoke FAILED: E12 coverage run found violations on the real stack");
        return ExitCode::FAILURE;
    }
    let table = e12::render(&report);

    if let Err(e) = fs::create_dir_all("target/explore")
        .and_then(|()| fs::write("target/explore/exploration_log.txt", &log_a))
        .and_then(|()| fs::write("target/explore/e12_table.txt", &table))
        .and_then(|()| fs::write("target/explore/counterexamples.txt", &counterexamples))
    {
        eprintln!("explore smoke FAILED: cannot write target/explore artifacts: {e}");
        return ExitCode::FAILURE;
    }

    let mut summary = String::new();
    let _ = write!(
        summary,
        "explore smoke OK ({}): {} log lines byte-identical across 2 runs, \
         0 violations on the real stack, {n}/{n} seeded bugs caught and shrunk, \
         {} playbooks clean; artifacts in target/explore/",
        if nightly { "nightly" } else { "smoke" },
        log_a.lines().count(),
        playbooks::all().len(),
        n = Bug::ALL.len(),
    );
    println!("{summary}");
    ExitCode::SUCCESS
}
