//! Tier-1 adversarial exploration through the `utp` facade.
//!
//! The explorer suite (`crates/explore/tests`) pins its fixtures at one
//! provisioning seed. These tests re-run the same gates on a second,
//! independently provisioned scenario, so a clean real stack and a
//! caught seeded bug are not artefacts of one set of keys and nonces:
//!
//! - at the CI smoke budget the real provider stack survives every
//!   interleaving of adversary actions with zero invariant violations
//!   and without exhausting the state budget;
//! - the depth-first exploration log is byte-identical across runs;
//! - every bug in `Bug::ALL` is caught by its listed invariant;
//! - each shrunk counterexample replays byte-identically and still ends
//!   in its violation.

use utp::explore::{
    catch, default_alphabet, explore, render_schedule, replay_schedule, Bug, ExploreConfig,
    Scenario, Shim, Strategy, INVARIANT_COUNT,
};

const SEED: u64 = 23;
const ORDERS: usize = 2;

#[test]
fn bounded_exploration_of_the_real_stack_is_clean() {
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let report = explore(&scenario, &root, &alphabet, &ExploreConfig::smoke());
    assert!(
        report.violations.is_empty(),
        "adversary found an invariant violation: {:?}\nschedule:\n{}",
        report.violations[0].violation,
        render_schedule(&report.violations[0].schedule)
    );
    assert!(
        !report.budget_exhausted,
        "smoke budget must drain the frontier"
    );
    assert!(report.explored > 100);
    assert!(report.checks >= report.explored * INVARIANT_COUNT);
}

#[test]
fn exploration_log_is_deterministic_across_runs() {
    let run = || {
        let (scenario, root) = Scenario::build(SEED, ORDERS);
        let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
        let config = ExploreConfig {
            strategy: Strategy::Dfs,
            ..ExploreConfig::smoke()
        };
        explore(&scenario, &root, &alphabet, &config).log
    };
    assert_eq!(run(), run(), "exploration log must be byte-identical");
}

#[test]
fn oracle_self_check_catches_every_seeded_bug() {
    for bug in Bug::ALL {
        let caught =
            catch(bug, SEED, ORDERS, &ExploreConfig::smoke()).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(caught.found.violation.invariant, bug.invariant());
        assert!(!caught.minimal.is_empty());
        assert!(caught.minimal.len() <= caught.found.schedule.len());
    }
}

#[test]
fn pinned_counterexample_replays_byte_identically() {
    for bug in Bug::ALL {
        let caught =
            catch(bug, SEED, ORDERS, &ExploreConfig::smoke()).unwrap_or_else(|e| panic!("{e}"));
        let run = || {
            let (scenario, root) = Scenario::build(SEED, ORDERS);
            replay_schedule(&scenario, &Shim::new(bug, root), &caught.minimal)
        };
        let first = run();
        let second = run();
        assert_eq!(
            first.trace,
            second.trace,
            "{}: replay traces differ",
            bug.name()
        );
        assert_eq!(
            first.violation.map(|(step, v)| (step, v.invariant)),
            Some((caught.minimal.len() - 1, bug.invariant())),
            "{}: the shrunk schedule must end in its violation",
            bug.name()
        );
    }
}
