//! Explorer integration tests: soundness of the oracle (every seeded
//! bug is found and shrinks to its pinned minimal schedule),
//! cleanliness of the real stack at the CI depth bound, and byte-level
//! determinism of exploration and replay.

use utp_explore::{
    catch, default_alphabet, explore, render_schedule, replay_schedule, shrink, Action, Bug,
    CrashKind, EvidenceKind, ExploreConfig, Scenario, Shim, Strategy, INVARIANT_COUNT,
};

const SEED: u64 = 7;
const ORDERS: usize = 2;

#[test]
fn real_stack_is_clean_at_the_smoke_bound() {
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let report = explore(&scenario, &root, &alphabet, &ExploreConfig::smoke());
    assert!(
        report.violations.is_empty(),
        "real stack violated an invariant: {:?}",
        report.violations[0].violation
    );
    assert!(!report.budget_exhausted, "smoke budget must cover depth 2");
    assert!(report.explored > 100, "explored only {}", report.explored);
    assert!(report.pruned > 0, "fingerprint dedup never fired");
    assert_eq!(report.deepest, 2);
    assert!(report.checks >= report.explored * INVARIANT_COUNT);
}

#[test]
fn exploration_forks_the_sharded_settlement_across_shards() {
    // The forked stack settles through the provider's sharded core, so
    // the smoke-bound model check crosses shards only if the scenario's
    // order nonces land on more than one of them.
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let settler = root.provider().settlement().settler();
    let shards: std::collections::BTreeSet<usize> = scenario
        .orders
        .iter()
        .map(|o| settler.shard_index(&o.nonce))
        .collect();
    assert!(
        shards.len() >= 2,
        "all {} order nonces settle on shard(s) {shards:?} of {}",
        scenario.order_count(),
        settler.shard_count()
    );
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let report = explore(&scenario, &root, &alphabet, &ExploreConfig::smoke());
    assert_eq!(report.violations.len(), 0, "cross-shard exploration");
    assert!(!report.budget_exhausted);
}

#[test]
fn exploration_log_is_byte_identical_across_runs() {
    let run = || {
        let (scenario, root) = Scenario::build(SEED, ORDERS);
        let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
        explore(&scenario, &root, &alphabet, &ExploreConfig::smoke()).log
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "exploration log differs across runs");
    assert!(first.lines().last().unwrap().starts_with("summary "));
}

#[test]
fn dfs_and_bfs_reach_the_same_state_space() {
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let bfs = explore(&scenario, &root, &alphabet, &ExploreConfig::smoke());
    let dfs = explore(
        &scenario,
        &root,
        &alphabet,
        &ExploreConfig {
            strategy: Strategy::Dfs,
            ..ExploreConfig::smoke()
        },
    );
    assert_eq!(bfs.explored, dfs.explored);
    assert_eq!(bfs.pruned, dfs.pruned);
    assert_eq!(bfs.violations.len(), dfs.violations.len());
}

/// Runs the seeded-bug self-check for `bug` and checks the full render
/// against its golden fixture.
fn assert_caught(bug: Bug) {
    let caught =
        catch(bug, SEED, ORDERS, &ExploreConfig::smoke()).unwrap_or_else(|e| panic!("{e}"));
    assert!(
        caught.minimal.len() <= caught.found.schedule.len(),
        "shrinking grew the schedule"
    );
    let fixture = format!(
        "{}/tests/fixtures/{}.counterexample",
        env!("CARGO_MANIFEST_DIR"),
        bug.name().replace('-', "_")
    );
    let pinned = std::fs::read_to_string(&fixture).unwrap_or_else(|e| panic!("{fixture}: {e}"));
    assert_eq!(
        caught.rendered, pinned,
        "minimal counterexample drifted from its pinned fixture"
    );
}

#[test]
fn double_settle_bug_is_found_and_shrinks_to_fixture() {
    assert_caught(Bug::DoubleSettle);
}

#[test]
fn forgotten_order_bug_is_found_and_shrinks_to_fixture() {
    assert_caught(Bug::ForgottenOrder);
}

#[test]
fn audit_truncation_bug_is_found_and_shrinks_to_fixture() {
    assert_caught(Bug::AuditTruncation);
}

#[test]
fn cross_shard_double_settle_bug_is_found_and_shrinks_to_fixture() {
    assert_caught(Bug::CrossShardDoubleSettle);
}

#[test]
fn counterexamples_replay_byte_identically() {
    let minimal = vec![
        Action::Deliver {
            order: 0,
            kind: EvidenceKind::Genuine,
        },
        Action::Crash(CrashKind::PowerLoss),
    ];
    let run = || {
        let (scenario, root) = Scenario::build(SEED, ORDERS);
        let shim = Shim::new(Bug::ForgottenOrder, root);
        replay_schedule(&scenario, &shim, &minimal)
    };
    let first = run();
    let second = run();
    assert_eq!(first.trace, second.trace, "replay traces differ");
    let (step, violation) = first.violation.expect("replay reproduces the violation");
    assert_eq!(step, 1);
    assert_eq!(violation.invariant, "recovery-matches-durable");
}

#[test]
fn shrinker_drops_noise_actions() {
    // A noisy schedule around the double-settle trigger: drops, clock
    // skips and an unrelated tampered delivery must all shrink away.
    let noisy = vec![
        Action::Drop { order: 1 },
        Action::AdvanceClock { millis: 1_000 },
        Action::Deliver {
            order: 1,
            kind: EvidenceKind::TamperedToken,
        },
        Action::Deliver {
            order: 0,
            kind: EvidenceKind::Genuine,
        },
        Action::Checkpoint,
    ];
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let shim = Shim::new(Bug::DoubleSettle, root);
    assert!(replay_schedule(&scenario, &shim, &noisy)
        .violation
        .is_some());
    let minimal = shrink(&scenario, &shim, &noisy, "balance-conservation");
    assert_eq!(
        render_schedule(&minimal),
        "deliver order=0 kind=genuine\n",
        "ddmin left noise in the schedule"
    );
}
