//! Explorer integration tests: soundness of the oracle (seeded bugs
//! are found and shrink to pinned minimal schedules), cleanliness of
//! the real stack at the CI depth bound, and byte-level determinism of
//! exploration and replay.

use utp_explore::{
    default_alphabet, explore, render_counterexample, render_schedule, replay_schedule, shrink,
    Action, AuditTruncationShim, CrashKind, DoubleSettleShim, EvidenceKind, ExploreConfig,
    ForgottenOrderShim, RealSystem, Scenario, Strategy,
};

const SEED: u64 = 7;
const ORDERS: usize = 2;

fn smoke_config() -> ExploreConfig {
    ExploreConfig {
        max_depth: 2,
        max_states: 5_000,
        strategy: Strategy::Bfs,
        stop_at_first_violation: false,
    }
}

fn first_violation_config() -> ExploreConfig {
    ExploreConfig {
        stop_at_first_violation: true,
        ..smoke_config()
    }
}

#[test]
fn real_stack_is_clean_at_the_smoke_bound() {
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let report = explore(&scenario, &root, &alphabet, &smoke_config());
    assert!(
        report.violations.is_empty(),
        "real stack violated an invariant: {:?}",
        report.violations[0].violation
    );
    assert!(!report.budget_exhausted, "smoke budget must cover depth 2");
    assert!(report.explored > 100, "explored only {}", report.explored);
    assert!(report.pruned > 0, "fingerprint dedup never fired");
    assert_eq!(report.deepest, 2);
}

#[test]
fn exploration_forks_the_sharded_settlement_across_shards() {
    // The forked stack settles through the provider's sharded core, so
    // the smoke-bound model check crosses shards only if the scenario's
    // order nonces land on more than one of them.
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let settlement = root.provider().settlement();
    let shards: std::collections::BTreeSet<usize> = scenario
        .orders
        .iter()
        .map(|o| settlement.shard_index(&o.nonce))
        .collect();
    assert!(
        shards.len() >= 2,
        "all {} order nonces settle on shard(s) {shards:?} of {}",
        scenario.order_count(),
        settlement.shard_count()
    );
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let report = explore(&scenario, &root, &alphabet, &smoke_config());
    assert_eq!(report.violations.len(), 0, "cross-shard exploration");
    assert!(!report.budget_exhausted);
}

#[test]
fn exploration_log_is_byte_identical_across_runs() {
    let run = || {
        let (scenario, root) = Scenario::build(SEED, ORDERS);
        let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
        explore(&scenario, &root, &alphabet, &smoke_config()).log
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
    let bfs = explore(&scenario, &root, &alphabet, &smoke_config());
    let dfs = explore(
        &scenario,
        &root,
        &alphabet,
        &ExploreConfig {
            strategy: Strategy::Dfs,
            ..smoke_config()
        },
    );
    assert_eq!(bfs.explored, dfs.explored);
    assert_eq!(bfs.pruned, dfs.pruned);
    assert_eq!(bfs.violations.len(), dfs.violations.len());
}

/// Runs the explorer against a buggy shim, shrinks the first
/// counterexample, and checks the full render against its golden
/// fixture.
fn assert_shim_caught<S, F>(make: F, invariant: &str, fixture: &str)
where
    S: utp_explore::Fork,
    F: Fn(RealSystem) -> S,
{
    let (scenario, root) = Scenario::build(SEED, ORDERS);
    let shim = make(root);
    let alphabet = default_alphabet(scenario.order_count(), scenario.nonce_ttl);
    let report = explore(&scenario, &shim, &alphabet, &first_violation_config());
    let found = report
        .violations
        .first()
        .unwrap_or_else(|| panic!("explorer missed the seeded {invariant} bug"));
    assert_eq!(found.violation.invariant, invariant);
    let minimal = shrink(&scenario, &shim, &found.schedule, invariant);
    assert!(
        minimal.len() <= found.schedule.len(),
        "shrinking grew the schedule"
    );
    let rendered = render_counterexample(&scenario, &shim, &minimal, invariant);
    assert_eq!(
        rendered, fixture,
        "minimal counterexample drifted from its pinned fixture"
    );
}

#[test]
fn double_settle_bug_is_found_and_shrinks_to_fixture() {
    assert_shim_caught(
        DoubleSettleShim::new,
        "balance-conservation",
        include_str!("fixtures/double_settle.counterexample"),
    );
}

#[test]
fn forgotten_order_bug_is_found_and_shrinks_to_fixture() {
    assert_shim_caught(
        ForgottenOrderShim::new,
        "recovery-matches-durable",
        include_str!("fixtures/forgotten_order.counterexample"),
    );
}

#[test]
fn audit_truncation_bug_is_found_and_shrinks_to_fixture() {
    assert_shim_caught(
        AuditTruncationShim::new,
        "audit-append-only",
        include_str!("fixtures/audit_truncation.counterexample"),
    );
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
        let shim = ForgottenOrderShim::new(root);
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
    let shim = DoubleSettleShim::new(root);
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
