//! Fixture-pinned tests for the authorization-flow and protocol-order
//! passes (PR 8).
//!
//! The revert-fixtures re-introduce real settlement bugs — the
//! evidence-order binding pre-check removed (`provider_unbound.rs`),
//! sticky-Confirmed removed (`store_demote.rs`), and the evidence check
//! deleted from the settle wrapper (`settle_unchecked.rs`) — and the
//! passes must flag each, proving the static oracle catches what the
//! dynamic explorer did. Each bad fixture ships with a clean twin so the
//! tests pin the *boundary* of the rule, not just its firing.
//!
//! Every run also feeds the `stubs/` files under the workspace paths the
//! spec names (`utp_core::verifier::check_evidence`,
//! `utp_server::store::Store::try_settle`, ...), so sources, sinks and
//! order events resolve the way they do on the real workspace.
//!
//! `authz_golden_snapshot_and_determinism` locks the combined findings
//! plus the authz coverage report byte-for-byte against
//! `tests/fixtures/authz/golden.json` across two runs. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p utp-analyze`.

use std::fs;
use std::path::PathBuf;

use utp_analyze::diag::{render_json, Severity};
use utp_analyze::{analyze_files, Analysis};

fn fixture(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/authz")
        .join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The spec's primitives, under the paths the spec names them by.
const STUBS: &[(&str, &str)] = &[
    ("crates/core/src/verifier.rs", "stubs/verifier.rs"),
    ("crates/journal/src/journal.rs", "stubs/journal.rs"),
    ("crates/server/src/provider.rs", "stubs/provider.rs"),
    ("crates/server/src/service.rs", "stubs/service.rs"),
    ("crates/server/src/store.rs", "stubs/store.rs"),
    ("shims/crossbeam/src/lib.rs", "stubs/crossbeam.rs"),
];

/// Runs the analyzer over fixtures (plus [`STUBS`]) mapped to fake
/// workspace paths.
fn analyze(map: &[(&str, &str)]) -> Analysis {
    analyze_files(
        map.iter()
            .chain(STUBS)
            .map(|(fake, rel)| (fake.to_string(), fixture(rel)))
            .collect(),
    )
}

/// Asserts diagnostics match `(file, line, lint, message-substring)`
/// exactly, in order.
fn assert_diags(analysis: &Analysis, expected: &[(&str, u32, &str, &str)]) {
    let got: Vec<String> = analysis
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}: [{}] {}", d.file, d.line, d.lint, d.message))
        .collect();
    assert_eq!(
        analysis.diagnostics.len(),
        expected.len(),
        "diagnostic count mismatch:\n{}",
        got.join("\n")
    );
    for (d, (file, line, lint, needle)) in analysis.diagnostics.iter().zip(expected) {
        assert_eq!(d.file, *file, "wrong file:\n{}", got.join("\n"));
        assert_eq!(d.line, *line, "wrong line:\n{}", got.join("\n"));
        assert_eq!(d.lint, *lint, "wrong lint:\n{}", got.join("\n"));
        assert_eq!(d.severity, Severity::Deny);
        assert!(
            d.message.contains(needle),
            "message `{}` does not contain `{}`",
            d.message,
            needle
        );
    }
}

/// Revert-fixture 1: binding pre-check removed — both settlement sinks
/// (the store settle and the `Receipt`) deny for the missing
/// `order-bound` capability; the bound twin is clean.
#[test]
fn authz_flow_flags_unbound_settlement_and_accepts_bound_twin() {
    let analysis = analyze(&[
        ("crates/server/src/provider_bound.rs", "provider_bound.rs"),
        (
            "crates/server/src/provider_unbound.rs",
            "provider_unbound.rs",
        ),
    ]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/server/src/provider_unbound.rs",
                16,
                "authorization-flow",
                "settling an order (`Store::try_settle`) in `submit_unbound` is not dominated \
                 by its authorization source(s): [order-bound] missing",
            ),
            (
                "crates/server/src/provider_unbound.rs",
                17,
                "authorization-flow",
                "constructing a settlement `Receipt` in `submit_unbound` is not dominated \
                 by its authorization source(s): [order-bound] missing",
            ),
        ],
    );
}

/// Revert-fixture 3: the evidence check deleted from the settle wrapper.
/// The wrapper still consumes the nonce, so the closure derives only
/// `nonce-settled` for it; the dispatch `match` keeps only what both of
/// its arms grant, so the store settle and the `Receipt` deny for the
/// missing `verified`. The checked twin is clean.
#[test]
fn authz_flow_flags_settle_without_evidence_check_and_accepts_checked_twin() {
    let analysis = analyze(&[
        ("crates/server/src/settle_checked.rs", "settle_checked.rs"),
        (
            "crates/server/src/settle_unchecked.rs",
            "settle_unchecked.rs",
        ),
    ]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/server/src/settle_unchecked.rs",
                28,
                "authorization-flow",
                "settling an order (`Store::try_settle`) in `submit_unchecked` is not dominated \
                 by its authorization source(s): [verified] missing",
            ),
            (
                "crates/server/src/settle_unchecked.rs",
                29,
                "authorization-flow",
                "constructing a settlement `Receipt` in `submit_unchecked` is not dominated \
                 by its authorization source(s): [verified] missing",
            ),
        ],
    );
}

/// Revert-fixture 2: sticky-Confirmed removed — demoting an order to
/// Rejected without first checking for Confirmed denies; the guarded
/// twin (same file) is clean.
#[test]
fn authz_flow_flags_unguarded_status_demotion() {
    let analysis = analyze(&[("crates/server/src/store_demote.rs", "store_demote.rs")]);
    assert_diags(
        &analysis,
        &[(
            "crates/server/src/store_demote.rs",
            8,
            "authorization-flow",
            "demoting an order status to `Rejected` in `reject_unchecked` is not dominated \
             by its authorization source(s): [confirmed-checked] missing",
        )],
    );
}

/// WAL-before-ack: resolving a ticket before the journal barrier
/// denies, both ahead of the append and between a batch's appends and
/// its one `sync_to`; barrier-first, the `if let Some(journal)` guard,
/// the must-sync helper (performer closure) and a group commit that
/// resolves every ticket after its barrier are all clean.
#[test]
fn protocol_order_flags_ack_before_wal_only() {
    let analysis = analyze(&[("crates/server/src/order_ack.rs", "order_ack.rs")]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/server/src/order_ack.rs",
                9,
                "protocol-order",
                "`send` here can run before `sync_to` on some path through `ack_first`",
            ),
            (
                "crates/server/src/order_ack.rs",
                59,
                "protocol-order",
                "`send` here can run before `sync_to` on some path through \
                 `ack_before_barrier`",
            ),
        ],
    );
}

/// WAL-before-challenge: registering the confirmation challenge before
/// the `CreateOrder` append denies; WAL-first is clean.
#[test]
fn protocol_order_flags_register_before_wal_only() {
    let analysis = analyze(&[("crates/server/src/order_place.rs", "order_place.rs")]);
    assert_diags(
        &analysis,
        &[(
            "crates/server/src/order_place.rs",
            12,
            "protocol-order",
            "`register` here can run before `append_record` on some path through \
             `register_first`",
        )],
    );
}

/// Caller-context lifting: a sink with no local authorization is clean
/// when every caller establishes the capabilities before the call, and
/// denied when its only caller establishes nothing. A chain of five
/// wrappers around the evidence check still grants (`authz_chain.rs`).
#[test]
fn authz_flow_lifts_authorization_through_callers() {
    let analysis = analyze(&[
        ("crates/server/src/authz_chain.rs", "authz_chain.rs"),
        ("crates/server/src/authz_lift.rs", "authz_lift.rs"),
    ]);
    assert_diags(
        &analysis,
        &[(
            "crates/server/src/authz_lift.rs",
            38,
            "authorization-flow",
            "settling an order (`Store::try_settle`) in `finish_unchecked` is not dominated",
        )],
    );
}

const ALL_FIXTURES: &[(&str, &str)] = &[
    ("crates/server/src/authz_lift.rs", "authz_lift.rs"),
    ("crates/server/src/order_ack.rs", "order_ack.rs"),
    ("crates/server/src/order_place.rs", "order_place.rs"),
    ("crates/server/src/provider_bound.rs", "provider_bound.rs"),
    (
        "crates/server/src/provider_unbound.rs",
        "provider_unbound.rs",
    ),
    ("crates/server/src/settle_checked.rs", "settle_checked.rs"),
    (
        "crates/server/src/settle_unchecked.rs",
        "settle_unchecked.rs",
    ),
    ("crates/server/src/store_demote.rs", "store_demote.rs"),
];

fn combined_document() -> String {
    let analysis = analyze(ALL_FIXTURES);
    let findings = render_json(&analysis.diagnostics);
    let findings = findings.trim_end().trim_end_matches('}');
    let authz = analysis.authz_report.to_json();
    let authz = authz
        .trim_start()
        .trim_start_matches('{')
        .trim_end()
        .trim_end_matches('}');
    format!("{findings},{authz}}}\n")
}

/// All authz fixtures combined: locks findings + the authz coverage
/// report byte-for-byte, and proves two runs are identical (no map
/// iteration order or fixpoint scheduling leaks into the output).
#[test]
fn authz_golden_snapshot_and_determinism() {
    let first = combined_document();
    let second = combined_document();
    assert_eq!(first, second, "authz analysis is not deterministic");

    let golden_path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/authz/golden.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden_path, &first).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&golden_path).expect(
        "tests/fixtures/authz/golden.json missing; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p utp-analyze",
    );
    assert_eq!(
        first, golden,
        "authz JSON output diverged from the golden snapshot; if the \
         change is intentional regenerate with UPDATE_GOLDEN=1"
    );
}
