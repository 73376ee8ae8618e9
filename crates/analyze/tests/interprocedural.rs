//! Fixture-pinned tests for the interprocedural passes.
//!
//! Each fixture set under `tests/fixtures/` is fed to [`analyze_files`]
//! under *fake* workspace-relative paths (pass scoping and the call
//! graph's crate mapping key off the path, not the on-disk location),
//! and the resulting diagnostics are pinned exactly: file, line, lint
//! and the load-bearing part of the message.
//!
//! `golden_json_snapshot` additionally locks the full combined JSON
//! document (findings + TCB report) against `tests/fixtures/golden.json`
//! so any change to output shape, ordering or content is a conscious
//! diff. Regenerate with `UPDATE_GOLDEN=1 cargo test -p utp-analyze`.

use std::fs;
use std::path::PathBuf;

use utp_analyze::diag::{render_json, Severity};
use utp_analyze::{analyze_files, Analysis};

fn fixture(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the analyzer over fixtures mapped to fake workspace paths.
fn analyze(map: &[(&str, &str)]) -> Analysis {
    analyze_files(
        map.iter()
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

#[test]
fn tcb_reachability_flags_undeclared_reachable_code() {
    let analysis = analyze(&[
        ("crates/core/src/pal.rs", "reach/pal.rs"),
        ("crates/core/src/rogue.rs", "reach/rogue.rs"),
    ]);
    assert_diags(
        &analysis,
        &[(
            "crates/core/src/rogue.rs",
            4,
            "tcb-reachability",
            "`rogue_helper` is reachable from the TCB (chain: invoke_confirmation -> rogue_helper)",
        )],
    );
    // The measured report sees the entry point and the spill.
    assert_eq!(analysis.tcb_report.entry_points, 1);
    assert_eq!(analysis.tcb_report.undeclared_reachable, 1);
}

#[test]
fn tcb_reachability_trace_gate_denies_pal_reachable_tracing() {
    let analysis = analyze(&[
        ("crates/tpm/src/quote_path.rs", "reach/trace_pal.rs"),
        ("crates/trace/src/lib.rs", "reach/trace_crate.rs"),
    ]);
    // Both layers fire: the import itself breaks the TCB boundary, and
    // the reachable recorder function trips the explicit trace gate.
    assert_diags(
        &analysis,
        &[
            (
                "crates/tpm/src/quote_path.rs",
                5,
                "tcb-boundary",
                "TCB file imports `utp_trace`, which is not on the TCB import allowlist",
            ),
            (
                "crates/trace/src/lib.rs",
                5,
                "tcb-reachability",
                "`span_volatile` in the flight recorder is reachable from the TCB \
                 (chain: attest_with_tracing -> span_volatile)",
            ),
        ],
    );
}

#[test]
fn tcb_reachability_journal_gate_denies_pal_reachable_durability() {
    let analysis = analyze(&[
        ("crates/tpm/src/persist.rs", "reach/journal_pal.rs"),
        ("crates/journal/src/lib.rs", "reach/journal_crate.rs"),
    ]);
    // Both layers fire: the import breaks the TCB boundary, and the
    // reachable journal function trips the explicit journal gate — the
    // TCB must never depend on disk.
    assert_diags(
        &analysis,
        &[
            (
                "crates/journal/src/lib.rs",
                5,
                "tcb-reachability",
                "`append_record` in the settlement journal is reachable from the TCB \
                 (chain: quote_then_persist -> append_record)",
            ),
            (
                "crates/tpm/src/persist.rs",
                5,
                "tcb-boundary",
                "TCB file imports `utp_journal`, which is outside the trusted computing base",
            ),
        ],
    );
}

#[test]
fn no_panic_transitive_follows_the_call_chain_out_of_the_tcb() {
    let analysis = analyze(&[
        ("crates/flicker/src/pal.rs", "panic/pal.rs"),
        ("crates/flicker/src/helper.rs", "panic/helper.rs"),
    ]);
    assert_diags(
        &analysis,
        &[(
            "crates/flicker/src/helper.rs",
            6,
            "no-panic-transitive",
            "`.expect()` in `helper_parse` is reachable from the TCB (chain: invoke -> helper_parse)",
        )],
    );
}

/// One panic-site list for both lints: `unreachable!` in a TCB file is
/// a `no-panic-in-tcb` deny, like `panic!`.
#[test]
fn no_panic_flags_unreachable_in_tcb_files() {
    let analysis = analyze(&[("crates/tpm/src/pcr.rs", "panic/unreachable.rs")]);
    assert_diags(
        &analysis,
        &[(
            "crates/tpm/src/pcr.rs",
            9,
            "no-panic-in-tcb",
            "`unreachable!` aborts the trusted session mid-transaction",
        )],
    );
}

#[test]
fn secret_taint_flags_debug_derive_and_print_sink() {
    let analysis = analyze(&[("crates/tpm/src/leaky.rs", "taint/leaky.rs")]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/tpm/src/leaky.rs",
                4,
                "secret-taint",
                "derive(Debug) on `LeakySlot` formats secret field(s) `session_key`",
            ),
            (
                "crates/tpm/src/leaky.rs",
                10,
                "secret-taint",
                "`session_key`",
            ),
        ],
    );
}

#[test]
fn secret_taint_flags_trace_sink_but_skips_key_name_paths() {
    let analysis = analyze(&[("crates/tpm/src/trace_leak.rs", "taint/trace_leak.rs")]);
    // Exactly one finding: `session_key` in the value position. The
    // `keys::OP` path segment does not trip the scan.
    assert_diags(
        &analysis,
        &[(
            "crates/tpm/src/trace_leak.rs",
            6,
            "secret-taint",
            "secret `session_key` flows into trace sink `span` in `record_unseal`",
        )],
    );
}

#[test]
fn secret_taint_flags_journal_sink_outside_key_crates() {
    let analysis = analyze(&[
        ("crates/server/src/journal_leak.rs", "taint/journal_leak.rs"),
        ("crates/journal/src/journal.rs", "authz/stubs/journal.rs"),
    ]);
    // Two findings on the append: `session_key` in the value position
    // (the `JournalRecord::` path segment does not trip the scan, and
    // the rule fires even though `crates/server` is outside the key
    // crates), and — since PR 8 — the unauthorized `Settle` journal
    // write itself (no verify/binding source on the path, no callers).
    assert_diags(
        &analysis,
        &[
            (
                "crates/server/src/journal_leak.rs",
                8,
                "authorization-flow",
                "journaling a `Settle` decision in `persist_session` is not dominated",
            ),
            (
                "crates/server/src/journal_leak.rs",
                8,
                "secret-taint",
                "secret `session_key` flows into journal sink `append_record` in `persist_session`",
            ),
        ],
    );
}

#[test]
fn secret_taint_flags_obs_sinks_outside_key_crates() {
    let analysis = analyze(&[("crates/server/src/obs_leak.rs", "taint/obs_leak.rs")]);
    // Two findings: `session_key` as a label value in the registry
    // registration and as the metric value of an artifact push. The
    // `names::`-qualified path segment does not trip the scan, and the
    // rule fires even though `crates/server` is outside the key crates.
    assert_diags(
        &analysis,
        &[
            (
                "crates/server/src/obs_leak.rs",
                9,
                "secret-taint",
                "secret `session_key` flows into metrics sink `counter` in `export_session`",
            ),
            (
                "crates/server/src/obs_leak.rs",
                13,
                "secret-taint",
                "secret `session_key` flows into metrics sink `push_u64` in `push_session`",
            ),
        ],
    );
}

#[test]
fn secret_taint_flags_fleet_report_sinks() {
    let analysis = analyze(&[("crates/bench/src/fleet_leak.rs", "taint/fleet_leak.rs")]);
    // Two findings: `session_key` as a scenario run tag and as a
    // fleet-report annotation value — both are folded into the report
    // digest and the E13 artifacts. The `labels::`-qualified path
    // segment does not trip the scan, and the rule fires even though
    // `crates/bench` is outside the key crates.
    assert_diags(
        &analysis,
        &[
            (
                "crates/bench/src/fleet_leak.rs",
                9,
                "secret-taint",
                "secret `session_key` flows into fleet-report sink `tag_run` in `tag_fleet_run`",
            ),
            (
                "crates/bench/src/fleet_leak.rs",
                13,
                "secret-taint",
                "secret `session_key` flows into fleet-report sink `annotate` in `annotate_report`",
            ),
        ],
    );
}

#[test]
fn tcb_boundary_denies_netsim_import() {
    let analysis = analyze(&[("crates/tpm/src/sim_hook.rs", "reach/netsim_pal.rs")]);
    // The fleet simulator is on the forbidden-crates list: a TCB file
    // importing it is denied at the boundary, before reachability even
    // runs.
    assert_diags(
        &analysis,
        &[(
            "crates/tpm/src/sim_hook.rs",
            6,
            "tcb-boundary",
            "TCB file imports `utp_netsim`, which is outside the trusted computing base",
        )],
    );
}

/// Flow-sensitive taint cases: a reassignment into a neutral-named
/// buffer taints it (the old let-only scan missed this), a zeroized
/// secret-named local is clean afterwards (the old name heuristic
/// flagged it), and return taint propagates through a neutral-named
/// fn into its caller's binding.
#[test]
fn secret_taint_flow_tracks_reassignment_zeroize_and_return_taint() {
    let analysis = analyze(&[("crates/tpm/src/flow_leak.rs", "taint/flow_leak.rs")]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/tpm/src/flow_leak.rs",
                10,
                "secret-taint",
                "secret `buf` flows into `println!` in `reassign_then_print`",
            ),
            (
                "crates/tpm/src/flow_leak.rs",
                25,
                "secret-taint",
                "secret `sub` flows into `println!` in `log_derived`",
            ),
        ],
    );
}

/// A sealing call in one arm of a `let`'s `if` cleans that arm only.
#[test]
fn taint_joins_the_arms_of_an_if_on_the_right_of_a_let() {
    let analysis = analyze(&[("crates/tpm/src/arm_leak.rs", "taint/arm_leak.rs")]);
    assert_diags(
        &analysis,
        &[(
            "crates/tpm/src/arm_leak.rs",
            6,
            "secret-taint",
            "secret `out` flows into `println!` in `export_key`",
        )],
    );
}

/// A `;`-terminated statement is not a return position, whatever it
/// binds.
#[test]
fn taint_return_positions_are_tails_and_returns_only() {
    let analysis = analyze(&[("crates/tpm/src/plain_return.rs", "taint/plain_return.rs")]);
    assert_diags(&analysis, &[]);
}

/// The return summary runs to convergence, not a fixed number of rounds.
#[test]
fn taint_return_summary_converges_through_a_depth_four_chain() {
    let analysis = analyze(&[("crates/tpm/src/chain_leak.rs", "taint/chain_leak.rs")]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/tpm/src/chain_leak.rs",
                6,
                "secret-taint",
                "secret `x` flows into `println!` in `log_f3`",
            ),
            (
                "crates/tpm/src/chain_leak.rs",
                11,
                "secret-taint",
                "secret `x` flows into `println!` in `log_f4`",
            ),
        ],
    );
}

/// untrusted-arith reads the return summary: a length decoded in a
/// helper stays untrusted in its caller.
#[test]
fn untrusted_arith_follows_a_length_through_a_helper_fn() {
    let analysis = analyze(&[("crates/journal/src/len_helper.rs", "taint/len_helper.rs")]);
    assert_diags(
        &analysis,
        &[(
            "crates/journal/src/len_helper.rs",
            11,
            "untrusted-arith",
            "`n` comes from untrusted bytes and feeds `+`",
        )],
    );
}

/// ct-discipline reads the return summary: a secret limb returned by a
/// helper stays secret in its caller.
#[test]
fn ct_discipline_follows_a_secret_through_a_helper_fn() {
    let analysis = analyze(&[("crates/crypto/src/ct_helper.rs", "taint/ct_helper.rs")]);
    assert_diags(
        &analysis,
        &[(
            "crates/crypto/src/ct_helper.rs",
            10,
            "ct-discipline",
            "branching on secret-dependent value `t`",
        )],
    );
}

/// ct-discipline exempts only `ct_eq` in a branch condition: a
/// `ct_select` result is the value its secret choice picked.
#[test]
fn ct_discipline_denies_a_branch_on_a_ct_select_result() {
    let analysis = analyze(&[(
        "crates/crypto/src/ct_select_branch.rs",
        "taint/ct_select_branch.rs",
    )]);
    assert_diags(
        &analysis,
        &[(
            "crates/crypto/src/ct_select_branch.rs",
            6,
            "ct-discipline",
            "branching on secret-dependent value `key_bit`",
        )],
    );
}

/// secret-taint's print rule reads a public projection as the engine's
/// classifier does: a key's length prints clean, the key does not.
#[test]
fn taint_print_of_a_secret_length_is_clean() {
    let analysis = analyze(&[("crates/tpm/src/len_public.rs", "taint/len_public.rs")]);
    assert_diags(&analysis, &[]);
    let analysis = analyze(&[("crates/tpm/src/len_leak.rs", "taint/len_leak.rs")]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/tpm/src/len_leak.rs",
                5,
                "secret-taint",
                "secret `session_key` flows into `eprintln!` in `log_key`",
            ),
            (
                "crates/tpm/src/len_leak.rs",
                6,
                "secret-taint",
                "secret `session_key` flows into `eprintln!` in `log_key`",
            ),
        ],
    );
}

#[test]
fn lock_discipline_flags_blocking_cycle_and_reentrancy() {
    let analysis = analyze(&[("crates/server/src/svc.rs", "locks/svc.rs")]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/server/src/svc.rs",
                6,
                "lock-discipline",
                "guard `a` is held across blocking `.recv()` in `forward`",
            ),
            (
                "crates/server/src/svc.rs",
                12,
                "lock-discipline",
                "lock-order cycle: `a` -> `b`",
            ),
            (
                "crates/server/src/svc.rs",
                18,
                "lock-discipline",
                "lock-order cycle: `b` -> `a`",
            ),
            (
                "crates/server/src/svc.rs",
                24,
                "lock-discipline",
                "`double` re-acquires lock `a` while its guard is still held",
            ),
        ],
    );
}

/// Flow-sensitive lockset cases: path-sensitive holds are caught, and
/// the two shapes the old extent scan mis-handled — a guard moved into
/// a call before blocking, and a `.lock().method(..)` chained call
/// aliasing a locking workspace fn by name — stay clean.
#[test]
fn lock_discipline_flow_kills_paths_and_stale_reads() {
    let analysis = analyze(&[("crates/server/src/flow_svc.rs", "locks/flow_svc.rs")]);
    assert_diags(
        &analysis,
        &[
            (
                "crates/server/src/flow_svc.rs",
                13,
                "lock-discipline",
                "guard `a` is held across blocking `.recv()` in `branchy`",
            ),
            (
                "crates/server/src/flow_svc.rs",
                28,
                "lock-discipline",
                "`head` was read under an earlier `a` guard and reused after that guard was released",
            ),
        ],
    );
}

/// Lock identity is the resolved `(type, field)`: two structs' `inner`
/// mutexes nest cleanly, and taking them in both orders is still a
/// cycle, named by type.
#[test]
fn lock_discipline_keys_locks_by_type_and_field() {
    let clean = analyze(&[("crates/server/src/two_inner.rs", "locks/two_inner.rs")]);
    assert_diags(&clean, &[]);
    let cycle = analyze(&[
        ("crates/server/src/two_inner.rs", "locks/two_inner.rs"),
        (
            "crates/server/src/two_inner_cycle.rs",
            "locks/two_inner_cycle.rs",
        ),
    ]);
    assert_diags(
        &cycle,
        &[
            (
                "crates/server/src/two_inner.rs",
                16,
                "lock-discipline",
                "lock-order cycle: `Accounts.inner` -> `Ledger.inner` (acquired `Ledger.inner` \
                 in `transfer` while holding `Accounts.inner`)",
            ),
            (
                "crates/server/src/two_inner_cycle.rs",
                6,
                "lock-discipline",
                "lock-order cycle: `Ledger.inner` -> `Accounts.inner` (acquired \
                 `Accounts.inner` in `refund` while holding `Ledger.inner`)",
            ),
        ],
    );
}

/// All fixture sets combined into one workspace: locks the entire JSON
/// document (findings + TCB report) byte-for-byte, which also pins the
/// deterministic (file, line, lint) sort order.
#[test]
fn golden_json_snapshot() {
    let analysis = analyze(&[
        ("crates/core/src/pal.rs", "reach/pal.rs"),
        ("crates/core/src/rogue.rs", "reach/rogue.rs"),
        ("crates/tpm/src/quote_path.rs", "reach/trace_pal.rs"),
        ("crates/trace/src/lib.rs", "reach/trace_crate.rs"),
        ("crates/tpm/src/persist.rs", "reach/journal_pal.rs"),
        ("crates/journal/src/lib.rs", "reach/journal_crate.rs"),
        ("crates/flicker/src/pal.rs", "panic/pal.rs"),
        ("crates/flicker/src/helper.rs", "panic/helper.rs"),
        ("crates/tpm/src/leaky.rs", "taint/leaky.rs"),
        ("crates/tpm/src/trace_leak.rs", "taint/trace_leak.rs"),
        ("crates/server/src/journal_leak.rs", "taint/journal_leak.rs"),
        ("crates/journal/src/journal.rs", "authz/stubs/journal.rs"),
        ("crates/server/src/obs_leak.rs", "taint/obs_leak.rs"),
        ("crates/server/src/svc.rs", "locks/svc.rs"),
    ]);
    let findings = render_json(&analysis.diagnostics);
    let findings = findings.trim_end().trim_end_matches('}');
    let tcb = analysis.tcb_report.to_json();
    let tcb = tcb
        .trim_start()
        .trim_start_matches('{')
        .trim_end()
        .trim_end_matches('}');
    let document = format!("{findings},{tcb}}}\n");

    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&golden_path, &document).expect("write golden");
        return;
    }
    let golden = fs::read_to_string(&golden_path).expect(
        "tests/fixtures/golden.json missing; regenerate with \
         UPDATE_GOLDEN=1 cargo test -p utp-analyze",
    );
    assert_eq!(
        document, golden,
        "analyzer JSON output diverged from the golden snapshot; if the \
         change is intentional regenerate with UPDATE_GOLDEN=1"
    );
}

/// Two runs over identical input produce identical output (determinism
/// satellite: no HashMap iteration order leaks into diagnostics or the
/// report).
#[test]
fn output_is_deterministic_across_runs() {
    let map = [
        ("crates/core/src/pal.rs", "reach/pal.rs"),
        ("crates/core/src/rogue.rs", "reach/rogue.rs"),
        ("crates/tpm/src/leaky.rs", "taint/leaky.rs"),
        ("crates/server/src/svc.rs", "locks/svc.rs"),
    ];
    let a = analyze(&map);
    let b = analyze(&map);
    assert_eq!(render_json(&a.diagnostics), render_json(&b.diagnostics));
    assert_eq!(a.tcb_report.to_json(), b.tcb_report.to_json());
}
