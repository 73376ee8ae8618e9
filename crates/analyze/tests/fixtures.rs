//! Fixture tests: for every pass, a violating snippet must produce the
//! expected diagnostic (lint id, severity, file:line), and the same
//! snippet with an allow-annotation must be suppressed.
//!
//! Fixtures are in-memory strings fed through [`analyze_source`] under
//! TCB-shaped paths, so nothing here can leak into the real workspace
//! walk (which additionally skips `fixtures` directories).

use utp_analyze::analyze_source;
use utp_analyze::diag::{Diagnostic, Severity};

fn assert_finding(diags: &[Diagnostic], lint: &str, line: u32) {
    assert!(
        diags.iter().any(|d| d.lint == lint && d.line == line),
        "expected a `{lint}` finding on line {line}, got:\n{diags:#?}"
    );
}

fn assert_no_finding(diags: &[Diagnostic], lint: &str) {
    assert!(
        !diags.iter().any(|d| d.lint == lint),
        "expected no `{lint}` findings, got:\n{diags:#?}"
    );
}

// ---- pass 1: tcb-boundary --------------------------------------------------

#[test]
fn tcb_boundary_flags_forbidden_crate_import() {
    let src = "use utp_crypto::sha1::Sha1;\nuse utp_server::provider::ServiceProvider;\n";
    let diags = analyze_source("crates/tpm/src/fixture.rs", src);
    assert_finding(&diags, "tcb-boundary", 2);
    assert_eq!(diags.len(), 1, "the utp_crypto import is allowlisted");
}

#[test]
fn tcb_boundary_flags_os_facing_std_subtrees() {
    let src = "use std::fmt;\nuse std::net::TcpStream;\nuse std::fs::File;\n";
    let diags = analyze_source("crates/flicker/src/pal.rs", src);
    assert_finding(&diags, "tcb-boundary", 2);
    assert_finding(&diags, "tcb-boundary", 3);
    assert!(!diags.iter().any(|d| d.line == 1), "std::fmt is fine");
}

#[test]
fn tcb_boundary_ignores_non_tcb_files_and_local_modules() {
    // Server code may import anything; TCB lib.rs may re-export its own
    // modules.
    assert_no_finding(
        &analyze_source("crates/server/src/fixture.rs", "use std::net::TcpStream;\n"),
        "tcb-boundary",
    );
    let src = "pub mod device;\npub use device::{Tpm, TpmConfig};\n";
    assert_no_finding(
        &analyze_source("crates/tpm/src/lib.rs", src),
        "tcb-boundary",
    );
}

#[test]
fn tcb_boundary_severity_is_deny() {
    let diags = analyze_source("crates/tpm/src/fixture.rs", "use utp_netsim::Link;\n");
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].severity, Severity::Deny);
    assert_eq!(diags[0].file, "crates/tpm/src/fixture.rs");
}

// ---- pass 2: no-panic-in-tcb -----------------------------------------------

#[test]
fn no_panic_flags_unwrap_expect_and_panic_macros() {
    let src = "\
fn f(v: Option<u8>) -> u8 {
    let a = v.unwrap();
    let b = v.expect(\"msg\");
    if a == 0 { panic!(\"boom\"); }
    todo!()
}
";
    let diags = analyze_source("crates/tpm/src/fixture.rs", src);
    assert_finding(&diags, "no-panic-in-tcb", 2);
    assert_finding(&diags, "no-panic-in-tcb", 3);
    assert_finding(&diags, "no-panic-in-tcb", 4);
    assert_finding(&diags, "no-panic-in-tcb", 5);
}

#[test]
fn no_panic_flags_dynamic_indexing_but_not_literal() {
    let src = "\
fn f(v: &[u8], i: usize) -> u8 {
    let x = v[i];
    let first = v[0];
    x + first
}
";
    let diags = analyze_source("crates/tpm/src/fixture.rs", src);
    assert_finding(&diags, "no-panic-in-tcb", 2);
    assert!(
        !diags.iter().any(|d| d.line == 3),
        "literal index v[0] is structurally bounded, got:\n{diags:#?}"
    );
}

#[test]
fn no_panic_skips_cfg_test_modules() {
    let src = "\
pub fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
";
    assert_no_finding(
        &analyze_source("crates/tpm/src/fixture.rs", src),
        "no-panic-in-tcb",
    );
}

#[test]
fn no_panic_honors_allow_annotation_with_reason() {
    let src = "\
fn f(v: &[u8], i: usize) -> u8 {
    // utp-analyze: allow(no-panic-in-tcb) i < v.len() checked by caller
    v[i]
}
";
    assert_no_finding(
        &analyze_source("crates/tpm/src/fixture.rs", src),
        "no-panic-in-tcb",
    );
}

#[test]
fn no_panic_ignores_non_tcb_files() {
    assert_no_finding(
        &analyze_source(
            "crates/server/src/fixture.rs",
            "fn f() { None::<u8>.unwrap(); }\n",
        ),
        "no-panic-in-tcb",
    );
}

// ---- pass 3: ct-discipline -------------------------------------------------

#[test]
fn ct_discipline_flags_equality_on_secret_names() {
    let src = "\
fn check(key: &[u8], other: &[u8]) -> bool {
    key == other
}
";
    let diags = analyze_source("crates/crypto/src/fixture.rs", src);
    assert_finding(&diags, "ct-discipline", 2);
    assert!(diags.iter().any(|d| d.message.contains("ct_eq")));
}

#[test]
fn ct_discipline_allows_len_comparisons_and_const_parameters() {
    let src = "\
const DIGEST_LEN: usize = 20;
fn check(digest: &[u8]) -> bool {
    digest.len() == DIGEST_LEN
}
";
    assert_no_finding(
        &analyze_source("crates/crypto/src/fixture.rs", src),
        "ct-discipline",
    );
}

#[test]
fn ct_discipline_flags_early_return_in_secret_loop() {
    let src = "\
fn cmp(auth_bytes: &[u8], other: &[u8]) -> bool {
    for (a, b) in auth_bytes.iter().zip(other) {
        if a != b {
            return false;
        }
    }
    true
}
";
    let diags = analyze_source("crates/tpm/src/auth.rs", src);
    assert_finding(&diags, "ct-discipline", 4);
}

#[test]
fn ct_discipline_only_applies_to_crypto_and_tpm_auth_paths() {
    let src = "fn f(key: &[u8], k2: &[u8]) -> bool { key == k2 }\n";
    assert_no_finding(
        &analyze_source("crates/server/src/fixture.rs", src),
        "ct-discipline",
    );
}

// ---- untrusted-arith ------------------------------------------------------

/// A `match` arm's guard is that arm's check, and no other arm's: the
/// lane-index shape of a bounded queue.
#[test]
fn untrusted_arith_reads_a_match_guard_as_its_own_arms_check() {
    let src = |other: &str| {
        format!(
            "\
fn lane(r: &mut Reader, lanes: &mut Vec<u64>) -> u64 {{
    let n = r.u32().unwrap() as usize;
    let lane = match lanes.pop() {{
        Some(_) => 0,
        None if n < MAX => {{
            lanes.push(0);
            n - 1
        }}
        None => {other},
    }};
    lanes[lane]
}}
"
        )
    };
    let path = "crates/journal/src/fixture.rs";
    assert_no_finding(&analyze_source(path, &src("0")), "untrusted-arith");
    assert_finding(&analyze_source(path, &src("n")), "untrusted-arith", 11);
}

// ---- annotation meta-lints -------------------------------------------------

#[test]
fn allow_without_reason_is_a_deny_finding() {
    let src = "// utp-analyze: allow(no-panic-in-tcb)\nfn f() {}\n";
    let diags = analyze_source("crates/tpm/src/fixture.rs", src);
    assert_finding(&diags, "malformed-allow", 1);
    assert_eq!(diags[0].severity, Severity::Deny);
}

#[test]
fn allow_naming_unknown_lint_is_a_deny_finding() {
    let src = "// utp-analyze: allow(no-such-lint) because reasons\nfn f() {}\n";
    assert_finding(
        &analyze_source("crates/tpm/src/fixture.rs", src),
        "malformed-allow",
        1,
    );
}

#[test]
fn allow_suppressing_nothing_is_a_warning() {
    let src = "// utp-analyze: allow(no-panic-in-tcb) stale waiver\nfn f() {}\n";
    let diags = analyze_source("crates/tpm/src/fixture.rs", src);
    assert_finding(&diags, "unused-allow", 1);
    assert_eq!(diags[0].severity, Severity::Warn);
}

// ---- output formats --------------------------------------------------------

#[test]
fn json_output_is_well_formed_for_findings() {
    let diags = analyze_source("crates/tpm/src/fixture.rs", "use utp_server::x;\n");
    let json = utp_analyze::diag::render_json(&diags);
    assert!(json.contains("\"lint\": \"tcb-boundary\""));
    assert!(json.contains("\"line\": 1"));
    assert!(json.contains("\"severity\": \"deny\""));
}
