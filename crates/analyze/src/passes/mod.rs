//! The pass registry and shared pass helpers.

pub mod authz_flow;
pub mod ct_discipline;
pub mod flow;
pub mod forbid_unsafe;
pub mod lock_discipline;
pub mod no_panic;
pub mod protocol_order;
pub mod secret_taint;
pub mod tcb;
pub mod untrusted_arith;
pub mod wallclock;

use crate::diag::Severity;
use crate::graph::WorkspaceIndex;
use crate::source::SourceFile;

/// A raw finding from one pass, before suppression filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// 1-based line number.
    pub line: u32,
    /// Gate or advisory.
    pub severity: Severity,
    /// Explanation including the suggested fix.
    pub message: String,
}

impl Finding {
    /// A deny-level finding.
    pub fn deny(line: u32, message: String) -> Finding {
        Finding {
            line,
            severity: Severity::Deny,
            message,
        }
    }
}

/// One analysis pass. File-local passes implement [`Pass::check`];
/// interprocedural passes implement [`Pass::check_workspace`] over the
/// symbol index / call graph. A pass may implement both.
pub trait Pass {
    /// Stable lint id, e.g. `no-panic-in-tcb` (used in allow annotations).
    fn id(&self) -> &'static str;

    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;

    /// Runs the file-local pass; returns raw findings (suppressions are
    /// applied by the driver).
    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        let _ = file;
        Vec::new()
    }

    /// Runs the workspace-wide pass; returns `(file index, finding)`
    /// pairs against [`WorkspaceIndex::files`].
    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        let _ = ws;
        Vec::new()
    }
}

/// All passes, in reporting order.
pub fn registry() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(tcb::Tcb {
            reachability: false,
        }),
        Box::new(no_panic::NoPanic { transitive: false }),
        Box::new(ct_discipline::CtDiscipline),
        Box::new(forbid_unsafe::ForbidUnsafeEverywhere),
        Box::new(wallclock::WallclockInModel),
        Box::new(tcb::Tcb { reachability: true }),
        Box::new(no_panic::NoPanic { transitive: true }),
        Box::new(secret_taint::SecretTaint),
        Box::new(lock_discipline::LockDiscipline),
        Box::new(untrusted_arith::UntrustedArith),
        Box::new(authz_flow::AuthzFlow),
        Box::new(protocol_order::ProtocolOrder),
    ]
}

/// Files forming the trusted computing base: the confirmation PAL(s) and
/// the whole TPM driver crate.
pub fn is_tcb_path(path: &str) -> bool {
    path.starts_with("crates/tpm/src/")
        || path == "crates/flicker/src/pal.rs"
        || path == "crates/core/src/pal.rs"
}

/// Traits whose implementations model parties outside the machine, by
/// `(crate, trait)`. A PAL calling `utp_flicker::pal::Operator::respond`
/// is the person at the keyboard answering a prompt: no implementation
/// of it runs in the measured session, so TCB reachability stops there.
pub const OUTSIDE_THE_MACHINE: &[(&str, &str)] = &[("utp_flicker", "Operator")];

/// Words that mark a binding as secret-carrying for ct-discipline.
const SECRET_WORDS: &[&str] = &[
    "key", "keys", "secret", "secrets", "auth", "hmac", "digest", "digests", "nonce", "nonces",
    "mac", "macs", "tag", "tags",
];

/// Does this identifier name secret material (component-wise match, so
/// `session_key` and `auth_digest` hit but `machine` does not)?
pub fn is_secret_ident(ident: &str) -> bool {
    name_has(ident, SECRET_WORDS)
}

/// Does any `_`-separated component of `ident`, case-folded, appear in
/// `words`? SCREAMING_CASE identifiers never match: constants like
/// `DIGEST_LEN` are public protocol parameters, not secret bindings.
pub fn name_has(ident: &str, words: &[&str]) -> bool {
    !ident
        .chars()
        .all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit())
        && (ident.split('_')).any(|c| words.contains(&c.to_ascii_lowercase().as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_ident_matches_components_not_substrings() {
        assert!(is_secret_ident("key"));
        assert!(is_secret_ident("session_key"));
        assert!(is_secret_ident("auth_digest"));
        assert!(is_secret_ident("expected_hmac"));
        assert!(!is_secret_ident("machine"));
        assert!(!is_secret_ident("keyboard"));
        assert!(!is_secret_ident("monkey"));
    }

    #[test]
    fn tcb_paths_cover_pal_and_tpm() {
        assert!(is_tcb_path("crates/tpm/src/device.rs"));
        assert!(is_tcb_path("crates/flicker/src/pal.rs"));
        assert!(is_tcb_path("crates/core/src/pal.rs"));
        assert!(!is_tcb_path("crates/server/src/flow.rs"));
        assert!(!is_tcb_path("crates/tpm/tests/properties.rs"));
    }
}
