//! `tcb-reachability` — every function transitively reachable from the
//! PAL entry points must live in a file with a declared, reviewed TCB
//! category ([`crate::report::declared_category`]).
//!
//! The entry set is all non-test functions in TCB files
//! ([`crate::passes::is_tcb_path`]); edges come from the conservative
//! call graph, so anything the PAL *could* name is in the closure. A
//! reachable function in an undeclared file means either an accidental
//! trust expansion (break the call edge) or a missing allowlist entry
//! (extend `declared_category` with a reviewed category).
//!
//! The flight recorder (`crates/trace`) gets an *explicit* gate (a
//! `GATES` row) on top of the allowlist: reachable trace code is denied
//! unconditionally, with its own message, and declaring a category for
//! `crates/trace` would not lift it. Trusted code exports data-only journals
//! (`TpmOpRecord`, `PhaseTimings`) that untrusted code turns into
//! records — the recorder itself must never be PAL-reachable, or the
//! measured TCB would silently absorb the whole observability stack.
//!
//! The settlement journal (`crates/journal`) gets the same explicit
//! gate: the TCB must never depend on disk. Durability is the untrusted
//! provider's availability concern — the PAL attests what the human
//! confirmed and nothing more, and a storage stack (device model, WAL
//! framing, recovery) reachable from the PAL would both balloon the
//! measured TCB and hand the disk a way into the trusted path.

use crate::diag::Severity;
use crate::graph::WorkspaceIndex;
use crate::passes::{Finding, Pass};
use crate::report::declared_category;

/// One explicitly gated subsystem: reachable code under `prefix` is a
/// deny whatever `declared_category` says.
struct Gate {
    /// Path prefix of the gated crate.
    prefix: &'static str,
    /// What the crate is, in diagnostics (`the flight recorder`).
    what: &'static str,
    /// Why it must stay out of the PAL and what to do instead.
    advice: &'static str,
}

/// The explicit gates, checked in this order (see the module docs).
const GATES: &[Gate] = &[
    Gate {
        prefix: "crates/trace/src/",
        what: "the flight recorder",
        advice: "trace emission must stay out of the PAL — export a data-only journal from \
                 trusted code and turn it into records outside the TCB",
    },
    Gate {
        prefix: "crates/journal/src/",
        what: "the settlement journal",
        advice: "the TCB must never depend on disk — durability is the untrusted \
                 provider's concern, the PAL only attests what the human confirmed",
    },
];

/// The pass.
pub struct TcbReachability;

impl Pass for TcbReachability {
    fn id(&self) -> &'static str {
        "tcb-reachability"
    }

    fn description(&self) -> &'static str {
        "functions reachable from the PAL must be in the declared TCB allowlist"
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        let mut out = Vec::new();
        for idx in 0..ws.fns.len() {
            if !ws.reach.reachable[idx] || !ws.is_live_fn(idx) {
                continue;
            }
            let path = ws.fn_path(idx);
            let item = ws.fn_item(idx);
            let message = if let Some(g) = GATES.iter().find(|g| path.starts_with(g.prefix)) {
                format!(
                    "`{}` in {} is reachable from the TCB (chain: {}); {}",
                    item.name,
                    g.what,
                    ws.chain_to(idx),
                    g.advice
                )
            } else if declared_category(path).is_some() {
                continue;
            } else {
                format!(
                    "`{}` is reachable from the TCB (chain: {}) but `{}` has no \
                     declared TCB category; break the call edge or extend \
                     report::declared_category with a reviewed entry",
                    item.name,
                    ws.chain_to(idx),
                    path
                )
            };
            out.push((
                ws.fns[idx].file,
                Finding {
                    line: item.start_line,
                    severity: Severity::Deny,
                    message,
                },
            ));
        }
        out
    }
}
