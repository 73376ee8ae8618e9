//! `tcb-boundary` and `tcb-reachability` — the trusted computing base
//! stays inside the crates it is declared to use.
//!
//! The paper's minimal-TCB argument only holds if the PAL and TPM driver
//! cannot quietly grow dependencies on the untrusted world. One table,
//! keyed by crate ([`crate::report::TRUST`]), says what the TCB may do
//! with each crate; two checks read it:
//!
//! * `tcb-boundary` — every `use` in a TCB file names `std`-style roots,
//!   its own modules, or a crate its crate may import; an untrusted
//!   crate is named as outside the TCB. OS-facing `std` subtrees
//!   (`std::net`, `std::fs`, `std::process`, ...) are denied too: a PAL
//!   running under DRTM isolation could never have them.
//! * `tcb-reachability` — every function the PAL entry points reach
//!   (all non-test functions in TCB files, over the resolved call graph)
//!   must live where [`crate::report::declared_category`] declares a
//!   reviewed TCB category. A reachable function anywhere else is either
//!   an accidental trust expansion (break the call edge) or a missing
//!   declaration (a reviewed table entry). Two crates carry an explicit
//!   gate on top: reachable code there is denied unconditionally, with
//!   its own message. The flight recorder (`crates/trace`): trusted code
//!   exports data-only journals (`TpmOpRecord`, `PhaseTimings`) that
//!   untrusted code turns into records — the recorder itself must never
//!   be PAL-reachable, or the measured TCB would silently absorb the
//!   whole observability stack. The settlement journal
//!   (`crates/journal`): durability is the untrusted provider's
//!   availability concern, and a storage stack reachable from the PAL
//!   would both balloon the measured TCB and hand the disk a way into
//!   the trusted path.

use super::{Finding, Pass};
use crate::graph::{crate_of, WorkspaceIndex};
use crate::lexer::TokenKind;
use crate::report::{declared_category, trust};
use crate::source::SourceFile;

/// `std` subtrees forbidden in the TCB (OS services a measured PAL does
/// not have; `core`/`alloc`-style subsets like `fmt`, `collections`,
/// `time::Duration` remain fine).
const STD_DENY: &[&str] = &["net", "fs", "process", "thread", "env", "os", "io", "path"];

/// Import roots every TCB file may use.
const COMMON_ALLOW: &[&str] = &[
    "crate",
    "self",
    "super",
    "core",
    "alloc",
    "std",
    "utp_crypto",
];

/// The pass, once per lint id it reports: the import boundary of TCB
/// files, or what the TCB reaches.
pub struct Tcb {
    /// Report reachability rather than imports.
    pub reachability: bool,
}

impl Pass for Tcb {
    fn id(&self) -> &'static str {
        if self.reachability {
            "tcb-reachability"
        } else {
            "tcb-boundary"
        }
    }

    fn description(&self) -> &'static str {
        if self.reachability {
            "functions reachable from the PAL must be in the declared TCB allowlist"
        } else {
            "TCB files (PAL + TPM driver) may only import allowlisted crates"
        }
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        if self.reachability || !super::is_tcb_path(&file.path) {
            return Vec::new();
        }
        boundary(file)
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        if !self.reachability {
            return Vec::new();
        }
        let mut out = Vec::new();
        for idx in 0..ws.fns.len() {
            if !ws.reach.reachable[idx] || !ws.is_live_fn(idx) {
                continue;
            }
            let path = ws.fn_path(idx);
            let item = ws.fn_item(idx);
            let gate = trust(&ws.metas[ws.fns[idx].file].crate_alias).and_then(|t| t.gate);
            let message = if let Some((what, advice)) = gate {
                format!(
                    "`{}` in {what} is reachable from the TCB (chain: {}); {advice}",
                    item.name,
                    ws.chain_to(idx),
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
            out.push((ws.fns[idx].file, Finding::deny(item.start_line, message)));
        }
        out
    }
}

/// The import check of one TCB file.
fn boundary(file: &SourceFile) -> Vec<Finding> {
    let extra = trust(&crate_of(&file.path)).map_or(&[][..], |t| t.imports);
    // Modules this file declares: `use device::...` in lib.rs is a
    // local re-export, not a foreign import.
    let local_mods: Vec<&str> = file
        .tokens
        .windows(2)
        .filter(|w| w[0].is_ident("mod") && w[1].kind == TokenKind::Ident)
        .map(|w| w[1].text.as_str())
        .collect();
    let mut findings = Vec::new();
    let tokens = &file.tokens;
    let mut i = 0;
    while i < tokens.len() {
        if !tokens[i].is_ident("use") {
            i += 1;
            continue;
        }
        // Find the declaration's extent (up to `;`) and its root.
        let mut end = i + 1;
        while end < tokens.len() && !tokens[end].is_punct(";") {
            end += 1;
        }
        let decl = &tokens[i + 1..end.min(tokens.len())];
        let line = tokens[i].line;
        if let Some(root) = decl.iter().find(|t| t.kind == TokenKind::Ident) {
            let root_name = root.text.as_str();
            if trust(root_name).is_some_and(|t| t.untrusted) {
                findings.push(Finding::deny(
                    line,
                    format!(
                        "TCB file imports `{root_name}`, which is outside the trusted \
                         computing base; the PAL/TPM driver must not depend on \
                         untrusted server/simulation crates"
                    ),
                ));
            } else if root_name == "std" {
                for t in decl.iter().filter(|t| t.kind == TokenKind::Ident) {
                    if STD_DENY.contains(&t.text.as_str()) {
                        findings.push(Finding::deny(
                            t.line,
                            format!(
                                "TCB file imports `std::{}`: OS services are unavailable \
                                 to a measured PAL and must not leak into the TCB; use \
                                 core/alloc-style std subsets only",
                                t.text
                            ),
                        ));
                    }
                }
            } else if !COMMON_ALLOW.contains(&root_name)
                && !extra.contains(&root_name)
                && !local_mods.contains(&root_name)
            {
                findings.push(Finding::deny(
                    line,
                    format!(
                        "TCB file imports `{root_name}`, which is not on the TCB import \
                         allowlist ({})",
                        COMMON_ALLOW
                            .iter()
                            .chain(extra)
                            .copied()
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                ));
            }
        }
        i = end + 1;
    }
    findings
}
