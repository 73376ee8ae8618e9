//! `no-panic-in-tcb` and `no-panic-transitive` — nothing the trusted
//! session runs may abort.
//!
//! A panic inside the PAL or TPM driver tears down the trusted session
//! mid-transaction, which at best loses the confirmation and at worst
//! leaves sealed state half-written. All fallible operations must return
//! a proper error (`TpmError`, `PalError`, ...).
//!
//! One walk over the TCB entry points and everything they reach
//! ([`crate::graph`]) collects one panic-site list: `panic!` / `todo!` /
//! `unimplemented!` / `unreachable!`, `.unwrap()` / `.expect(..)`, and —
//! inside TCB files, where bounds are reviewed locally — index and slice
//! expressions with a dynamic index. Constant indices (`buf[0]`) and
//! full-range slices (`&buf[..]`) are tolerated because their bounds
//! behavior is locally evident. A site in a TCB file reports as
//! `no-panic-in-tcb`; a site in code the TCB reaches reports as
//! `no-panic-transitive`, on the panic construct in the callee (that is
//! where the fix goes) with the TCB call chain in the message.
//!
//! `assert!`-family macros are deliberately **excluded**: they are
//! deterministic programmer-error guards on documented preconditions
//! (and `debug_assert!` compiles out), whereas unwrap/expect abort on
//! data-dependent state — which is exactly what must not happen inside
//! a confirmation session. The exclusion is a documented soundness
//! caveat in DESIGN.md.

use super::{is_tcb_path, Finding, Pass};
use crate::graph::WorkspaceIndex;
use crate::lexer::TokenKind;
use crate::source::SourceFile;

/// Macros that abort.
const PANIC_MACROS: &[&str] = &["panic", "todo", "unimplemented", "unreachable"];

/// The pass, once per lint id it reports: sites in TCB files, or sites
/// the TCB reaches outside them.
pub struct NoPanic {
    /// Report the reached sites outside TCB files.
    pub transitive: bool,
}

impl Pass for NoPanic {
    fn id(&self) -> &'static str {
        if self.transitive {
            "no-panic-transitive"
        } else {
            "no-panic-in-tcb"
        }
    }

    fn description(&self) -> &'static str {
        if self.transitive {
            "TCB functions must not transitively call panic paths"
        } else {
            "no unwrap/expect/panic!/todo!/unimplemented!/unreachable! or dynamic indexing in TCB code"
        }
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        let mut out = Vec::new();
        for idx in 0..ws.fns.len() {
            let Some((open, close)) = ws.fn_item(idx).body else {
                continue;
            };
            let fi = ws.fns[idx].file;
            let file = &ws.files[fi];
            if !ws.reach.reachable[idx]
                || !ws.is_live_fn(idx)
                || is_tcb_path(&file.path) == self.transitive
            {
                continue;
            }
            let mut sites: Vec<(u32, String)> = Vec::new();
            for i in open..close {
                let t = &file.tokens[i];
                let next_is = |p: &str| file.tokens.get(i + 1).is_some_and(|n| n.is_punct(p));
                let what = if t.kind != TokenKind::Ident {
                    None
                } else if (t.text == "unwrap" || t.text == "expect")
                    && file.tokens[i - 1].is_punct(".")
                    && next_is("(")
                {
                    Some(format!("`.{}()`", t.text))
                } else if PANIC_MACROS.contains(&t.text.as_str()) && next_is("!") {
                    Some(format!("`{}!`", t.text))
                } else {
                    None
                };
                let message = match (what, self.transitive) {
                    (Some(what), true) => format!(
                        "{what} in `{}` is reachable from the TCB (chain: {}); a panic here \
                         aborts a confirmation session mid-prompt — return a typed error instead",
                        ws.fn_item(idx).name,
                        ws.chain_to(idx),
                    ),
                    (Some(what), false) if what.starts_with("`.") => format!(
                        "{what} can abort the trusted session; propagate a typed error (e.g. \
                         `TpmError`) with `?` / `ok_or` instead"
                    ),
                    (Some(what), false) => format!(
                        "{what} aborts the trusted session mid-transaction; TCB code must \
                         return a typed error instead"
                    ),
                    (None, false) if t.is_punct("[") && dynamic_index(file, i) => {
                        "dynamic index/slice can panic out-of-bounds and abort the trusted \
                         session; use `.get(..)` / `.get_mut(..)` and propagate a typed error"
                            .to_string()
                    }
                    (None, _) => continue,
                };
                sites.push((t.line, message));
            }
            sites.sort();
            sites.dedup();
            out.extend(
                sites
                    .into_iter()
                    .map(|(line, message)| (fi, Finding::deny(line, message))),
            );
        }
        out
    }
}

/// Is the `[` at `open` an index/slice expression whose bracket contents
/// are not a lone integer literal or a full-range `..`?
fn dynamic_index(file: &SourceFile, open: usize) -> bool {
    let tokens = &file.tokens;
    let Some(prev) = open.checked_sub(1).map(|p| &tokens[p]) else {
        return false;
    };
    let is_index = crate::passes::flow::is_index_position(prev);
    let close = crate::items::matching(tokens, open, "[", "]").unwrap_or(tokens.len());
    let benign = match &tokens[open + 1..close] {
        // `buf[3]` — constant index, bounds locally evident.
        [only] if only.kind == TokenKind::Number => true,
        // `&buf[..]` — full-range slice, cannot panic.
        [only] if only.is_punct("..") => true,
        _ => false,
    };
    is_index && !benign
}
