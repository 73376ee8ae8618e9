//! Pass 3: `ct-discipline` — secret-dependent control flow and memory
//! addressing must be constant-time.
//!
//! Short-circuiting `==`/`!=` on key/digest/MAC material, branching on
//! a secret value, indexing a table at a secret-dependent address, and
//! early `return`s inside loops over secrets all leak timing to the
//! untrusted OS sharing the machine. In `utp-crypto` and the TPM auth
//! path these must go through `utp_crypto::ct::ct_eq` / `ct_select`.
//!
//! Whether a value *is* secret is decided flow-sensitively by the
//! shared engine ([`crate::taint`]) with this lint's table. A local's
//! flow state overrides the name heuristic ([`super::is_secret_ident`])
//! in both directions —
//!
//! * `let probe = auth_digest[0];` makes `probe` secret even though the
//!   name says nothing;
//! * `let digest = data.len();` makes `digest` public even though the
//!   name matches.
//!
//! A call the engine cannot classify leaves the binding to the name
//! heuristic (`let digest = ctx.finalize()` stays secret), while a call
//! that may reach a fn returning a secret taints the binding, so a
//! secret passed through a helper fn stays visible. Results of `ct_eq`
//! are public by construction — branching on them is the approved
//! idiom — and public projections (`len`, `is_some`, ...) launder their
//! receiver. On a fallback CFG the pass degrades to the pure name
//! heuristic.

use super::{Finding, Pass};
use crate::cfg::Role;
use crate::graph::WorkspaceIndex;
use crate::items::matching;
use crate::lexer::{Token, TokenKind};
use crate::passes::flow::{is_index_position, is_local_use, postfix_projects_public};
use crate::taint::{is_call, Engine, Env, FnFlow, Table, Taint};

/// Methods whose results are public even on secret receivers.
const PUBLIC_PROJECTIONS: &[&str] = &[
    "len", "is_empty", "count", "capacity", "is_some", "is_none", "is_ok", "is_err",
];

/// The constant-time comparator: its *result* is public (branching on
/// `ct_eq(..)` is the approved pattern), so a branch condition may pass
/// it secrets. `ct_select(choice, ..)` is not exempt: its result is
/// the value the secret `choice` picked.
const CT_EQ: &str = "ct_eq";

/// The `ct-discipline` pass.
pub struct CtDiscipline;

/// Is this file in scope: the crypto crate, or the TPM authorization path?
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/crypto/src/")
        || path == "crates/tpm/src/auth.rs"
        || path == "crates/tpm/src/seal.rs"
}

impl Pass for CtDiscipline {
    fn id(&self) -> &'static str {
        "ct-discipline"
    }

    fn description(&self) -> &'static str {
        "secret values (tracked flow-sensitively) must not reach comparisons, branches, \
         or indices outside ct_eq/ct_select"
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        let engine = Engine::run(ws, &TABLE, vec![false; ws.fns.len()]);
        let mut out = Vec::new();
        for idx in 0..ws.fns.len() {
            let fi = ws.fns[idx].file;
            let Some(body) = ws.fn_item(idx).body else {
                continue;
            };
            if ws.is_live_fn(idx) && in_scope(&ws.files[fi].path) {
                let found = check_fn(&ws.files[fi].tokens, body, &engine.flow(idx));
                out.extend(
                    found
                        .into_iter()
                        .map(|(line, m)| (fi, Finding::deny(line, m))),
                );
            }
        }
        out
    }
}

/// What ct-discipline tracks: secret-shaped names and calls, made
/// public by `ct_eq`.
const TABLE: Table = Table {
    scope: in_scope,
    named: super::is_secret_ident,
    source: super::is_secret_ident,
    sanitizer: |toks, j| is_call(toks, j) && toks[j].is_ident("ct_eq"),
    checks: false,
    opaque_calls: true,
    public: PUBLIC_PROJECTIONS,
    public_fn: |_| false,
    kills: &[],
};

/// The sinks of one fn body `(open, close)`, as `(line, message)`.
fn check_fn(toks: &[Token], (open, close): (usize, usize), flow: &FnFlow) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    let is_eq = |t: &Token| t.is_punct("==") || t.is_punct("!=");
    for i in (open..close).filter(|&i| is_eq(&toks[i])) {
        // Either operand: up to 10 tokens over member access, calls and
        // indexing.
        let secret_side = |side: &mut dyn Iterator<Item = &Token>| {
            let idents: Vec<&str> = (side.take(10))
                .take_while(|t| match t.kind {
                    TokenKind::Ident | TokenKind::Number | TokenKind::Char | TokenKind::Str => true,
                    TokenKind::Punct => {
                        matches!(
                            t.text.as_str(),
                            "." | "::" | "(" | ")" | "[" | "]" | "&" | "*"
                        )
                    }
                    _ => false,
                })
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            idents.iter().any(|s| flow.tainted_at(s, i))
                && !idents.iter().any(|s| PUBLIC_PROJECTIONS.contains(s))
        };
        if secret_side(&mut toks[..i].iter().rev()) || secret_side(&mut toks[i + 1..].iter()) {
            out.push((
                toks[i].line,
                format!(
                    "`{}` on secret-named data short-circuits on the first differing \
                     byte, leaking a timing oracle; compare with \
                     `utp_crypto::ct::ct_eq` (or select with `ct_select`)",
                    toks[i].text
                ),
            ));
        }
    }
    for (s, env) in &flow.states {
        // Branch-on-secret: an `if`/`while` condition or `match`
        // scrutinee whose value depends on a live secret. Conditions
        // containing `==`/`!=` are left to the comparison rule (one
        // finding per defect).
        if matches!(s.role, Role::If | Role::While | Role::Match)
            && !toks[s.lo..s.hi].iter().any(is_eq)
        {
            if let Some(i) = first_secret(toks, env, (s.lo, s.hi), true) {
                out.push((
                    toks[i].line,
                    format!(
                        "branching on secret-dependent value `{}` leaks it through \
                         the instruction stream; compute both paths and pick with \
                         `utp_crypto::ct::ct_select` (compare with `ct_eq`)",
                        toks[i].text
                    ),
                ));
            }
        }
        // Secret-dependent indexing: a live secret inside a postfix
        // `[...]` addresses memory by secret value (cache-line oracle).
        // Indexing *into* a secret buffer with a public index is fine.
        let mut i = s.lo + 1;
        while i < s.hi {
            if !(toks[i].is_punct("[") && is_index_position(&toks[i - 1])) {
                i += 1;
                continue;
            }
            let Some(end) = matching(toks, i, "[", "]") else {
                break;
            };
            if let Some(j) = first_secret(toks, env, (i + 1, end.min(s.hi)), false) {
                out.push((
                    toks[j].line,
                    format!(
                        "indexing with secret-dependent value `{}` addresses memory \
                         by secret; the cache line it touches is observable — scan \
                         all entries and pick with `utp_crypto::ct::ct_select`",
                        toks[j].text
                    ),
                ));
            }
            i = end + 1;
        }
    }
    // An early `return` inside a loop whose header names a secret makes
    // the iteration count observable.
    for i in open..close {
        if !["for", "while", "loop"].iter().any(|k| toks[i].is_ident(k)) {
            continue;
        }
        let Some(body) = (i..close).find(|&j| toks[j].is_punct("{")) else {
            continue;
        };
        if !(toks[i + 1..body].iter())
            .any(|t| t.kind == TokenKind::Ident && super::is_secret_ident(&t.text))
        {
            continue;
        }
        let end = matching(toks, body, "{", "}").unwrap_or(toks.len());
        for rt in toks[body..end].iter().filter(|t| t.is_ident("return")) {
            out.push((
                rt.line,
                "early `return` inside a loop over secret-named data makes \
                 the iteration count observable; accumulate a flag and \
                 decide after the loop (see `utp_crypto::ct`)"
                    .to_string(),
            ));
        }
    }
    out
}

/// The first local in `lo..hi` that is secret under `env` and not
/// projected public; with `skip_ct_eq`, arguments of `ct_eq` (whose
/// result a branch may read) do not count.
fn first_secret(
    toks: &[Token],
    env: &Env,
    (lo, hi): (usize, usize),
    skip_ct_eq: bool,
) -> Option<usize> {
    let mut i = lo;
    while i < hi {
        if skip_ct_eq && toks[i].is_ident(CT_EQ) && is_call(toks, i) {
            if let Some(close) = matching(toks, i + 1, "(", ")") {
                i = close + 1;
                continue;
            }
        }
        if is_local_use(toks, i)
            && TABLE.value(Some(env), &toks[i].text) == Taint::Tainted
            && !postfix_projects_public(toks, i, PUBLIC_PROJECTIONS)
        {
            return Some(i);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/crypto/src/fixture.rs", src);
        let ws = WorkspaceIndex::build(vec![file]);
        CtDiscipline
            .check_workspace(&ws)
            .into_iter()
            .map(|(_, f)| f)
            .collect()
    }

    #[test]
    fn flow_taints_a_neutral_name_copied_from_a_secret() {
        // v2 (name heuristic only) missed this: `probe` says nothing.
        let f = run("fn leak(auth_digest: &[u8], guess: u8) -> bool {\n\
             let probe = auth_digest[0];\n\
             if probe == guess {\n\
             return true;\n\
             }\n\
             false\n\
             }\n");
        assert!(
            f.iter().any(|f| f.message.contains("short-circuits")),
            "{f:?}"
        );
    }

    #[test]
    fn flow_clears_a_secret_name_bound_from_a_public_length() {
        // v2 flagged this: `digest` names a secret but holds data.len().
        let f = run("fn fine(data: &[u8]) -> bool {\n\
             let digest = data.len();\n\
             digest == 8\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unknown_call_results_keep_the_name_heuristic() {
        // `ctx.finalize()` is unclassifiable; the binding's *name* says
        // secret, so the comparison must still be flagged.
        let f = run("fn hash(ctx: Ctx, expected: &[u8]) -> bool {\n\
             let digest = ctx.finalize();\n\
             digest == expected\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn branching_on_a_secret_is_flagged_but_ct_eq_results_are_fine() {
        let bad = run("fn check(key_byte: u8) -> u8 {\n\
             if key_byte & 1 != 0 { odd() } else { even() }\n\
             }\n");
        // `!=` against a literal: the comparison rule reports it.
        assert_eq!(bad.len(), 1, "{bad:?}");
        let bad2 = run("fn check(secret_flag: bool) -> u8 {\n\
             if secret_flag { odd() } else { even() }\n\
             }\n");
        assert!(
            bad2.iter()
                .any(|f| f.message.contains("branching on secret")),
            "{bad2:?}"
        );
        let good = run("fn check(expect: &Auth, auth: &Auth) -> Result<(), E> {\n\
             if !ct_eq(expect.as_bytes(), auth.as_bytes()) {\n\
             return Err(E::AuthFail);\n\
             }\n\
             Ok(())\n\
             }\n");
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn public_projections_do_not_count_as_branching_on_secret() {
        let f = run("fn pad(key: &[u8]) -> usize {\n\
             if key.len() > 64 { 64 } else { key.len() }\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
        let g = run("fn have(owner_auth: &Option<Auth>) -> bool {\n\
             if owner_auth.is_some() { true } else { false }\n\
             }\n");
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn secret_dependent_indexing_is_flagged_public_index_is_not() {
        let bad = run("fn sbox_lookup(table: &[u8; 256], key_byte: u8) -> u8 {\n\
             let v = table[key_byte as usize];\n\
             v\n\
             }\n");
        assert!(
            bad.iter()
                .any(|f| f.message.contains("indexing with secret")),
            "{bad:?}"
        );
        let good = run("fn xor_pad(padded: &[u8], key: &[u8]) -> u8 {\n\
             let mut acc = 0;\n\
             for i in 0..key.len() {\n\
             acc ^= padded[i];\n\
             }\n\
             acc\n\
             }\n");
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn loop_over_secret_with_early_return_is_still_flagged() {
        let f = run("fn cmp(key: &[u8], other: &[u8]) -> bool {\n\
             for i in 0..key.len() {\n\
             if key[i] != other[i] {\n\
             return false;\n\
             }\n\
             }\n\
             true\n\
             }\n");
        assert!(
            f.iter()
                .any(|f| f.message.contains("early `return` inside a loop")),
            "{f:?}"
        );
    }

    #[test]
    fn reassignment_retaints_a_clean_local() {
        // v2 could not see the second assignment changing the story.
        let f = run("fn swap(session_key: &[u8]) -> bool {\n\
             let mut buf = 0;\n\
             buf = session_key[0];\n\
             buf == 7\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("short-circuits"));
    }
}
