//! Pass 3: `ct-discipline` — secret-dependent control flow and memory
//! addressing must be constant-time.
//!
//! Short-circuiting `==`/`!=` on key/digest/MAC material, branching on
//! a secret value, indexing a table at a secret-dependent address, and
//! early `return`s inside loops over secrets all leak timing to the
//! untrusted OS sharing the machine. In `utp-crypto` and the TPM auth
//! path these must go through `utp_crypto::ct::ct_eq` / `ct_select`.
//!
//! Whether a value *is* secret is decided flow-sensitively: each
//! function body is lowered to a CFG and a per-local secrecy state is
//! solved to a fixpoint. A local's flow state overrides the name
//! heuristic in both directions —
//!
//! * `let probe = auth_digest[0];` makes `probe` secret even though the
//!   name says nothing (the flow-insensitive pass missed this);
//! * `let digest = data.len();` makes `digest` public even though the
//!   name matches (the flow-insensitive pass flagged any later
//!   `digest == n` comparison).
//!
//! Untracked identifiers (parameters, fields, anything bound through a
//! call we can't classify) fall back to the name heuristic
//! ([`super::is_secret_ident`]). Results of `ct_eq` are public by
//! construction — branching on them is the approved idiom — and public
//! projections (`len`, `is_some`, ...) launder their receiver. On a
//! fallback CFG the pass degrades to the pure name heuristic.

use super::{Finding, Pass};
use crate::cfg::{build_cfg, Role, Stmt};
use crate::dataflow::{solve, JoinMap, Lattice};
use crate::items::matching;
use crate::lexer::{Token, TokenKind};
use crate::passes::flow::{binding_of, is_index_position, is_local_use, postfix_projects_public};
use crate::source::SourceFile;

/// Methods whose results are public even on secret receivers.
const PUBLIC_PROJECTIONS: &[&str] = &[
    "len", "is_empty", "count", "capacity", "is_some", "is_none", "is_ok", "is_err",
];

/// Constant-time comparators: their *results* are public (branching on
/// `ct_eq(..)` is the approved pattern), and their arguments are where
/// secrets are supposed to go.
const CT_FNS: &[&str] = &["ct_eq", "ct_select"];

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

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        if !in_scope(&file.path) {
            return Vec::new();
        }
        let flow = FileFlow::build(file);
        let mut findings = Vec::new();
        self.check_comparisons(file, &flow, &mut findings);
        self.check_branches(file, &flow, &mut findings);
        self.check_indexing(file, &flow, &mut findings);
        self.check_loop_returns(file, &mut findings);
        findings
    }
}

// ---------------------------------------------------------------------
// Per-local secrecy flow.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sec {
    Clean,
    Secret,
}

impl Lattice for Sec {
    fn join_from(&mut self, other: &Self) -> bool {
        if *self == Sec::Clean && *other == Sec::Secret {
            *self = Sec::Secret;
            true
        } else {
            false
        }
    }
}

type Env = JoinMap<Sec>;

/// Solved secrecy states: for every statement of every structured
/// function body, the environment *at entry to* that statement.
struct FileFlow {
    /// Disjoint statements (with their roles) and their entry states.
    states: Vec<(Stmt, Env)>,
}

impl FileFlow {
    fn build(file: &SourceFile) -> FileFlow {
        let toks = &file.tokens;
        let mut states = Vec::new();
        for f in &file.items.fns {
            let Some(body) = f.body else { continue };
            let cfg = build_cfg(toks, body);
            if cfg.fallback {
                continue; // name heuristic only in this fn
            }
            let entries = solve(&cfg, Env::default(), |s, env| transfer(toks, s, env));
            for (bi, block) in cfg.blocks.iter().enumerate() {
                let Some(entry) = &entries[bi] else { continue };
                let mut env = entry.clone();
                for s in &block.stmts {
                    states.push((s.clone(), env.clone()));
                    transfer(toks, s, &mut env);
                }
            }
        }
        FileFlow { states }
    }

    /// Environment at the statement containing token `i`, if any.
    fn env_at(&self, i: usize) -> Option<&Env> {
        self.states
            .iter()
            .find(|(s, _)| (s.lo..s.hi).contains(&i))
            .map(|(_, e)| e)
    }

    /// Is `name` (used at token `i`) secret? Flow state wins; untracked
    /// names fall back to the heuristic.
    fn is_secret(&self, name: &str, i: usize) -> bool {
        match self.env_at(i).and_then(|e| e.0.get(name)) {
            Some(Sec::Secret) => true,
            Some(Sec::Clean) => false,
            None => super::is_secret_ident(name),
        }
    }
}

/// Secrecy of the expression `[lo, hi)` under `env`: `Some(Secret)` if
/// any live secret flows in, `Some(Clean)` if every part is known
/// public, `None` when a call we can't classify decides the value (the
/// binding then stays on the name heuristic).
fn classify(toks: &[Token], lo: usize, hi: usize, env: &Env) -> Option<Sec> {
    let mut secret = false;
    let mut unknown_call = false;
    let mut i = lo;
    while i < hi {
        let t = &toks[i];
        if t.kind == TokenKind::Ident && toks.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            let callee = t.text.as_str();
            if callee == "ct_eq" {
                // Public bool result; arguments are the sanctioned
                // destination for secrets — skip them entirely.
                if let Some(close) = matching(toks, i + 1, "(", ")") {
                    i = close + 1;
                    continue;
                }
            } else if !PUBLIC_PROJECTIONS.contains(&callee) {
                unknown_call = true;
            }
        }
        if is_local_use(toks, i) && !toks[i].is_ident("mut") {
            let name = &t.text;
            let effective = match env.0.get(name) {
                Some(Sec::Secret) => true,
                Some(Sec::Clean) => false,
                None => super::is_secret_ident(name),
            };
            if effective && !postfix_projects_public(toks, i, PUBLIC_PROJECTIONS) {
                secret = true;
            }
        }
        i += 1;
    }
    if secret {
        Some(Sec::Secret)
    } else if unknown_call {
        None
    } else {
        Some(Sec::Clean)
    }
}

fn transfer(toks: &[Token], s: &Stmt, env: &mut Env) {
    match s.role {
        Role::For => {
            // `for PAT in EXPR`: bind the pattern idents with EXPR's
            // secrecy (`for b in key.iter()` makes `b` secret).
            let Some(in_pos) = (s.lo..s.hi).find(|&i| toks[i].is_ident("in")) else {
                return;
            };
            let v = classify(toks, in_pos + 1, s.hi, env);
            for t in &toks[s.lo..in_pos] {
                if t.kind == TokenKind::Ident && !t.is_ident("mut") {
                    match v {
                        Some(v) => {
                            env.0.insert(t.text.clone(), v);
                        }
                        None => {
                            env.0.remove(&t.text);
                        }
                    }
                }
            }
        }
        Role::Normal => {
            let Some((name, rhs_lo, compound)) = binding_of(toks, s) else {
                return;
            };
            match classify(toks, rhs_lo, s.hi, env) {
                Some(Sec::Secret) => {
                    env.0.insert(name, Sec::Secret);
                }
                Some(Sec::Clean) => {
                    if !compound {
                        env.0.insert(name, Sec::Clean);
                    }
                }
                // Unclassifiable: drop any override so the name
                // heuristic applies again (`let digest = ctx.finalize()`
                // must stay treated as secret).
                None => {
                    env.0.remove(&name);
                }
            }
        }
        _ => {}
    }
}

// ---------------------------------------------------------------------
// Sinks.

impl CtDiscipline {
    fn check_comparisons(&self, file: &SourceFile, flow: &FileFlow, findings: &mut Vec<Finding>) {
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            if !(t.is_punct("==") || t.is_punct("!=")) || file.in_test_code(t.line) {
                continue;
            }
            let left = operand_idents(tokens, i, Direction::Left);
            let right = operand_idents(tokens, i, Direction::Right);
            let secret_side = |idents: &[String]| {
                idents.iter().any(|s| flow.is_secret(s, i))
                    && !idents
                        .iter()
                        .any(|s| PUBLIC_PROJECTIONS.contains(&s.as_str()))
            };
            if secret_side(&left) || secret_side(&right) {
                findings.push(Finding::deny(
                    t.line,
                    format!(
                        "`{}` on secret-named data short-circuits on the first differing \
                         byte, leaking a timing oracle; compare with \
                         `utp_crypto::ct::ct_eq` (or select with `ct_select`)",
                        t.text
                    ),
                ));
            }
        }
    }

    /// Branch-on-secret: an `if`/`while` condition or `match` scrutinee
    /// whose value depends on a live secret. Conditions containing
    /// `==`/`!=` are left to [`Self::check_comparisons`] (one finding
    /// per defect), and anything inside `ct_eq`/`ct_select` arguments
    /// is the approved idiom.
    fn check_branches(&self, file: &SourceFile, flow: &FileFlow, findings: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for (stmt, env) in &flow.states {
            let (lo, hi) = (stmt.lo, stmt.hi);
            if !matches!(stmt.role, Role::If | Role::While | Role::Match) {
                continue;
            }
            if file.in_test_code(toks[lo].line) {
                continue;
            }
            if toks[lo..hi]
                .iter()
                .any(|t| t.is_punct("==") || t.is_punct("!="))
            {
                continue;
            }
            let mut i = lo;
            while i < hi {
                let t = &toks[i];
                if t.kind == TokenKind::Ident
                    && CT_FNS.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                {
                    if let Some(close) = matching(toks, i + 1, "(", ")") {
                        i = close + 1;
                        continue;
                    }
                }
                if is_local_use(toks, i) {
                    let name = &t.text;
                    let effective = match env.0.get(name) {
                        Some(Sec::Secret) => true,
                        Some(Sec::Clean) => false,
                        None => super::is_secret_ident(name),
                    };
                    if effective && !postfix_projects_public(toks, i, PUBLIC_PROJECTIONS) {
                        findings.push(Finding::deny(
                            t.line,
                            format!(
                                "branching on secret-dependent value `{}` leaks it through \
                                 the instruction stream; compute both paths and pick with \
                                 `utp_crypto::ct::ct_select` (compare with `ct_eq`)",
                                name
                            ),
                        ));
                        break; // one finding per condition
                    }
                }
                i += 1;
            }
        }
    }

    /// Secret-dependent indexing: a live secret inside a postfix
    /// `[...]` addresses memory by secret value (cache-line oracle).
    /// Indexing *into* a secret buffer with a public index is fine.
    fn check_indexing(&self, file: &SourceFile, flow: &FileFlow, findings: &mut Vec<Finding>) {
        let toks = &file.tokens;
        for (stmt, env) in &flow.states {
            let (lo, hi) = (stmt.lo, stmt.hi);
            let mut i = lo + 1;
            while i < hi {
                if !(toks[i].is_punct("[") && is_index_position(&toks[i - 1])) {
                    i += 1;
                    continue;
                }
                let Some(close) = matching(toks, i, "[", "]") else {
                    break;
                };
                for j in i + 1..close.min(hi) {
                    if !is_local_use(toks, j) || file.in_test_code(toks[j].line) {
                        continue;
                    }
                    let name = &toks[j].text;
                    let effective = match env.0.get(name) {
                        Some(Sec::Secret) => true,
                        Some(Sec::Clean) => false,
                        None => super::is_secret_ident(name),
                    };
                    if effective && !postfix_projects_public(toks, j, PUBLIC_PROJECTIONS) {
                        findings.push(Finding::deny(
                            toks[j].line,
                            format!(
                                "indexing with secret-dependent value `{}` addresses memory \
                                 by secret; the cache line it touches is observable — scan \
                                 all entries and pick with `utp_crypto::ct::ct_select`",
                                name
                            ),
                        ));
                        break;
                    }
                }
                i = close + 1;
            }
        }
    }

    fn check_loop_returns(&self, file: &SourceFile, findings: &mut Vec<Finding>) {
        let tokens = &file.tokens;
        for (i, t) in tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident
                || !matches!(t.text.as_str(), "for" | "while" | "loop")
                || file.in_test_code(t.line)
            {
                continue;
            }
            // Header = tokens between the keyword and the body's `{`.
            let Some(body_open) = tokens[i..].iter().position(|t| t.is_punct("{")) else {
                continue;
            };
            let body_open = i + body_open;
            let header_secret = tokens[i + 1..body_open]
                .iter()
                .any(|t| t.kind == TokenKind::Ident && super::is_secret_ident(&t.text));
            if !header_secret {
                continue;
            }
            let close = matching(tokens, body_open, "{", "}").unwrap_or(tokens.len());
            for rt in &tokens[body_open..close.min(tokens.len())] {
                if rt.is_ident("return") {
                    findings.push(Finding::deny(
                        rt.line,
                        "early `return` inside a loop over secret-named data makes \
                                  the iteration count observable; accumulate a flag and \
                                  decide after the loop (see `utp_crypto::ct`)"
                            .to_string(),
                    ));
                }
            }
        }
    }
}

enum Direction {
    Left,
    Right,
}

/// Collects the identifiers of the operand expression adjacent to the
/// comparison at `idx`, walking over member access / calls / indexing.
fn operand_idents(tokens: &[Token], idx: usize, dir: Direction) -> Vec<String> {
    let mut idents = Vec::new();
    let mut steps = 0;
    let mut j = idx;
    loop {
        let next = match dir {
            Direction::Left => j.checked_sub(1),
            Direction::Right => Some(j + 1),
        };
        let Some(next) = next else { break };
        let Some(t) = tokens.get(next) else { break };
        steps += 1;
        if steps > 10 {
            break;
        }
        let continues = match t.kind {
            TokenKind::Ident => {
                idents.push(t.text.clone());
                true
            }
            TokenKind::Number | TokenKind::Char | TokenKind::Str => true,
            TokenKind::Punct => matches!(
                t.text.as_str(),
                "." | "::" | "(" | ")" | "[" | "]" | "&" | "*"
            ),
            _ => false,
        };
        if !continues {
            break;
        }
        j = next;
    }
    idents
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/crypto/src/fixture.rs", src);
        CtDiscipline.check(&file)
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
