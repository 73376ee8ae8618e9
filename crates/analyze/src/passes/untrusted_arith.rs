//! Pass 10: length/offset values decoded from untrusted bytes (the WAL,
//! the wire codec, evidence blobs) must pass a bounds check before they
//! feed arithmetic, slice indexing, or a narrowing cast.
//!
//! This is the static twin of `tests/journal_fuzz.rs`: a torn frame or
//! a lying length field is exactly a value that flows from
//! `from_le_bytes` / `Reader::u32` / `Reader::take` into `pos + len` or
//! `&buf[start..start + len]` with no dominating comparison. The pass
//! runs the flow engine per function:
//!
//! * **Sources** (→ `Tainted`): locals bound from decode calls
//!   (`u16`/`u32`/`u64`/`bytes`/`take`, `from_le_bytes`/`from_be_bytes`).
//! * **Checks** (`Tainted` → `Checked`): mention in an `if`/`while`/
//!   `match` condition, a comparison in a normal statement, or a
//!   bounding call (`min`, `clamp`, `try_into`/`try_from`,
//!   `checked_*`, `saturating_*`). Arithmetic *over already-checked
//!   values stays checked* — `pos += HEADER_LEN + len` after both were
//!   compared does not re-taint the cursor.
//! * **Sinks** (on `Tainted` only, in non-condition statements):
//!   adjacency to `+`/`-`/`*`, use inside postfix `[...]` indexing, and
//!   `as` casts to a narrower integer type (`usize`/`u64`/`i64` are
//!   exempt: `as i64` from a `u64` is a same-width reinterpretation and
//!   `as usize` cannot truncate a `u32` on our targets).
//!
//! Soundness caveats, accepted deliberately: arithmetic *inside* a
//! condition (`if buf.len() - pos < HDR`) is not a sink — it *is* the
//! check idiom used by `record::scan` and `snapshot::decode_snapshot`;
//! field projections (`self.amount_cents`) are not tracked; and a
//! function whose body falls back to the single-block CFG is skipped
//! rather than flooded with unordered findings.

use crate::cfg::{build_cfg, Role, Stmt};
use crate::dataflow::{solve, JoinMap, Lattice};
use crate::lexer::{Token, TokenKind};
use crate::passes::flow::{binding_of, is_index_position, is_local_use};
use crate::passes::{Finding, Pass};
use crate::source::SourceFile;

/// Files that parse attacker-controlled bytes: the journal (WAL replay,
/// snapshot decode), the wire codec, and the protocol layer.
const SCOPE: &[&str] = &["crates/journal/src/", "crates/flicker/src/marshal.rs"];
const SCOPE_FILES: &[&str] = &["crates/core/src/protocol.rs"];

/// Decode calls whose integer results are attacker-controlled.
const SOURCE_FNS: &[&str] = &[
    "u16",
    "u32",
    "u64",
    "bytes",
    "take",
    "from_le_bytes",
    "from_be_bytes",
];

/// Calls that bound their receiver/argument.
const CHECK_FNS: &[&str] = &["min", "clamp", "try_into", "try_from"];

/// Integer types an `as` cast can truncate into.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ua {
    /// Not attacker-controlled (or already consumed by a check).
    Clean,
    /// Attacker-controlled but dominated by a bounds comparison.
    Checked,
    /// Attacker-controlled, unchecked.
    Tainted,
}

impl Lattice for Ua {
    fn join_from(&mut self, other: &Self) -> bool {
        if *other > *self {
            *self = *other;
            true
        } else {
            false
        }
    }
}

type Env = JoinMap<Ua>;

pub struct UntrustedArith;

impl Pass for UntrustedArith {
    fn id(&self) -> &'static str {
        "untrusted-arith"
    }

    fn description(&self) -> &'static str {
        "lengths/offsets decoded from untrusted bytes are bounds-checked before \
         arithmetic, indexing, or narrowing casts"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        if !in_scope(&file.path) {
            return Vec::new();
        }
        let mut findings = Vec::new();
        for f in &file.items.fns {
            let Some(body) = f.body else { continue };
            let toks = &file.tokens;
            if file.in_test_code(f.start_line) {
                continue;
            }
            let cfg = build_cfg(toks, body);
            if cfg.fallback {
                continue; // no statement order to reason about
            }
            let entries = solve(&cfg, Env::default(), |s, env| transfer(toks, s, env));
            for (bi, block) in cfg.blocks.iter().enumerate() {
                let Some(entry) = &entries[bi] else { continue };
                let mut env = entry.clone();
                for s in &block.stmts {
                    check_sinks(toks, s, &env, &mut findings);
                    transfer(toks, s, &mut env);
                }
            }
        }
        findings
    }
}

fn in_scope(path: &str) -> bool {
    SCOPE.iter().any(|p| path.starts_with(p)) || SCOPE_FILES.contains(&path)
}

fn has_source_call(toks: &[Token], lo: usize, hi: usize) -> bool {
    (lo..hi.saturating_sub(1)).any(|i| {
        toks[i].kind == TokenKind::Ident
            && toks[i + 1].is_punct("(")
            && SOURCE_FNS.contains(&toks[i].text.as_str())
    })
}

fn has_check_call(toks: &[Token], lo: usize, hi: usize) -> bool {
    (lo..hi.saturating_sub(1)).any(|i| {
        toks[i].kind == TokenKind::Ident
            && toks[i + 1].is_punct("(")
            && (CHECK_FNS.contains(&toks[i].text.as_str())
                || toks[i].text.starts_with("checked_")
                || toks[i].text.starts_with("saturating_"))
    })
}

/// Any comparison operator in the range (`<=`/`>=` lex as `<`/`>`
/// followed by `=`).
fn has_comparison(toks: &[Token], lo: usize, hi: usize) -> bool {
    toks[lo..hi]
        .iter()
        .any(|t| t.is_punct("<") || t.is_punct(">") || t.is_punct("==") || t.is_punct("!="))
}

/// Taint of an expression range under `env`.
fn eval(toks: &[Token], lo: usize, hi: usize, env: &Env) -> Ua {
    if has_source_call(toks, lo, hi) {
        return Ua::Tainted;
    }
    let mut out = Ua::Clean;
    for i in lo..hi {
        if is_local_use(toks, i) {
            if let Some(&v) = env.0.get(&toks[i].text) {
                if v > out {
                    out = v;
                }
            }
        }
    }
    // A comparison or bounding call consumes the taint: the bound
    // value is a bool / clamped quantity.
    if out == Ua::Tainted && (has_comparison(toks, lo, hi) || has_check_call(toks, lo, hi)) {
        return Ua::Checked;
    }
    out
}

fn transfer(toks: &[Token], s: &Stmt, env: &mut Env) {
    // Mention in a condition is the bounds check.
    if s.role != Role::Normal {
        for i in s.lo..s.hi {
            if is_local_use(toks, i) {
                if let Some(v) = env.0.get_mut(&toks[i].text) {
                    if *v == Ua::Tainted {
                        *v = Ua::Checked;
                    }
                }
            }
        }
        return;
    }
    let checked_stmt = has_comparison(toks, s.lo, s.hi) || has_check_call(toks, s.lo, s.hi);
    if let Some((name, rhs_lo, compound)) = binding_of(toks, s) {
        let mut v = eval(toks, rhs_lo, s.hi, env);
        if compound {
            if let Some(&old) = env.0.get(&name) {
                if old > v {
                    v = old;
                }
            }
        }
        env.0.insert(name, v);
    }
    if checked_stmt {
        // `assert!(len <= max)` / `let ok = len < cap;` style: every
        // tainted local the comparison mentions is now bounded.
        for i in s.lo..s.hi {
            if is_local_use(toks, i) {
                if let Some(v) = env.0.get_mut(&toks[i].text) {
                    if *v == Ua::Tainted {
                        *v = Ua::Checked;
                    }
                }
            }
        }
    }
}

fn check_sinks(toks: &[Token], s: &Stmt, env: &Env, out: &mut Vec<Finding>) {
    if s.role != Role::Normal {
        return; // arithmetic inside the condition IS the check idiom
    }
    // When this statement performs the comparison itself, its uses are
    // the check, not a sink.
    if has_comparison(toks, s.lo, s.hi) && !has_index_sink_shape(toks, s) {
        return;
    }
    let mut index_depth = 0usize;
    for i in s.lo..s.hi {
        let t = &toks[i];
        if t.is_punct("[") && i > s.lo && is_index_position(&toks[i - 1]) {
            index_depth += 1;
        } else if t.is_punct("]") && index_depth > 0 {
            index_depth -= 1;
        }
        if !is_local_use(toks, i) || env.0.get(&t.text) != Some(&Ua::Tainted) {
            continue;
        }
        let line = t.line;
        // `op ident` counts only when the op is *binary* (something
        // that can end an operand precedes it) — `*request` is a deref
        // and `-1` a negation, not arithmetic on the value.
        let prev_binary = i.checked_sub(2).and_then(|j| {
            let op = ["+", "-", "*"]
                .into_iter()
                .find(|op| toks[j + 1].is_punct(op))?;
            let ender = &toks[j];
            (matches!(ender.kind, TokenKind::Ident | TokenKind::Number)
                || ender.is_punct(")")
                || ender.is_punct("]"))
            .then_some(op)
        });
        let next_op = toks
            .get(i + 1)
            .and_then(|n| ["+", "-", "*"].into_iter().find(|op| n.is_punct(op)));
        let arith_op = prev_binary.or(next_op);
        if let Some(op) = arith_op {
            out.push(Finding::deny(
                line,
                format!(
                    "`{}` comes from untrusted bytes and feeds `{}` before any bounds \
                     check; compare it against the available length (or use checked_* \
                     arithmetic) first",
                    t.text, op
                ),
            ));
            continue;
        }
        if toks.get(i + 1).is_some_and(|n| n.is_ident("as"))
            && toks
                .get(i + 2)
                .is_some_and(|ty| NARROW_TYPES.contains(&ty.text.as_str()))
        {
            out.push(Finding::deny(
                line,
                format!(
                    "`{}` comes from untrusted bytes and is narrowed with `as {}` before \
                     any range check; a lying length survives the truncation — validate \
                     the range (or use try_into) first",
                    t.text,
                    toks[i + 2].text
                ),
            ));
            continue;
        }
        if index_depth > 0 {
            out.push(Finding::deny(
                line,
                format!(
                    "`{}` comes from untrusted bytes and is used as a slice index/offset \
                     before any bounds check; verify it against the buffer length first",
                    t.text
                ),
            ));
        }
    }
}

/// Whether the statement contains postfix indexing at all (used to keep
/// the index sink active even in statements that also compare).
fn has_index_sink_shape(toks: &[Token], s: &Stmt) -> bool {
    (s.lo + 1..s.hi).any(|i| toks[i].is_punct("[") && is_index_position(&toks[i - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::parse("crates/journal/src/fixture.rs", src);
        UntrustedArith.check(&file)
    }

    #[test]
    fn unchecked_length_arithmetic_is_flagged() {
        let f = run("fn decode(bytes: &[u8], pos: usize) -> usize {\n\
             let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;\n\
             pos + len\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("feeds `+`"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn checked_then_used_is_clean() {
        // The record::scan / decode_snapshot idiom: compare first, then
        // slice and advance the cursor.
        let f = run(
            "fn decode(bytes: &[u8], mut pos: usize) -> Option<&[u8]> {\n\
             let len = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;\n\
             if bytes.len() - pos < len {\n\
             return None;\n\
             }\n\
             let body = &bytes[pos..pos + len];\n\
             pos += len;\n\
             Some(body)\n\
             }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn narrowing_cast_is_flagged_but_widening_is_not() {
        let f = run("fn narrow(r: &mut Reader) -> (u16, i64) {\n\
             let n = r.u64().unwrap();\n\
             let small = n as u16;\n\
             let wide = n as i64;\n\
             (small, wide)\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("as u16"));
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn check_on_one_branch_only_does_not_launder_the_join() {
        let f = run(
            "fn partial(r: &mut Reader, cap: usize, c: bool) -> usize {\n\
             let len = r.u32().unwrap() as usize;\n\
             if c {\n\
             let ok = len < cap;\n\
             ignore(ok);\n\
             }\n\
             len * 2\n\
             }\n",
        );
        // `len` is Checked on the then-path but Tainted on the skip
        // path; the join is Tainted, so the multiply is still flagged.
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("feeds `*`"));
    }

    #[test]
    fn tainted_index_is_flagged() {
        let f = run("fn pick(bytes: &[u8], r: &mut Reader) -> u8 {\n\
             let idx = r.u32().unwrap() as usize;\n\
             bytes[idx]\n\
             }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("slice index"));
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let file = SourceFile::parse(
            "crates/server/src/service.rs",
            "fn f(r: &mut Reader) -> u64 { let n = r.u64().unwrap(); n + 1 }\n",
        );
        assert!(UntrustedArith.check(&file).is_empty());
    }

    #[test]
    fn bounding_call_launders() {
        let f = run("fn clamp(r: &mut Reader, cap: usize) -> usize {\n\
             let len = r.u32().unwrap() as usize;\n\
             let len = len.min(cap);\n\
             len + 1\n\
             }\n");
        assert!(f.is_empty(), "{f:?}");
    }
}
