//! Pass 10: length/offset values decoded from untrusted bytes (the WAL,
//! the wire codec, evidence blobs) must pass a bounds check before they
//! feed arithmetic, slice indexing, or a narrowing cast.
//!
//! This is the static twin of `tests/journal_fuzz.rs`: a torn frame or
//! a lying length field is exactly a value that flows from
//! `from_le_bytes` / `Reader::u32` / `Reader::take` into `pos + len` or
//! `&buf[start..start + len]` with no dominating comparison. The pass
//! reads the shared engine ([`crate::taint`]) with this lint's table:
//!
//! * **Sources** (→ `Tainted`): locals bound from decode calls
//!   (`u16`/`u32`/`u64`/`bytes`/`take`, `from_le_bytes`/`from_be_bytes`),
//!   and from calls that may reach a fn returning such a value, so a
//!   length decoded in a helper fn stays visible to its callers.
//! * **Checks** (`Tainted` → `Checked`): mention in an `if`/`while`/
//!   `match` condition, a comparison in a normal statement, or a
//!   bounding call (`min`, `clamp`, `try_into`/`try_from`,
//!   `checked_*`, `saturating_*`). Arithmetic *over already-checked
//!   values stays checked* — `pos += HEADER_LEN + len` after both were
//!   compared does not re-taint the cursor. A check inside one arm of
//!   an `if`/`match` on the right of a `let` bounds that arm only.
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

use crate::cfg::{Role, Stmt};
use crate::graph::WorkspaceIndex;
use crate::lexer::{Token, TokenKind};
use crate::passes::flow::{is_index_position, is_local_use};
use crate::passes::{Finding, Pass};
use crate::taint::{is_call, Engine, Env, Table, Taint};

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

/// What untrusted-arith tracks: decoded integers, bounded by a
/// comparison or a bounding call.
const TABLE: Table = Table {
    scope: in_scope,
    named: |_| false,
    source: |name| SOURCE_FNS.contains(&name),
    sanitizer: |toks, j| {
        is_comparison(&toks[j])
            || is_call(toks, j)
                && (CHECK_FNS.contains(&toks[j].text.as_str())
                    || toks[j].text.starts_with("checked_")
                    || toks[j].text.starts_with("saturating_"))
    },
    checks: true,
    opaque_calls: false,
    public: &[],
    public_fn: |_| false,
    kills: &[],
};

pub struct UntrustedArith;

impl Pass for UntrustedArith {
    fn id(&self) -> &'static str {
        "untrusted-arith"
    }

    fn description(&self) -> &'static str {
        "lengths/offsets decoded from untrusted bytes are bounds-checked before \
         arithmetic, indexing, or narrowing casts"
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        let engine = Engine::run(ws, &TABLE, vec![false; ws.fns.len()]);
        let mut out = Vec::new();
        for idx in 0..ws.fns.len() {
            let fi = ws.fns[idx].file;
            if !ws.is_live_fn(idx) || !in_scope(&ws.files[fi].path) {
                continue;
            }
            let flow = engine.flow(idx);
            let mut findings = Vec::new();
            for (s, env) in &flow.states {
                check_sinks(&ws.files[fi].tokens, s, env, &mut findings);
            }
            out.extend(findings.into_iter().map(|f| (fi, f)));
        }
        out
    }
}

fn in_scope(path: &str) -> bool {
    SCOPE.iter().any(|p| path.starts_with(p)) || SCOPE_FILES.contains(&path)
}

/// A comparison operator (`<=`/`>=` lex as `<`/`>` followed by `=`).
fn is_comparison(t: &Token) -> bool {
    t.is_punct("<") || t.is_punct(">") || t.is_punct("==") || t.is_punct("!=")
}

fn check_sinks(toks: &[Token], s: &Stmt, env: &Env, out: &mut Vec<Finding>) {
    let is_index = |i: usize| i > s.lo && toks[i].is_punct("[") && is_index_position(&toks[i - 1]);
    // Arithmetic inside a condition, or in a statement that compares
    // and does not index, *is* the check idiom.
    if s.role != Role::Normal
        || toks[s.lo..s.hi].iter().any(is_comparison) && !(s.lo..s.hi).any(is_index)
    {
        return;
    }
    let mut index_depth = 0usize;
    for i in s.lo..s.hi {
        let t = &toks[i];
        if is_index(i) {
            index_depth += 1;
        } else if t.is_punct("]") && index_depth > 0 {
            index_depth -= 1;
        }
        if !is_local_use(toks, i) || TABLE.value(Some(env), &t.text) != Taint::Tainted {
            continue;
        }
        // `op ident` counts only when the op is *binary* (something
        // that can end an operand precedes it) — `*request` is a deref
        // and `-1` a negation, not arithmetic on the value.
        let arith = |k: usize| {
            let t = toks.get(k)?;
            ["+", "-", "*"].into_iter().find(|op| t.is_punct(op))
        };
        let prev_binary = i.checked_sub(2).and_then(|j| {
            let ender = &toks[j];
            (matches!(ender.kind, TokenKind::Ident | TokenKind::Number)
                || ender.is_punct(")")
                || ender.is_punct("]"))
            .then(|| arith(j + 1))?
        });
        let narrow = (toks.get(i + 1).is_some_and(|n| n.is_ident("as")))
            .then(|| {
                toks.get(i + 2)
                    .filter(|ty| NARROW_TYPES.contains(&ty.text.as_str()))
            })
            .flatten();
        let what = if let Some(op) = prev_binary.or_else(|| arith(i + 1)) {
            format!(
                "feeds `{op}` before any bounds check; compare it against the available \
                 length (or use checked_* arithmetic) first"
            )
        } else if let Some(ty) = narrow {
            format!(
                "is narrowed with `as {}` before any range check; a lying length survives \
                 the truncation — validate the range (or use try_into) first",
                ty.text
            )
        } else if index_depth > 0 {
            "is used as a slice index/offset before any bounds check; verify it against the \
             buffer length first"
                .to_string()
        } else {
            continue;
        };
        out.push(Finding::deny(
            t.line,
            format!("`{}` comes from untrusted bytes and {what}", t.text),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run_at(path: &str, src: &str) -> Vec<Finding> {
        let ws = WorkspaceIndex::build(vec![SourceFile::parse(path, src)]);
        UntrustedArith
            .check_workspace(&ws)
            .into_iter()
            .map(|(_, f)| f)
            .collect()
    }

    fn run(src: &str) -> Vec<Finding> {
        run_at("crates/journal/src/fixture.rs", src)
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
        assert!(run_at(
            "crates/server/src/service.rs",
            "fn f(r: &mut Reader) -> u64 { let n = r.u64().unwrap(); n + 1 }\n",
        )
        .is_empty());
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
