//! Helpers shared by the flow-sensitive passes: the must-held bit-set
//! walk behind authorization-flow and protocol-order, statement shapes
//! (`let` / reassignment), local-use detection, and postfix chains.

use crate::cfg::{build_cfg, Stmt};
use crate::dataflow::{solve, Lattice};
use crate::graph::WorkspaceIndex;
use crate::items::{find_depth0, CallSite, FnItem};
use crate::lexer::{Token, TokenKind};

/// Call sites of `item` inside the statement's token range, with their
/// index into `item.calls` (and so into the fn's resolutions).
pub fn calls_in<'a>(item: &'a FnItem, s: &Stmt) -> impl Iterator<Item = (usize, &'a CallSite)> {
    let (lo, hi) = (s.lo, s.hi);
    item.calls
        .iter()
        .enumerate()
        .filter(move |(_, c)| lo <= c.tok && c.tok < hi)
}

/// Bits the tokens `lo..hi` of one statement set on every path through
/// them. `leaf(j, head)` gives token `j`'s own bits (`head`: inside a
/// branch condition); the arms of an embedded `if`/`else` or `match`
/// add only what all of them set, and an `if` without `else` only its
/// condition. The statement CFG does not split control flow inside a
/// statement, so this keeps `let x = match .. { .. }` from granting what
/// only one arm does.
pub fn must_bits(
    toks: &[Token],
    lo: usize,
    hi: usize,
    head: bool,
    leaf: &dyn Fn(usize, bool) -> u32,
) -> u32 {
    let mut held = 0;
    let mut j = lo;
    while j < hi {
        if toks[j].is_ident("if") || toks[j].is_ident("match") {
            if let Some((bits, end)) = branch_bits(toks, j, hi, leaf) {
                held |= bits;
                j = end;
                continue;
            }
        }
        held |= leaf(j, head);
        j += 1;
    }
    held
}

/// [`must_bits`] of the `if`/`match` construct at `j`, and the index
/// past it; `None` when its braces do not close inside `..hi`.
fn branch_bits(
    toks: &[Token],
    j: usize,
    hi: usize,
    leaf: &dyn Fn(usize, bool) -> u32,
) -> Option<(u32, usize)> {
    let open = find_depth0(toks, j + 1, hi, |t| t.is_punct("{"))?;
    let close = crate::items::matching(toks, open, "{", "}").filter(|&c| c < hi)?;
    let cond = must_bits(toks, j + 1, open, true, leaf);
    let body = |lo, hi| must_bits(toks, lo, hi, false, leaf);
    if toks[j].is_ident("match") {
        let mut arms = Vec::new();
        let mut k = open + 1;
        while let Some(arrow) = find_depth0(toks, k, close, |t| t.is_punct("=>")) {
            let start = arrow + 1;
            let end = if toks.get(start).is_some_and(|t| t.is_punct("{")) {
                crate::items::matching(toks, start, "{", "}")? + 1
            } else {
                find_depth0(toks, start, close, |t| t.is_punct(",")).unwrap_or(close)
            };
            arms.push(body(start, end));
            k = end + usize::from(toks.get(end).is_some_and(|t| t.is_punct(",")));
        }
        return Some((
            cond | arms.into_iter().reduce(|a, b| a & b).unwrap_or(0),
            close + 1,
        ));
    }
    let then = body(open + 1, close);
    if !toks.get(close + 1).is_some_and(|t| t.is_ident("else")) || close + 2 >= hi {
        return Some((cond, close + 1));
    }
    let (other, end) = if toks[close + 2].is_ident("if") {
        branch_bits(toks, close + 2, hi, leaf)?
    } else {
        let eclose = crate::items::matching(toks, close + 2, "{", "}")?;
        (body(close + 3, eclose), eclose + 1)
    };
    Some((cond | (then & other), end))
}

/// Facts that hold on every path; the join is intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Must(u32);

impl Lattice for Must {
    fn join_from(&mut self, other: &Self) -> bool {
        let met = self.0 & other.0;
        let changed = met != self.0;
        self.0 = met;
        changed
    }
}

/// Runs a must-analysis over fn `idx`'s body (statements only *set*
/// bits through `transfer`; merges keep what every path holds) and
/// replays every reached statement through `visit` with the bits held
/// before it. Returns the bits held on every exit that returns
/// normally: the body's tail and each `return` other than
/// `return Err(..)`. `?` and error exits do not count, and dead code is
/// never visited.
pub fn must_walk(
    ws: &WorkspaceIndex,
    idx: usize,
    transfer: impl Fn(&Stmt, &mut u32),
    mut visit: impl FnMut(&Stmt, u32),
) -> u32 {
    let toks = &ws.files[ws.fns[idx].file].tokens;
    let Some(body) = ws.fn_item(idx).body else {
        return 0;
    };
    let cfg = build_cfg(toks, body);
    let entries = solve(&cfg, Must(0), |s, st| transfer(s, &mut st.0));
    let mut exit: Option<u32> = None;
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let Some(Must(mut st)) = entries[bi] else {
            continue;
        };
        for s in &block.stmts {
            visit(s, st);
            transfer(s, &mut st);
        }
        let returns_ok = block.stmts.iter().any(|s| {
            (s.lo..s.hi).any(|j| {
                toks[j].is_ident("return") && !toks.get(j + 1).is_some_and(|t| t.is_ident("Err"))
            })
        });
        let tail_ok = bi == cfg.tail
            && !block
                .stmts
                .last()
                .is_some_and(|s| toks[s.lo].is_ident("Err"));
        if block.succs.contains(&cfg.exit) && (returns_ok || tail_ok) {
            exit = Some(exit.map_or(st, |e| e & st));
        }
    }
    exit.unwrap_or(0)
}

/// Is the ident at `i` a *use of a local* (as opposed to a method or
/// field name after `.`, or a path segment after `::`)? Keeps a local
/// named `len` from colliding with every `.len()` call.
pub fn is_local_use(toks: &[Token], i: usize) -> bool {
    toks[i].kind == TokenKind::Ident
        && !i
            .checked_sub(1)
            .is_some_and(|j| toks[j].is_punct(".") || toks[j].is_punct("::"))
}

/// `(bound name, rhs start index, is compound op-assign)` for
/// `let x = rhs;`, `x = rhs;`, or `x op= rhs;` statements; `None` for
/// anything else (tuple/struct patterns are conservatively untracked).
pub fn binding_of(toks: &[Token], s: &Stmt) -> Option<(String, usize, bool)> {
    let t = &toks[s.lo..s.hi];
    if t.is_empty() {
        return None;
    }
    if t[0].is_ident("let") {
        let mut i = 1;
        if t.get(i).is_some_and(|t| t.is_ident("mut")) {
            i += 1;
        }
        let tok = t.get(i).filter(|t| t.kind == TokenKind::Ident)?;
        if tok.is_ident("else") {
            return None;
        }
        // A plain binding's name is followed by `=` or `: Type`;
        // anything else (`Some(x)`, `Point { .. }`, `ref x`) is a
        // pattern and conservatively untracked.
        if !t
            .get(i + 1)
            .is_some_and(|n| n.is_punct("=") || n.is_punct(":"))
        {
            return None;
        }
        let name = tok.text.clone();
        // First `=` after the pattern (skips `: Type` annotations; `==`
        // lexes as its own token so comparisons can't match).
        let eq = (i + 1..t.len()).find(|&j| t[j].is_punct("="))?;
        return Some((name, s.lo + eq + 1, false));
    }
    if t[0].kind == TokenKind::Ident && t.len() >= 3 {
        if t[1].is_punct("=") {
            return Some((t[0].text.clone(), s.lo + 2, false));
        }
        const OPS: &[&str] = &["+", "-", "*", "/", "%", "&", "|", "^"];
        if OPS.iter().any(|o| t[1].is_punct(o)) && t[2].is_punct("=") {
            return Some((t[0].text.clone(), s.lo + 3, true));
        }
    }
    None
}

/// Does a `[` right after `prev` index a value (`x[`, `f()[`, `a[0][`)
/// rather than open an array (`return [a, b]`, `in [..]`)?
pub fn is_index_position(prev: &Token) -> bool {
    let keyword = [
        "return", "in", "else", "match", "break", "mut", "const", "static", "as", "dyn",
    ]
    .iter()
    .any(|k| prev.is_ident(k));
    prev.kind == TokenKind::Ident && !keyword || prev.is_punct(")") || prev.is_punct("]")
}

/// Does the token range `[lo, hi)` contain the ident `name`?
pub fn range_has_ident(toks: &[Token], lo: usize, hi: usize, name: &str) -> bool {
    toks[lo..hi.min(toks.len())]
        .iter()
        .any(|t| t.is_ident(name))
}

/// Walks the postfix chain after the ident at `i` (`.method(...)`,
/// `.field`, `[...]`, `?`) and reports whether any projection in the
/// chain is one of `public` — e.g. `key.as_bytes().len()` is public
/// because of the final `.len()`.
pub fn postfix_projects_public(toks: &[Token], i: usize, public: &[&str]) -> bool {
    let mut j = i + 1;
    while j < toks.len() {
        if toks[j].is_punct(".") && toks.get(j + 1).is_some_and(|t| t.kind == TokenKind::Ident) {
            if public.contains(&toks[j + 1].text.as_str()) {
                return true;
            }
            j += 2;
        } else if toks[j].is_punct("(") {
            match crate::items::matching(toks, j, "(", ")") {
                Some(c) => j = c + 1,
                None => return false,
            }
        } else if toks[j].is_punct("[") {
            match crate::items::matching(toks, j, "[", "]") {
                Some(c) => j = c + 1,
                None => return false,
            }
        } else if toks[j].is_punct("?") {
            j += 1;
        } else {
            return false;
        }
    }
    false
}
