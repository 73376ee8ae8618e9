//! Helpers shared by the flow-sensitive passes: the must-held bit-set
//! walk behind authorization-flow and protocol-order, the splitter of an
//! `if`/`match` inside one statement, statement shapes (`let` /
//! reassignment), local-use detection, and postfix chains.

use crate::cfg::{build_cfg, Role, Stmt};
use crate::dataflow::{replay, Lattice};
use crate::graph::WorkspaceIndex;
use crate::items::{find_depth0, matching, CallSite, FnItem};
use crate::lexer::{Token, TokenKind};

/// Call sites of `item` inside the statement's token range, with their
/// index into `item.calls` (and so into the fn's resolutions).
pub fn calls_in<'a>(item: &'a FnItem, s: &Stmt) -> impl Iterator<Item = (usize, &'a CallSite)> {
    let (lo, hi) = (s.lo, s.hi);
    let from = item.calls.partition_point(|c| c.tok < lo);
    (item.calls[from..].iter().enumerate())
        .map(move |(k, c)| (from + k, c))
        .take_while(move |(_, c)| c.tok < hi)
}

/// An `if`/`else` chain or a `match` inside one statement. The
/// statement CFG does not split control flow inside a statement, so the
/// passes that must not let one arm speak for another split it here.
pub struct Branch {
    /// The condition or scrutinee.
    pub cond: (usize, usize),
    /// The arms, in order; an `else if` arm is the nested `if`.
    pub arms: Vec<Arm>,
    /// Does one arm always run (an `if` with an `else`, or a `match`)?
    pub total: bool,
    /// The index past the construct.
    pub end: usize,
}

/// One arm of a [`Branch`].
pub struct Arm {
    /// A `match` arm's pattern and guard, the arm's own condition (as
    /// in a CFG [`Role::MatchArm`]); empty for an `if` arm.
    pub head: (usize, usize),
    /// The arm's body.
    pub body: (usize, usize),
}

/// The `if`/`match` construct starting at `j`, if one does; `None` too
/// when its braces do not close inside `..hi`.
pub fn branch_at(toks: &[Token], j: usize, hi: usize) -> Option<Branch> {
    if !(toks[j].is_ident("if") || toks[j].is_ident("match")) {
        return None;
    }
    let open = find_depth0(toks, j + 1, hi, |t| t.is_punct("{"))?;
    let close = matching(toks, open, "{", "}").filter(|&c| c < hi)?;
    let cond = (j + 1, open);
    let arm = |lo: usize, hi: usize| Arm {
        head: (lo, lo),
        body: (lo, hi),
    };
    if toks[j].is_ident("match") {
        let mut arms = Vec::new();
        let mut k = open + 1;
        while let Some(arrow) = find_depth0(toks, k, close, |t| t.is_punct("=>")) {
            let start = arrow + 1;
            let end = if toks.get(start).is_some_and(|t| t.is_punct("{")) {
                matching(toks, start, "{", "}")? + 1
            } else {
                find_depth0(toks, start, close, |t| t.is_punct(",")).unwrap_or(close)
            };
            arms.push(Arm {
                head: (k, arrow),
                body: (start, end),
            });
            k = end + usize::from(toks.get(end).is_some_and(|t| t.is_punct(",")));
        }
        return Some(Branch {
            cond,
            arms,
            total: true,
            end: close + 1,
        });
    }
    let then = arm(open + 1, close);
    if !toks.get(close + 1).is_some_and(|t| t.is_ident("else")) || close + 2 >= hi {
        return Some(Branch {
            cond,
            arms: vec![then],
            total: false,
            end: close + 1,
        });
    }
    let (other, end) = if toks[close + 2].is_ident("if") {
        let end = branch_at(toks, close + 2, hi)?.end;
        (arm(close + 2, end), end)
    } else {
        let eclose = matching(toks, close + 2, "{", "}")?;
        (arm(close + 3, eclose), eclose + 1)
    };
    Some(Branch {
        cond,
        arms: vec![then, other],
        total: true,
        end,
    })
}

/// Bits the tokens `lo..hi` of one statement set on every path through
/// them. `leaf(j, head)` gives token `j`'s own bits (`head`: inside a
/// branch condition, a `match` arm's head included); the arms of an
/// embedded [`Branch`] add only what all of them set, and an `if`
/// without `else` only its condition. This keeps
/// `let x = match .. { .. }` from granting what only one arm does.
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
        if let Some(b) = branch_at(toks, j, hi) {
            held |= must_bits(toks, b.cond.0, b.cond.1, true, leaf);
            if b.total {
                let arms = (b.arms.iter()).map(|a| {
                    must_bits(toks, a.head.0, a.head.1, true, leaf)
                        | must_bits(toks, a.body.0, a.body.1, false, leaf)
                });
                held |= arms.reduce(|a, b| a & b).unwrap_or(0);
            }
            j = b.end;
            continue;
        }
        held |= leaf(j, head);
        j += 1;
    }
    held
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

/// Runs a must-analysis over fn `idx`'s body and replays every reached
/// statement through `visit` with the bits held before it. A statement
/// sets the bits [`must_bits`] gives it, where `leaf(token, call, head)`
/// gives one token's own (`call`: the index of the call site the token
/// names, if any; `head`: inside a branch condition, a `match` arm's
/// head included); merges keep what every path holds. Returns the bits
/// held on every exit that returns normally: the body's tail and each
/// `return` other than `return Err(..)`. `?` and error exits do not
/// count, and dead code is never visited.
pub fn must_walk(
    ws: &WorkspaceIndex,
    idx: usize,
    leaf: impl Fn(&Token, Option<usize>, bool) -> u32,
    mut visit: impl FnMut(&Stmt, u32),
) -> u32 {
    let toks = &ws.files[ws.fns[idx].file].tokens;
    let item = ws.fn_item(idx);
    let Some(body) = item.body else {
        return 0;
    };
    let cfg = build_cfg(toks, body);
    let transfer = |s: &Stmt, st: &mut Must| {
        let head = matches!(
            s.role,
            Role::If | Role::While | Role::Match | Role::MatchArm
        );
        st.0 |= must_bits(toks, s.lo, s.hi, head, &|j, head| {
            let call = item.calls.binary_search_by_key(&j, |c| c.tok).ok();
            leaf(&toks[j], call, head)
        });
    };
    let exits = replay(&cfg, Must(0), transfer, |s, st| visit(s, st.0));
    let mut exit: Option<u32> = None;
    for (bi, (block, st)) in cfg.blocks.iter().zip(exits).enumerate() {
        let Some(Must(st)) = st else {
            continue;
        };
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
            match matching(toks, j, "(", ")") {
                Some(c) => j = c + 1,
                None => return false,
            }
        } else if toks[j].is_punct("[") {
            match matching(toks, j, "[", "]") {
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
