//! `lock-discipline` — a flow-sensitive lockset over `Mutex`/`RwLock`
//! acquisitions, denying the deadlock and staleness shapes PR 2's
//! service layer can exhibit:
//!
//! 1. **Inconsistent acquisition order.** Every acquisition made while
//!    another guard may be held (directly, or transitively through
//!    calls) contributes an edge `held → acquired` to a global graph
//!    keyed by lock identity; any cycle is a deny at each participating
//!    site. Re-acquiring the same lock while held is denied outright
//!    (`parking_lot` mutexes are not re-entrant: self-deadlock).
//! 2. **Guard held across a blocking channel op.** `send`/`recv` on
//!    the bounded crossbeam queues (plus `join`/`wait`/`park`/`sleep`)
//!    while a guard may be held — directly or through a call — is a
//!    deny: a full queue would park the thread while every other shard
//!    client spins on the mutex. `try_send`/`try_recv` are fine.
//! 3. **Stale guarded read.** A local bound from a guard projection
//!    (`let head = g.head;`) that is reused after the guard was
//!    released and the same lock re-acquired is a deny: the guarded
//!    state may have changed between the two critical sections.
//!
//! The lockset is a forward may-analysis over the statement-level CFG
//! (`crate::cfg`): a `let`-bound guard is *gen*'d at its acquisition
//! and *killed* by `drop(guard)`, by moving the bare guard into a
//! call, or by leaving its lexical scope (including loop back edges);
//! a chained temporary (`x.lock().f()`) lives only to its statement's
//! `;`. Path-sensitivity is what rules 1–2 gain over the old extent
//! scan: a guard dropped on the `then` path is still reported when the
//! `else` path blocks, and a guard handed off to a callee no longer
//! counts as held afterwards.
//!
//! A lock's identity is its resolved `(type, field)` — `Journal.inner`
//! and `Mutex.inner` (the `parking_lot` shim's own field) are two locks
//! — wherever the resolver ([`crate::graph`]) types the owner of the
//! locked field; a lock it cannot place (a parameter `a: &Mutex<_>`, a
//! field of an untyped value) keeps its lexical name. Callee summaries
//! fold over every fn a call may reach, so `ledger.lock().register(..)`
//! folds the guarded value's `register`, and a call the resolver cannot
//! place folds all of its candidates.
//!
//! `shims/` are excluded as *subjects* (their internals implement the
//! blocking primitives out of locks and condvars — that is the point)
//! but still contribute callee summaries.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{build_cfg, Stmt};
use crate::dataflow::{solve, Lattice};
use crate::graph::{chain_start, WorkspaceIndex};
use crate::items::{find_depth0, CallSite, FnItem};
use crate::lexer::TokenKind;
use crate::passes::{flow, Finding, Pass};
use crate::source::SourceFile;

/// Method names that can block the calling thread.
const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "send_timeout",
    "join",
    "wait",
    "park",
    "sleep",
];

/// One lock acquisition and the shape of its guard.
#[derive(Debug, Clone)]
struct Acquisition {
    /// Lock identity: `Type.field` when the owner is typed, else the
    /// lexical name.
    name: String,
    line: u32,
    tok: usize,
    /// `let`-bound guard variable; `None` for chained temporaries.
    guard_var: Option<String>,
    /// Exclusive lexical upper bound of the guard's life: the
    /// enclosing block's `}` for bound guards, the statement's `;`
    /// for temporaries. Flow kills can end it earlier.
    scope_end: usize,
}

/// Lock-order edges `(held, acquired)` mapped to their sites
/// `(file, line, fn_name)`.
type EdgeSites = BTreeMap<(String, String), Vec<(usize, u32, String)>>;

/// Per-function summary used transitively.
#[derive(Debug, Default, Clone)]
struct Summary {
    /// Lock names this fn (transitively) acquires.
    locks: BTreeSet<String>,
    /// A blocking op this fn (transitively) performs, if any.
    blocks: Option<String>,
}

/// The dataflow state: may-held guards plus guard-derived locals.
#[derive(Debug, Clone, PartialEq, Default)]
struct LockState {
    /// Indices into `FnLocks::acquisitions` whose guards may be live.
    held: BTreeSet<usize>,
    /// Locals bound from a guard projection: name -> (lock, stale).
    derived: BTreeMap<String, (String, bool)>,
}

impl Lattice for LockState {
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for &i in &other.held {
            changed |= self.held.insert(i);
        }
        for (k, v) in &other.derived {
            match self.derived.get_mut(k) {
                None => {
                    self.derived.insert(k.clone(), v.clone());
                    changed = true;
                }
                Some(cur) => {
                    // Stale on any path means stale at the join; a
                    // differing lock name keeps the existing entry.
                    if v.1 && !cur.1 && cur.0 == v.0 {
                        cur.1 = true;
                        changed = true;
                    }
                }
            }
        }
        changed
    }
}

/// The pass.
pub struct LockDiscipline;

impl Pass for LockDiscipline {
    fn id(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "consistent lock order; no guard held across blocking channel ops"
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        let mut out = Vec::new();
        let per_fn: Vec<FnLocks> = (0..ws.fns.len()).map(|i| analyze_fn(ws, i)).collect();
        let summaries = transitive_summaries(ws, &per_fn);

        // Edges of the global lock-order graph, with their sites.
        let mut edges: EdgeSites = BTreeMap::new();

        for (idx, fl) in per_fn.iter().enumerate() {
            if !subject(ws, idx) {
                continue;
            }
            check_fn(ws, idx, fl, &summaries, &mut edges, &mut out);
        }

        // Cycle detection over the order graph.
        let adj: BTreeMap<&String, BTreeSet<&String>> = {
            let mut m: BTreeMap<&String, BTreeSet<&String>> = BTreeMap::new();
            for (a, b) in edges.keys() {
                m.entry(a).or_default().insert(b);
            }
            m
        };
        for ((a, b), sites) in &edges {
            if reaches(&adj, b, a) {
                for (fi, line, fn_name) in sites {
                    out.push((
                        *fi,
                        Finding::deny(
                            *line,
                            format!(
                                "lock-order cycle: `{a}` -> `{b}` (acquired `{b}` in \
                                 `{fn_name}` while holding `{a}`), but elsewhere `{a}` is \
                                 acquired while `{b}` is held; pick one global order",
                            ),
                        ),
                    ));
                }
            }
        }
        out
    }
}

/// Is fn `idx` a subject for findings (vs summary-only)?
fn subject(ws: &WorkspaceIndex, idx: usize) -> bool {
    ws.is_live_fn(idx) && !ws.fn_path(idx).starts_with("shims/")
}

fn is_lock_method(name: &str) -> bool {
    name == "lock" || name == "read" || name == "write"
}

/// Per-fn raw lock facts.
#[derive(Debug, Default)]
struct FnLocks {
    acquisitions: Vec<Acquisition>,
    /// (line, op-name) of direct blocking calls.
    blocking: Vec<(u32, String)>,
    /// Token index of each blocking call, parallel to `blocking`.
    blocking_toks: Vec<usize>,
}

/// Shared per-fn context for the check walk.
struct FnCtx<'a> {
    ws: &'a WorkspaceIndex,
    idx: usize,
    fi: usize,
    file: &'a SourceFile,
    item: &'a FnItem,
    fl: &'a FnLocks,
    summaries: &'a [Summary],
}

fn analyze_fn(ws: &WorkspaceIndex, idx: usize) -> FnLocks {
    let node = ws.fns[idx];
    let file = &ws.files[node.file];
    let item = &file.items.fns[node.item];
    let mut out = FnLocks::default();
    let Some((body_open, body_close)) = item.body else {
        return out;
    };
    let has_rwlock = file.tokens.iter().any(|t| t.is_ident("RwLock"));

    for c in &item.calls {
        if c.is_method && BLOCKING.contains(&c.name.as_str()) && !is_string_join(file, c) {
            out.blocking.push((c.line, c.name.clone()));
            out.blocking_toks.push(c.tok);
        }
        let is_acquire = c.is_method
            && c.args.0 == c.args.1
            && (c.name == "lock" || ((c.name == "read" || c.name == "write") && has_rwlock));
        if !is_acquire {
            continue;
        }
        // Lock identity: the ident before the `.` preceding the method,
        // qualified by its owner's type when the resolver knows it.
        let Some(recv) = c.tok.checked_sub(2).map(|r| &file.tokens[r]) else {
            continue;
        };
        if recv.kind != TokenKind::Ident {
            continue;
        }
        let owner = (c.tok >= 3 && file.tokens[c.tok - 3].is_punct("."))
            .then(|| ws.expr_type(idx, chain_start(&file.tokens, c.tok - 3), c.tok - 3))
            .flatten()
            .filter(|ty| ty.placed());
        let name = match owner {
            Some(ty) => format!("{}.{}", ty.name, recv.text),
            None => recv.text.clone(),
        };
        let (guard_var, scope_end) = guard_shape(file, c, body_open, body_close);
        out.acquisitions.push(Acquisition {
            name,
            line: c.line,
            tok: c.tok,
            guard_var,
            scope_end,
        });
    }
    out
}

/// `v.join(", ")` string joins are not thread joins.
fn is_string_join(file: &SourceFile, c: &CallSite) -> bool {
    c.name == "join"
        && file.tokens[c.args.0..c.args.1]
            .iter()
            .any(|t| t.kind == TokenKind::Str)
}

/// Guard variable (if `let`-bound) and lexical upper bound of the
/// guard produced by acquisition `c`.
fn guard_shape(
    file: &SourceFile,
    c: &CallSite,
    body_open: usize,
    body_close: usize,
) -> (Option<String>, usize) {
    // Statement start: walk back to the nearest `;`, `{` or `}`.
    let mut s = c.tok;
    while s > body_open {
        let t = &file.tokens[s - 1];
        if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
            break;
        }
        s -= 1;
    }
    // `foo.lock().method(..)` — the guard is a temporary consumed by the
    // chained call; any surrounding `let` binds the chain's result, not
    // the guard, so the guard still dies at the statement's `;`.
    let chained = file
        .tokens
        .get(c.args.1 + 1)
        .is_some_and(|t| t.is_punct("."));
    let mut k = s;
    let bound_var = if !chained && file.tokens[k].is_ident("let") {
        k += 1;
        if file.tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        file.tokens
            .get(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
    } else {
        None
    };
    // A bound guard lives to the end of the enclosing block (`drop(var)`
    // and moves are flow kills applied by the transfer function); a
    // temporary to its statement's `;`.
    let end = |stop: &dyn Fn(&crate::lexer::Token) -> bool, from: usize| {
        find_depth0(&file.tokens, from, body_close + 1, stop).unwrap_or(body_close)
    };
    match bound_var {
        Some(var) => (Some(var), end(&|t| t.is_punct("}"), c.tok + 1)),
        None => (None, end(&|t| t.is_punct(";") || t.is_punct("}"), c.args.1)),
    }
}

/// Runs the lockset fixpoint over `idx`'s CFG, then re-walks every
/// reached block checking blocking ops, nested acquisitions, callee
/// summaries and stale guarded reads against per-statement state.
fn check_fn(
    ws: &WorkspaceIndex,
    idx: usize,
    fl: &FnLocks,
    summaries: &[Summary],
    edges: &mut EdgeSites,
    out: &mut Vec<(usize, Finding)>,
) {
    if fl.acquisitions.is_empty() {
        return;
    }
    let node = ws.fns[idx];
    let fi = node.file;
    let file = &ws.files[fi];
    let item = ws.fn_item(idx);
    let Some(body) = item.body else {
        return;
    };
    let cfg = build_cfg(&file.tokens, body);
    let entries = solve(&cfg, LockState::default(), |s, st| {
        prune(st, s, fl);
        gen_kill(st, s, file, item, fl);
    });
    let cx = FnCtx {
        ws,
        idx,
        fi,
        file,
        item,
        fl,
        summaries,
    };
    for (bi, block) in cfg.blocks.iter().enumerate() {
        let Some(entry) = &entries[bi] else {
            continue;
        };
        let mut st = entry.clone();
        for s in &block.stmts {
            prune(&mut st, s, fl);
            check_stmt(&cx, &st, s, edges, out);
            gen_kill(&mut st, s, file, item, fl);
        }
    }
}

/// Drops guards whose lexical scope does not cover this statement —
/// including loop back edges, where re-entering the body means the
/// previous iteration's guard was released at the block's `}`.
fn prune(st: &mut LockState, s: &Stmt, fl: &FnLocks) {
    let dead: Vec<usize> = st
        .held
        .iter()
        .copied()
        .filter(|&i| {
            let a = &fl.acquisitions[i];
            !(a.tok < s.lo && s.lo < a.scope_end)
        })
        .collect();
    for i in dead {
        release(st, i, fl);
    }
}

/// Removes a guard from the lockset; once no guard of that lock
/// remains, every local derived from it becomes stale.
fn release(st: &mut LockState, i: usize, fl: &FnLocks) {
    if !st.held.remove(&i) {
        return;
    }
    let name = &fl.acquisitions[i].name;
    if st.held.iter().any(|&j| fl.acquisitions[j].name == *name) {
        return;
    }
    for v in st.derived.values_mut() {
        if v.0 == *name {
            v.1 = true;
        }
    }
}

/// The transfer function: guard gens, `drop`/move kills, and
/// derived-local tracking across one statement.
fn gen_kill(st: &mut LockState, s: &Stmt, file: &SourceFile, item: &FnItem, fl: &FnLocks) {
    for (i, a) in fl.acquisitions.iter().enumerate() {
        if a.guard_var.is_some() && s.lo <= a.tok && a.tok < s.hi {
            st.held.insert(i);
        }
    }
    for c in &item.calls {
        if c.tok < s.lo || c.tok >= s.hi {
            continue;
        }
        if c.name == "drop" && !c.is_method && c.args.1 == c.args.0 + 1 {
            let t = &file.tokens[c.args.0];
            if t.kind == TokenKind::Ident {
                if let Some(i) = held_guard_named(st, fl, &t.text) {
                    release(st, i, fl);
                }
            }
            continue;
        }
        // A bare guard var as a whole argument: ownership moves into
        // the call and the guard unlocks inside it.
        let mut j = c.args.0;
        while j < c.args.1 {
            let t = &file.tokens[j];
            if t.kind == TokenKind::Ident {
                let starts = j == c.args.0 || file.tokens[j - 1].is_punct(",");
                let ends = j + 1 == c.args.1 || file.tokens[j + 1].is_punct(",");
                if starts && ends {
                    if let Some(i) = held_guard_named(st, fl, &t.text) {
                        release(st, i, fl);
                    }
                }
            }
            j += 1;
        }
    }
    // Plain bindings from a guard projection become derived locals;
    // `x += g.f` accumulators keep their own history and are neither
    // derived nor killed.
    if let Some((name, rhs_lo, compound)) = flow::binding_of(&file.tokens, s) {
        if !compound {
            match derived_lock(st, file, fl, rhs_lo, s.hi) {
                Some(lock) => {
                    st.derived.insert(name, (lock, false));
                }
                None => {
                    st.derived.remove(&name);
                }
            }
        }
    }
}

/// The held acquisition whose guard variable is `var`, if any.
fn held_guard_named(st: &LockState, fl: &FnLocks, var: &str) -> Option<usize> {
    st.held
        .iter()
        .copied()
        .find(|&i| fl.acquisitions[i].guard_var.as_deref() == Some(var))
}

/// The lock name behind a guard projection (`g.field` / `g.method()`)
/// in `[lo, hi)`, if a held guard is projected.
fn derived_lock(
    st: &LockState,
    file: &SourceFile,
    fl: &FnLocks,
    lo: usize,
    hi: usize,
) -> Option<String> {
    for j in lo..hi {
        let t = &file.tokens[j];
        if t.kind != TokenKind::Ident || !flow::is_local_use(&file.tokens, j) {
            continue;
        }
        if !file.tokens.get(j + 1).is_some_and(|n| n.is_punct(".")) {
            continue;
        }
        if let Some(i) = held_guard_named(st, fl, &t.text) {
            return Some(fl.acquisitions[i].name.clone());
        }
    }
    None
}

/// Checks one statement against its entry lockset.
fn check_stmt(
    cx: &FnCtx<'_>,
    st: &LockState,
    s: &Stmt,
    edges: &mut EdgeSites,
    out: &mut Vec<(usize, Finding)>,
) {
    let fl = cx.fl;
    // Guards that may be held at token `t`: the entry set plus any
    // acquisition earlier in this statement (temporaries only up to
    // their `;`).
    let held_at = |t: usize| -> Vec<usize> {
        let mut v: Vec<usize> = st.held.iter().copied().collect();
        for (i, a) in fl.acquisitions.iter().enumerate() {
            if s.lo <= a.tok && a.tok < t && !v.contains(&i) {
                let live = match a.guard_var {
                    Some(_) => true,
                    None => t < a.scope_end,
                };
                if live {
                    v.push(i);
                }
            }
        }
        v.sort_unstable();
        v
    };

    // 1. Blocking ops while a guard may be held.
    for (bi, (line, op)) in fl.blocking.iter().enumerate() {
        let t = fl.blocking_toks[bi];
        if t < s.lo || t >= s.hi {
            continue;
        }
        for i in held_at(t) {
            let a = &fl.acquisitions[i];
            out.push((
                cx.fi,
                Finding::deny(
                    *line,
                    format!(
                        "guard `{}` is held across blocking `.{}()` in `{}`; \
                         a full/empty bounded channel parks this thread while \
                         holding the lock — drop the guard before blocking",
                        a.name, op, cx.item.name
                    ),
                ),
            ));
        }
    }

    // 2. Nested acquisitions: re-entrancy and order edges.
    for (bidx, b) in fl.acquisitions.iter().enumerate() {
        if b.tok < s.lo || b.tok >= s.hi {
            continue;
        }
        for i in held_at(b.tok) {
            if i == bidx {
                continue;
            }
            let a = &fl.acquisitions[i];
            if a.name == b.name {
                out.push((
                    cx.fi,
                    Finding::deny(
                        b.line,
                        format!(
                            "`{}` re-acquires lock `{}` while its guard is still \
                             held (parking_lot mutexes are not re-entrant: this \
                             self-deadlocks); drop the first guard or merge the \
                             critical sections",
                            cx.item.name, a.name
                        ),
                    ),
                ));
            } else {
                edges
                    .entry((a.name.clone(), b.name.clone()))
                    .or_default()
                    .push((cx.fi, b.line, cx.item.name.clone()));
            }
        }
    }

    // 3. Calls while held: fold in the summaries of every fn the call
    //    may reach.
    for (k, c) in cx.item.calls.iter().enumerate() {
        if c.tok < s.lo || c.tok >= s.hi || is_lock_method(&c.name) || c.name == "drop" {
            continue;
        }
        let held = held_at(c.tok);
        if held.is_empty() {
            continue;
        }
        for &g in cx.ws.calls[cx.idx][k].targets() {
            // Direct recursion under a held lock is caught by the
            // nested-acquisition check when the lock is re-taken inline.
            if g == cx.idx {
                continue;
            }
            let sum = &cx.summaries[g];
            for &i in &held {
                let a = &fl.acquisitions[i];
                if let Some(op) = &sum.blocks {
                    out.push((
                        cx.fi,
                        Finding::deny(
                            c.line,
                            format!(
                                "guard `{}` is held across a call to `{}` which \
                                 may block (`{}`); drop the guard before calling",
                                a.name, c.name, op
                            ),
                        ),
                    ));
                }
                for l in &sum.locks {
                    if *l == a.name {
                        out.push((
                            cx.fi,
                            Finding::deny(
                                c.line,
                                format!(
                                    "`{}` calls `{}` which re-acquires lock `{}` \
                                     already held here (self-deadlock)",
                                    cx.item.name, c.name, a.name
                                ),
                            ),
                        ));
                    } else {
                        edges.entry((a.name.clone(), l.clone())).or_default().push((
                            cx.fi,
                            c.line,
                            cx.item.name.clone(),
                        ));
                    }
                }
            }
        }
    }

    // 4. Stale guarded reads under a re-acquired lock. The binding
    //    occurrence on a `let`/`=` lhs is not a use, so scan the rhs.
    let scan_lo = flow::binding_of(&cx.file.tokens, s)
        .map(|(_, rhs, _)| rhs)
        .unwrap_or(s.lo);
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for j in scan_lo..s.hi {
        let t = &cx.file.tokens[j];
        if t.kind != TokenKind::Ident || !flow::is_local_use(&cx.file.tokens, j) {
            continue;
        }
        let Some((lock, stale)) = st.derived.get(&t.text) else {
            continue;
        };
        if !*stale {
            continue;
        }
        if held_at(j).iter().any(|&i| fl.acquisitions[i].name == *lock)
            && reported.insert(t.text.clone())
        {
            out.push((
                cx.fi,
                Finding::deny(
                    s.line,
                    format!(
                        "`{}` was read under an earlier `{}` guard and reused \
                         after that guard was released; the state may have \
                         changed — re-read it under the current `{}` guard",
                        t.text, lock, lock
                    ),
                ),
            ));
        }
    }
}

/// Fixpoint of per-fn summaries over the call graph.
fn transitive_summaries(ws: &WorkspaceIndex, per_fn: &[FnLocks]) -> Vec<Summary> {
    let mut sums: Vec<Summary> = per_fn
        .iter()
        .map(|fl| Summary {
            locks: fl.acquisitions.iter().map(|a| a.name.clone()).collect(),
            blocks: fl.blocking.first().map(|(_, op)| op.clone()),
        })
        .collect();
    loop {
        let mut changed = false;
        for idx in 0..ws.fns.len() {
            let item = ws.fn_item(idx);
            let folded = item
                .calls
                .iter()
                .zip(&ws.calls[idx])
                .filter(|(c, _)| !is_lock_method(&c.name) && c.name != "drop")
                .flat_map(|(_, r)| r.targets().iter().copied());
            for g in folded.collect::<Vec<_>>() {
                if g == idx {
                    continue;
                }
                let (callee_locks, callee_blocks) = (sums[g].locks.clone(), sums[g].blocks.clone());
                let me = &mut sums[idx];
                for l in callee_locks {
                    if me.locks.insert(l) {
                        changed = true;
                    }
                }
                if me.blocks.is_none() {
                    if let Some(op) = callee_blocks {
                        me.blocks = Some(op);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return sums;
        }
    }
}

/// Is `to` reachable from `from` in the order graph?
fn reaches(adj: &BTreeMap<&String, BTreeSet<&String>>, from: &String, to: &String) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(cur) = stack.pop() {
        if cur == to {
            return true;
        }
        if !seen.insert(cur.clone()) {
            continue;
        }
        if let Some(next) = adj.get(cur) {
            stack.extend(next.iter().copied());
        }
    }
    false
}
