//! One taint engine for the lints that follow a value from where it
//! enters to where it must not go: `secret-taint` (key material into
//! Debug, logging and wire sinks), `ct-discipline` (secrets into
//! comparisons, branches and indices) and `untrusted-arith` (decoded
//! lengths into arithmetic, narrowing casts and indices).
//!
//! A lint is a [`Table`] plus its own sink checks. The engine holds the
//! rest:
//!
//! * one lattice per local, [`Taint`], ordered `Clean < Checked <
//!   Tainted`; a local with no fact falls back to the table's name
//!   heuristic, so the flow fact wins in both directions;
//! * one classifier of an expression range. It joins the parts; an
//!   embedded `if`/`match` ([`flow::branch_at`]) joins its condition and
//!   its arms, each classified on its own, so a sanitizer or check caps
//!   only the arm it sits in;
//! * one `transfer`: `let` and reassignment bind the classified right
//!   side, a compound assignment joins the old value, `for PAT in EXPR`
//!   binds the pattern, and a kill call (`zeroize`) clears its target
//!   when every arm of the statement runs it;
//! * one solve-and-replay per fn ([`FnFlow`], over
//!   [`crate::dataflow::replay`]): every reached statement with its entry
//!   environment, sorted by position for binary-search lookups. A body
//!   whose CFG falls back to one block gets no states (its order, and so
//!   any kill, cannot be trusted): lookups there use names only;
//! * one return summary: a fn whose return position carries taint taints
//!   every call that may reach it ([`Resolution::targets`]); a method
//!   call counts only when its receiver is itself tainted (a signature
//!   computed *from* a key is not the key). The call graph's one
//!   worklist ([`WorkspaceIndex::lift`]) runs it to convergence.

use std::borrow::Cow;

use crate::cfg::{build_cfg, Role, Stmt};
use crate::dataflow::{replay, JoinMap, Lattice};
use crate::graph::{Resolution, WorkspaceIndex};
use crate::items::{CallSite, FnItem};
use crate::lexer::{Token, TokenKind};
use crate::passes::flow::{self, binding_of, is_local_use, postfix_projects_public};

/// The per-local lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Taint {
    /// Carries nothing the lint tracks.
    Clean,
    /// Tracked, but bounded by a check (`untrusted-arith` only).
    Checked,
    /// Tracked and unchecked.
    Tainted,
}

impl Lattice for Taint {
    fn join_from(&mut self, other: &Self) -> bool {
        let changed = *other > *self;
        if changed {
            *self = *other;
        }
        changed
    }
}

/// Locals to their taint.
pub type Env = JoinMap<Taint>;

/// What one lint tracks.
pub struct Table {
    /// Files whose live fns the lint solves and checks.
    pub scope: fn(&str) -> bool,
    /// Name heuristic for an ident the flow holds no fact on (parameters,
    /// fields).
    pub named: fn(&str) -> bool,
    /// Call names whose result is tainted by the name alone.
    pub source: fn(&str) -> bool,
    /// Does the token at `j` sanitize the expression part it sits in?
    pub sanitizer: fn(&[Token], usize) -> bool,
    /// Are the sanitizers bounds checks? A check leaves `Checked`, not
    /// `Clean`, and a condition, or a statement holding a check, checks
    /// every local it mentions.
    pub checks: bool,
    /// Does a call the engine cannot classify leave the binding to the
    /// name heuristic (rather than bind it clean)?
    pub opaque_calls: bool,
    /// Method projections whose result is public (`key.len()`).
    pub public: &'static [&'static str],
    /// Fn names whose result never joins the return summary.
    pub public_fn: fn(&str) -> bool,
    /// Calls that overwrite their receiver or first argument.
    pub kills: &'static [&'static str],
}

impl Table {
    /// `name`'s taint under `env`; no fact falls back to the name.
    pub fn value(&self, env: Option<&Env>, name: &str) -> Taint {
        match env.and_then(|e| e.0.get(name)) {
            Some(&v) => v,
            None if (self.named)(name) => Taint::Tainted,
            None => Taint::Clean,
        }
    }
}

/// Is the token at `j` the name of a call (`name(`)?
pub fn is_call(toks: &[Token], j: usize) -> bool {
    toks[j].kind == TokenKind::Ident && toks.get(j + 1).is_some_and(|t| t.is_punct("("))
}

/// The solved flow of one fn.
#[derive(Clone)]
pub struct FnFlow {
    /// Every reached statement with the environment at its entry,
    /// sorted by position.
    pub states: Vec<(Stmt, Env)>,
    table: &'static Table,
}

impl FnFlow {
    /// The environment at entry to the statement holding token `tok`.
    fn env_at(&self, tok: usize) -> Option<&Env> {
        let i = self.states.partition_point(|(s, _)| s.lo <= tok);
        let (s, env) = self.states.get(i.checked_sub(1)?)?;
        (tok < s.hi).then_some(env)
    }

    /// Is `name`, used at token `tok`, tainted?
    pub fn tainted_at(&self, name: &str, tok: usize) -> bool {
        self.table.value(self.env_at(tok), name) == Taint::Tainted
    }
}

/// One lint's solved workspace: the return summary and the flows of the
/// fns in its scope.
pub struct Engine<'a> {
    ws: &'a WorkspaceIndex,
    table: &'static Table,
    returns: Vec<bool>,
    flows: Vec<Option<FnFlow>>,
}

impl<'a> Engine<'a> {
    /// Solves every live fn in the table's scope, and the return summary
    /// to convergence from `seed` (fns tainted-returning by fiat).
    pub fn run(ws: &'a WorkspaceIndex, table: &'static Table, seed: Vec<bool>) -> Engine<'a> {
        let n = ws.fns.len();
        let mut e = Engine {
            ws,
            table,
            returns: seed,
            flows: vec![None; n],
        };
        let scoped = (0..n).filter(|&f| ws.is_live_fn(f) && (table.scope)(ws.fn_path(f)));
        ws.lift(scoped, |f| {
            let (flow, returns) = e.solve(f);
            e.flows[f] = Some(flow);
            let grew = returns && !e.returns[f] && !(table.public_fn)(&ws.fn_item(f).name);
            e.returns[f] |= grew;
            grew
        });
        e
    }

    /// Fn `idx`'s flow: kept for fns in scope, solved here otherwise.
    pub fn flow(&self, idx: usize) -> Cow<'_, FnFlow> {
        match &self.flows[idx] {
            Some(flow) => Cow::Borrowed(flow),
            None => Cow::Owned(self.solve(idx).0),
        }
    }

    /// Solves fn `idx` and replays it; also reports whether a return
    /// position is tainted.
    fn solve(&self, idx: usize) -> (FnFlow, bool) {
        let cx = FnCx {
            table: self.table,
            returns: &self.returns,
            toks: &self.ws.files[self.ws.fns[idx].file].tokens,
            item: self.ws.fn_item(idx),
            calls: &self.ws.calls[idx],
        };
        let mut flow = FnFlow {
            states: Vec::new(),
            table: self.table,
        };
        let mut returns = false;
        let Some(body) = cx.item.body else {
            return (flow, returns);
        };
        let cfg = build_cfg(cx.toks, body);
        if cfg.fallback {
            return (flow, returns);
        }
        let transfer = |s: &Stmt, env: &mut Env| cx.transfer(s, env);
        replay(&cfg, Env::default(), transfer, |s, env| {
            if let Some((lo, hi)) = return_range(cx.toks, s) {
                returns |= cx.eval(lo, hi, env) == Some(Taint::Tainted);
            }
            flow.states.push((s.clone(), env.clone()));
        });
        flow.states.sort_by_key(|(s, _)| s.lo);
        (flow, returns)
    }
}

/// The expression range of a return position: a statement-initial
/// `return`, or a tail expression (no trailing `;`: `Stmt::hi` is one
/// past it). Non-`()` values in non-tail statement position do not
/// compile, so every `;`-less `Normal` statement is a return position.
fn return_range(toks: &[Token], s: &Stmt) -> Option<(usize, usize)> {
    if s.role != Role::Normal || s.lo >= s.hi {
        return None;
    }
    if toks[s.lo].is_ident("return") {
        return Some((s.lo + 1, s.hi));
    }
    (!toks[s.hi - 1].is_punct(";")).then_some((s.lo, s.hi))
}

/// Joins two expression parts; `None` (an opaque call decides) yields
/// only to `Tainted`.
fn join(a: Option<Taint>, b: Option<Taint>) -> Option<Taint> {
    match (a, b) {
        (Some(Taint::Tainted), _) | (_, Some(Taint::Tainted)) => Some(Taint::Tainted),
        (Some(a), Some(b)) => Some(a.max(b)),
        _ => None,
    }
}

/// Binds `name` to `v`; `None` drops the fact, so the name decides.
fn set(env: &mut Env, name: &str, v: Option<Taint>) {
    match v {
        Some(v) => env.0.insert(name.to_string(), v),
        None => env.0.remove(name),
    };
}

/// One fn's inputs to the classifier and the transfer.
struct FnCx<'a> {
    table: &'static Table,
    returns: &'a [bool],
    toks: &'a [Token],
    item: &'a FnItem,
    calls: &'a [Resolution],
}

impl FnCx<'_> {
    fn value(&self, env: &Env, name: &str) -> Taint {
        self.table.value(Some(env), name)
    }

    /// The expression `lo..hi` under `env`: the join of its parts, with
    /// a sanitizer capping the part it sits in. `None`: an opaque call
    /// decides it.
    fn eval(&self, lo: usize, hi: usize, env: &Env) -> Option<Taint> {
        let mut v = Some(Taint::Clean);
        let mut sanitized = false;
        let mut j = lo;
        while j < hi {
            if let Some(b) = flow::branch_at(self.toks, j, hi) {
                v = join(v, self.eval(b.cond.0, b.cond.1, env));
                for arm in &b.arms {
                    // The condition, and a `match` arm's own pattern and
                    // guard, check what the arm's body sees.
                    let checked = self.table.checks.then(|| {
                        let mut e = env.clone();
                        self.check(&mut e, b.cond.0, b.cond.1);
                        self.check(&mut e, arm.head.0, arm.head.1);
                        e
                    });
                    let (lo, hi) = arm.body;
                    v = join(v, self.eval(lo, hi, checked.as_ref().unwrap_or(env)));
                }
                j = b.end;
                continue;
            }
            sanitized |= (self.table.sanitizer)(self.toks, j);
            v = join(v, self.leaf(j, env));
            j += 1;
        }
        let cap = if self.table.checks {
            Taint::Checked
        } else {
            Taint::Clean
        };
        if sanitized {
            return Some(v.map_or(cap, |v| v.min(cap)));
        }
        v
    }

    /// Token `j`'s own contribution.
    fn leaf(&self, j: usize, env: &Env) -> Option<Taint> {
        let toks = self.toks;
        let t = &toks[j];
        if t.kind != TokenKind::Ident {
            return Some(Taint::Clean);
        }
        let prev = |p: &str| j > 0 && toks[j - 1].is_punct(p);
        let v = if let Ok(k) = self.item.calls.binary_search_by_key(&j, |c| c.tok) {
            let c = &self.item.calls[k];
            if (self.table.source)(&c.name) || self.summary_taints(c, &self.calls[k], env) {
                Taint::Tainted
            } else if self.table.opaque_calls && !self.table.public.contains(&c.name.as_str()) {
                return None;
            } else {
                Taint::Clean
            }
        } else if prev("::")
            || toks
                .get(j + 1)
                .is_some_and(|n| n.is_punct(":") || n.is_punct("::"))
        {
            // Path segments (`keys::OP`) and struct-literal field names.
            Taint::Clean
        } else if prev(".") {
            // A field: the env tracks locals, so only the name applies.
            self.table.value(None, &t.text)
        } else {
            self.value(env, &t.text)
        };
        if v == Taint::Tainted && postfix_projects_public(toks, j, self.table.public) {
            return Some(Taint::Clean);
        }
        Some(v)
    }

    /// Does this call reach a tainted-returning fn (through a tainted
    /// receiver, for a method)?
    fn summary_taints(&self, c: &CallSite, res: &Resolution, env: &Env) -> bool {
        res.targets().iter().any(|&f| self.returns[f])
            && (!c.is_method
                || c.tok.checked_sub(2).is_some_and(|r| {
                    self.toks[r].kind == TokenKind::Ident
                        && self.value(env, &self.toks[r].text) == Taint::Tainted
                }))
    }

    /// Marks every tainted local mentioned in `lo..hi` checked.
    fn check(&self, env: &mut Env, lo: usize, hi: usize) {
        for j in lo..hi {
            if is_local_use(self.toks, j) {
                if let Some(v) = env.0.get_mut(&self.toks[j].text) {
                    *v = (*v).min(Taint::Checked);
                }
            }
        }
    }

    fn transfer(&self, s: &Stmt, env: &mut Env) {
        let toks = self.toks;
        if self.table.checks && s.role != Role::Normal {
            self.check(env, s.lo, s.hi);
        }
        match s.role {
            Role::For => {
                if let Some(k) = (s.lo..s.hi).find(|&k| toks[k].is_ident("in")) {
                    // A loop header is a condition: for a checking table
                    // it bounds what it binds, too.
                    let mut v = self.eval(k + 1, s.hi, env);
                    if self.table.checks {
                        v = v.map(|v| v.min(Taint::Checked));
                    }
                    for t in &toks[s.lo..k] {
                        if t.kind == TokenKind::Ident && !t.is_ident("mut") {
                            set(env, &t.text, v);
                        }
                    }
                }
            }
            Role::Normal => {
                let binding = binding_of(toks, s);
                if let Some((name, rhs, compound)) = &binding {
                    let mut v = self.eval(*rhs, s.hi, env);
                    if *compound {
                        v = v.map(|v| v.max(self.value(env, name)));
                    }
                    set(env, name, v);
                }
                if self.table.checks && (s.lo..s.hi).any(|j| (self.table.sanitizer)(toks, j)) {
                    self.check(env, binding.map_or(s.lo, |b| b.1), s.hi);
                }
            }
            _ => {}
        }
        self.kill(s, env);
    }

    /// A kill call (`zeroize(&mut x)`, `x.zeroize()`) leaves its target
    /// clean, whatever its name says, when every arm of the statement
    /// runs one on it.
    fn kill(&self, s: &Stmt, env: &mut Env) {
        let toks = self.toks;
        let kills: Vec<(usize, &str)> = flow::calls_in(self.item, s)
            .filter(|(_, c)| self.table.kills.contains(&c.name.as_str()))
            .filter_map(|(_, c)| {
                let target = if c.is_method {
                    c.tok.checked_sub(2).map(|r| &toks[r])
                } else {
                    toks[c.args.0..c.args.1]
                        .iter()
                        .find(|t| t.kind == TokenKind::Ident && !t.is_ident("mut"))
                };
                target
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| (c.tok, t.text.as_str()))
            })
            .collect();
        for &(_, name) in &kills {
            let every_path = flow::must_bits(toks, s.lo, s.hi, false, &|j, _| {
                u32::from(kills.contains(&(j, name)))
            });
            if every_path != 0 {
                env.0.insert(name.to_string(), Taint::Clean);
            }
        }
    }
}
