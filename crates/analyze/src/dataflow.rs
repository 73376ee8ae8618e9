//! A small forward dataflow framework over [`crate::cfg::Cfg`].
//!
//! Passes define a [`Lattice`] (their per-program-point abstract state)
//! and a transfer function over statements, and call the one entry
//! point, [`replay`]: a worklist runs the transfer to a fixpoint over
//! each block's *entry* state, then each reached block is re-walked from
//! its entry state, so a pass checks its sinks at the pre-state of every
//! statement.
//!
//! Entry states are `Option<L>` with `None` meaning "not reached yet":
//! this avoids inventing an artificial top element and naturally leaves
//! unreachable blocks (code after `return`, loop-less `break` targets)
//! unanalyzed — dead code cannot execute, so it produces no findings.
//!
//! Termination: the lattices used here are finite-height maps from
//! local names to small enums, and `join` only ever adds information,
//! so every edge is re-processed a bounded number of times.

use crate::cfg::{Cfg, Stmt};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// A join-semilattice. `join_from` merges `other` into `self` and
/// reports whether `self` changed (drives worklist convergence).
pub trait Lattice: Clone + PartialEq {
    fn join_from(&mut self, other: &Self) -> bool;
}

/// Runs a forward worklist fixpoint. `init` seeds the entry block;
/// `transfer` mutates the state across one statement. Returns the
/// entry state of every block (`None` = unreachable).
fn solve<L, F>(cfg: &Cfg, init: L, mut transfer: F) -> Vec<Option<L>>
where
    L: Lattice,
    F: FnMut(&Stmt, &mut L),
{
    let mut entries: Vec<Option<L>> = vec![None; cfg.blocks.len()];
    entries[cfg.entry] = Some(init);
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut queued = vec![false; cfg.blocks.len()];
    queue.push_back(cfg.entry);
    queued[cfg.entry] = true;

    while let Some(b) = queue.pop_front() {
        queued[b] = false;
        let Some(entry) = entries[b].clone() else {
            continue;
        };
        let mut state = entry;
        for s in &cfg.blocks[b].stmts {
            transfer(s, &mut state);
        }
        for &succ in &cfg.blocks[b].succs {
            let changed = match &mut entries[succ] {
                Some(existing) => existing.join_from(&state),
                slot @ None => {
                    *slot = Some(state.clone());
                    true
                }
            };
            if changed && !queued[succ] {
                queue.push_back(succ);
                queued[succ] = true;
            }
        }
    }
    entries
}

/// Solves `cfg` from `init`, then replays every reached block from its
/// entry state: `visit` sees each statement's entry state before
/// `transfer` steps over it. Returns each block's exit state (`None`:
/// unreachable), in block order.
pub fn replay<L: Lattice>(
    cfg: &Cfg,
    init: L,
    transfer: impl Fn(&Stmt, &mut L),
    mut visit: impl FnMut(&Stmt, &L),
) -> Vec<Option<L>> {
    let entries = solve(cfg, init, &transfer);
    (entries.into_iter().zip(&cfg.blocks))
        .map(|(entry, block)| {
            let mut st = entry?;
            for s in &block.stmts {
                visit(s, &st);
                transfer(s, &mut st);
            }
            Some(st)
        })
        .collect()
}

/// A map lattice from local names to a value lattice. Keys present in
/// only one operand keep their value (a local bound on one path keeps
/// its state; Rust scoping prevents use of a local that was bound on
/// neither path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinMap<V: Lattice>(pub BTreeMap<String, V>);

impl<V: Lattice> Default for JoinMap<V> {
    fn default() -> Self {
        JoinMap(BTreeMap::new())
    }
}

impl<V: Lattice> Lattice for JoinMap<V> {
    fn join_from(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (k, v) in &other.0 {
            match self.0.get_mut(k) {
                Some(mine) => changed |= mine.join_from(v),
                None => {
                    self.0.insert(k.clone(), v.clone());
                    changed = true;
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::build_cfg;
    use crate::lexer::lex;

    /// Reaching-taint toy lattice: a local is tainted once `poison` is
    /// assigned to it, cleared when `scrub(x)` runs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum T {
        Clean,
        Tainted,
    }
    impl Lattice for T {
        fn join_from(&mut self, other: &Self) -> bool {
            if *self == T::Clean && *other == T::Tainted {
                *self = T::Tainted;
                true
            } else {
                false
            }
        }
    }

    fn run(
        src: &str,
    ) -> (
        Vec<crate::lexer::Token>,
        crate::cfg::Cfg,
        Vec<Option<JoinMap<T>>>,
    ) {
        let lexed = lex(src);
        let items = crate::items::parse_items(&lexed.tokens);
        let body = items.fns[0].body.expect("fn body");
        let cfg = build_cfg(&lexed.tokens, body);
        let toks = lexed.tokens.clone();
        let entries = solve(&cfg, JoinMap::default(), |s, env| {
            let t: Vec<&str> = toks[s.lo..s.hi].iter().map(|t| t.text.as_str()).collect();
            // `let x = poison ...` / `x = poison ...` taints x; `scrub(x)` clears.
            if t.first() == Some(&"let") && t.len() >= 4 && t[2] == "=" {
                let v = if t.contains(&"poison") {
                    T::Tainted
                } else {
                    T::Clean
                };
                env.0.insert(t[1].to_string(), v);
            } else if t.len() >= 3 && t[1] == "=" {
                let v = if t.contains(&"poison") {
                    T::Tainted
                } else {
                    T::Clean
                };
                env.0.insert(t[0].to_string(), v);
            } else if t.first() == Some(&"scrub") && t.len() >= 4 {
                env.0.insert(t[2].to_string(), T::Clean);
            }
        });
        (lexed.tokens, cfg, entries)
    }

    /// Entry state of the block containing the `sink(...)` call.
    fn state_at_sink(
        toks: &[crate::lexer::Token],
        cfg: &crate::cfg::Cfg,
        entries: &[Option<JoinMap<T>>],
        var: &str,
    ) -> Option<T> {
        for (i, b) in cfg.blocks.iter().enumerate() {
            for s in &b.stmts {
                if toks[s.lo..s.hi].iter().any(|t| t.is_ident("sink")) {
                    return entries[i].as_ref().and_then(|e| e.0.get(var).copied());
                }
            }
        }
        panic!("no sink in fixture");
    }

    #[test]
    fn straight_line_kill_reaches_fixpoint() {
        // The sink sits behind a branch so its block's *entry* state
        // reflects the straight-line gen-then-kill sequence before it.
        let (toks, cfg, entries) =
            run("fn f(c: bool) { let x = poison; scrub(x); if c { sink(x); } }");
        assert_eq!(state_at_sink(&toks, &cfg, &entries, "x"), Some(T::Clean));
    }

    #[test]
    fn branch_join_is_the_union() {
        // Tainted on one path, scrubbed on the other: the join must be
        // Tainted (may-analysis).
        let (toks, cfg, entries) =
            run("fn f(c: bool) { let x = poison; if c { scrub(x); } else { other(); } sink(x); }");
        assert_eq!(state_at_sink(&toks, &cfg, &entries, "x"), Some(T::Tainted));
    }

    #[test]
    fn kill_on_both_branches_clears() {
        let (toks, cfg, entries) =
            run("fn f(c: bool) { let x = poison; if c { scrub(x); } else { scrub(x); } sink(x); }");
        assert_eq!(state_at_sink(&toks, &cfg, &entries, "x"), Some(T::Clean));
    }

    #[test]
    fn loop_back_edge_propagates_taint() {
        // x starts clean, is poisoned inside the loop: the loop head's
        // fixpoint (and thus the sink after a later iteration's body)
        // must see the taint flowing around the back edge.
        let (toks, cfg, entries) =
            run("fn f() { let x = fine; loop { sink(x); x = poison; if done() { break; } } }");
        assert_eq!(state_at_sink(&toks, &cfg, &entries, "x"), Some(T::Tainted));
    }

    #[test]
    fn unreachable_blocks_stay_none() {
        let lexed = lex("fn f() { return; sink(x); }");
        let items = crate::items::parse_items(&lexed.tokens);
        let cfg = build_cfg(&lexed.tokens, items.fns[0].body.unwrap());
        let entries = solve(&cfg, JoinMap::<T>::default(), |_, _| {});
        let toks = &lexed.tokens;
        for (i, b) in cfg.blocks.iter().enumerate() {
            for s in &b.stmts {
                if toks[s.lo..s.hi].iter().any(|t| t.is_ident("sink")) {
                    assert!(entries[i].is_none(), "dead code is not analyzed");
                }
            }
        }
    }
}
