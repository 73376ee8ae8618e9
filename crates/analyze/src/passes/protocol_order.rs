//! `protocol-order` — declarative happens-before rules over the
//! settlement protocol.
//!
//! PR 5 established two ordering disciplines by convention: the
//! settlement decision is covered by a journal barrier before the
//! ticket is resolved (WAL-before-ack), and the order/nonce binding is WAL'd before the
//! confirmation challenge is registered for issuance
//! (WAL-before-challenge). This pass turns both from convention into
//! machine-checked rule, driven by `scripts/authz_spec.json`.
//!
//! Each rule names a *before* event (a call placed on a resolved fn,
//! optionally constrained by an ident in its arguments), an *after*
//! event (a call that may reach a resolved fn, optionally constrained by
//! a receiver-chain ident), and an optional *guard* ident whose
//! appearance in a branch condition discharges the obligation (the
//! volatile no-journal mode is entered through a `if let Some(journal)`
//! check, which is exactly the discharge the spec encodes).
//!
//! The engine is the same must-analysis substrate as
//! [`crate::passes::authz_flow`] ([`crate::passes::flow::must_walk`]): two state bits
//! {BEFORE, GUARD} joined by intersection, so an obligation counts as
//! met only when met on *every* path into the after-site; loop
//! back-edges correctly erase bits that do not hold around the cycle. A
//! *performer closure* lifts the rule across the call graph: a function
//! that contains a before-event and discharges the rule (BEFORE or
//! GUARD) on every exit that returns normally becomes a before-event
//! itself, to convergence ([`WorkspaceIndex::lift`]) — `Batch::commit`
//! syncs or is in no-journal mode, so the worker's call to it performs
//! the barrier before any reply. Only
//! *placed* calls perform; an after-event is matched on every fn a call
//! may reach. Functions containing no
//! before-event at all are skipped entirely — a recovery path that never
//! journals is not *violating* the ordering, it is outside the protocol
//! segment the rule describes.

use std::collections::BTreeMap;

use crate::graph::{chain_start, WorkspaceIndex};
use crate::lexer::Token;
use crate::passes::flow::{calls_in, must_walk, range_has_ident};
use crate::passes::{Finding, Pass};
use crate::spec::{AuthzSpec, OrderRule};

/// The before-event happened on every path here.
const BEFORE: u32 = 1;
/// A guard-ident branch check dominates this point.
const GUARD: u32 = 2;

/// The pass (see module docs).
pub struct ProtocolOrder;

impl Pass for ProtocolOrder {
    fn id(&self) -> &'static str {
        "protocol-order"
    }

    fn description(&self) -> &'static str {
        "happens-before protocol rules (WAL-before-ack, WAL-before-challenge) hold on every path"
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        analyze(ws, crate::spec::embedded()).0
    }
}

/// One rule over the workspace: which fns perform its before-event.
struct Rule<'a> {
    ws: &'a WorkspaceIndex,
    rule: &'a OrderRule,
    performers: Vec<bool>,
}

impl<'a> Rule<'a> {
    fn new(ws: &'a WorkspaceIndex, spec: &AuthzSpec, rule: &'a OrderRule) -> Rule<'a> {
        let mut r = Rule {
            ws,
            rule,
            performers: vec![false; ws.fns.len()],
        };
        let domain: Vec<usize> = (0..ws.fns.len())
            .filter(|&i| spec.analyzable(ws, i))
            .collect();
        ws.lift(domain, |idx| {
            let grew = !r.performers[idx]
                && r.aware(idx)
                && must_walk(ws, idx, |t, k, h| r.event(idx, t, k, h), |_, _| {}) != 0;
            r.performers[idx] |= grew;
            grew
        });
        r
    }

    /// Is call `k` of fn `idx` a before-event (direct, or a placed
    /// performer)?
    fn is_before(&self, idx: usize, k: usize) -> bool {
        let call = &self.ws.fn_item(idx).calls[k];
        let toks = &self.ws.files[self.ws.fns[idx].file].tokens;
        self.ws.calls[idx][k].resolved().iter().any(|&t| {
            self.performers[t]
                || self.ws.paths[t] == self.rule.before
                    && self
                        .rule
                        .before_ident
                        .as_ref()
                        .is_none_or(|id| range_has_ident(toks, call.args.0, call.args.1, id))
        })
    }

    /// Is call `k` of fn `idx` an after-event?
    fn is_after(&self, idx: usize, k: usize) -> bool {
        let call = &self.ws.fn_item(idx).calls[k];
        let toks = &self.ws.files[self.ws.fns[idx].file].tokens;
        self.ws.calls[idx][k]
            .targets()
            .iter()
            .any(|&t| self.ws.paths[t] == self.rule.after)
            && self.rule.after_recv.as_ref().is_none_or(|r| {
                call.is_method
                    && range_has_ident(toks, chain_start(toks, call.tok - 1), call.tok, r)
            })
    }

    /// Does the fn contain a before-event at all? Rules only apply
    /// inside the protocol segment that performs the before-event;
    /// unrelated code (recovery, accessors) is out of the rule's domain.
    fn aware(&self, idx: usize) -> bool {
        (0..self.ws.calls[idx].len()).any(|k| self.is_before(idx, k))
    }

    /// The bits one token of fn `idx` sets: a before-event call, and
    /// the guard ident in a branch condition. Merges clear them.
    fn event(&self, idx: usize, tok: &Token, call: Option<usize>, head: bool) -> u32 {
        let before = call.is_some_and(|k| self.is_before(idx, k));
        let guard = head && (self.rule.guard_ident.as_ref()).is_some_and(|g| tok.is_ident(g));
        (u32::from(before) * BEFORE) | (u32::from(guard) * GUARD)
    }
}

/// Runs the pass over the workspace: findings, and the after-event
/// sites checked per rule (the report's `order_sites`).
pub(crate) fn analyze(
    ws: &WorkspaceIndex,
    spec: &AuthzSpec,
) -> (Vec<(usize, Finding)>, BTreeMap<String, usize>) {
    let mut findings = Vec::new();
    let mut sites = BTreeMap::new();
    for rule in &spec.order {
        let r = Rule::new(ws, spec, rule);
        let mut n = 0;
        for idx in 0..ws.fns.len() {
            if !spec.analyzable(ws, idx) || !r.aware(idx) {
                continue;
            }
            let item = ws.fn_item(idx);
            must_walk(
                ws,
                idx,
                |t, k, h| r.event(idx, t, k, h),
                |s, held| {
                    for (k, call) in calls_in(item, s) {
                        if !r.is_after(idx, k) {
                            continue;
                        }
                        n += 1;
                        if held & (BEFORE | GUARD) == 0 {
                            let name = |p: &str| p.rsplit("::").next().unwrap_or(p).to_string();
                            findings.push((
                                ws.fns[idx].file,
                                Finding::deny(
                                    call.line,
                                    format!(
                                        "`{}` here can run before `{}` on some path through \
                                         `{}`: {} (protocol-order rule `{}`; see \
                                         scripts/authz_spec.json)",
                                        name(&rule.after),
                                        name(&rule.before),
                                        item.name,
                                        rule.describe,
                                        rule.rule,
                                    ),
                                ),
                            ));
                        }
                    }
                },
            );
        }
        sites.insert(rule.rule.clone(), n);
    }
    (findings, sites)
}
