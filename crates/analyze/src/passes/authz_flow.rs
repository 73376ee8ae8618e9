//! `authorization-flow` — settlement sinks must be *dominated* by
//! authorization sources.
//!
//! The paper's core guarantee is that a transaction settles only when
//! confirmation evidence has been verified end-to-end. This pass proves
//! the static shadow of that property: every path from a function's
//! entry to a settlement sink (settling the store, journaling a
//! `Settle` decision, recording a Confirmed audit outcome, constructing
//! a `Receipt`, demoting an order's status) must first pass through a
//! capability-granting authorization source (the evidence check, the
//! quote-chain check, nonce settlement, the evidence-order binding
//! pre-check, a `Confirmed`-status branch check).
//!
//! Mechanics: a *must*-analysis over the statement CFG
//! ([`crate::passes::flow::must_walk`]). The state is a bit-set of held capabilities;
//! the join is set *intersection*, so a capability survives a merge
//! point only when every incoming path granted it — exactly "the sink
//! is dominated by a source". Sources, sinks and callers are matched on
//! the resolver's placement of each call ([`crate::graph`]), never by
//! name. Two call-graph liftings make the analysis interprocedural:
//!
//! * **granting-set closure** — a function becomes a source itself for
//!   the capabilities it holds on every exit that returns normally
//!   (`?` and `return Err(..)` exits do not count against it), to
//!   convergence ([`WorkspaceIndex::lift`]). So the spec declares only
//!   the primitives, and `check_evidence`, `Settler::settle_evidence`
//!   and `Batch::settle` grant because they run them. A call grants
//!   only when it is *placed*: an unknown call grants nothing.
//!   Guard-only capabilities (`confirmed-checked`) stay in the fn that
//!   branched;
//! * **caller-context** — a sink missing capabilities locally is
//!   accepted when *every* live in-scope caller establishes the missing
//!   capabilities before *every* call site (recursively, to a bounded
//!   depth). A sink with no callers at all is an entry point and is
//!   denied.
//!
//! A sink call is matched on every fn it may reach, so an unknown call
//! that could be a sink is checked as one. One grant is declared, not
//! derived: `VerifierService::submit_evidence_for_order` grants what
//! the worker's `Batch::settle` proves, because that proof crosses
//! the worker channel, which no call edge follows.
//!
//! Soundness caveats (see DESIGN.md): grants are polarity-insensitive
//! (an `if` condition containing a source grants both branches — so is
//! a granting call whose `Err` the caller handles), and fallback CFGs
//! are treated as straight-line. Both err toward *missing* violations,
//! never toward false positives.
//!
//! Policy lives in `scripts/authz_spec.json` ([`crate::spec`]); this
//! file is mechanism only.

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{Role, Stmt};
use crate::graph::{chain_start, Resolution, WorkspaceIndex};
use crate::items::matching;
use crate::lexer::Token;
use crate::passes::flow::{calls_in, must_walk, range_has_ident};
use crate::passes::{Finding, Pass};
use crate::spec::{AuthzSpec, SinkKind, SinkSpec};

/// Caller-context recursion bound.
const MAX_CALLER_DEPTH: usize = 3;

/// The pass (see module docs).
pub struct AuthzFlow;

impl Pass for AuthzFlow {
    fn id(&self) -> &'static str {
        "authorization-flow"
    }

    fn description(&self) -> &'static str {
        "settlement sinks must be dominated by verify / order-binding / nonce authorization sources"
    }

    fn check_workspace(&self, ws: &WorkspaceIndex) -> Vec<(usize, Finding)> {
        analyze(ws, crate::spec::embedded())
    }
}

/// Everything the transfer function needs, resolved once per run.
struct Env<'a> {
    ws: &'a WorkspaceIndex,
    spec: &'a AuthzSpec,
    caps: Vec<&'a str>,
    /// Capabilities each fn grants its callers: spec sources by path,
    /// then wrappers derived by the closure.
    grants: Vec<u32>,
    /// Fns a call sink names: their bodies are mechanism, not policy
    /// violations (`Store::settle` asserting `try_settle`), and a sink
    /// never launders into a source.
    sink_fns: Vec<bool>,
}

impl<'a> Env<'a> {
    fn new(ws: &'a WorkspaceIndex, spec: &'a AuthzSpec) -> Env<'a> {
        let mut env = Env {
            ws,
            spec,
            caps: spec.capabilities(),
            grants: vec![0; ws.fns.len()],
            sink_fns: vec![false; ws.fns.len()],
        };
        for (i, path) in ws.paths.iter().enumerate() {
            for s in spec.sources.iter().filter(|s| s.call == *path) {
                env.grants[i] |= env.bits(&s.grants);
            }
            env.sink_fns[i] = spec
                .sinks
                .iter()
                .any(|s| s.kind == SinkKind::Call && s.target == *path);
        }
        // A guard is a fact about the caller's own state (a status it
        // branched on), not something a callee leaves behind: the
        // closure does not carry guard-only capabilities out of a fn.
        let fold = |names: Vec<&Vec<String>>| names.into_iter().fold(0, |acc, n| acc | env.bits(n));
        let local = fold(spec.guards.iter().map(|g| &g.grants).collect())
            & !fold(spec.sources.iter().map(|s| &s.grants).collect());
        let wrappers: Vec<usize> = (0..ws.fns.len())
            .filter(|&i| spec.analyzable(ws, i) && !env.sink_fns[i])
            .collect();
        ws.lift(wrappers, |idx| {
            let held = must_walk(ws, idx, |t, k, h| env.grant(idx, t, k, h), |_, _| {}) & !local;
            let grew = held & !env.grants[idx] != 0;
            env.grants[idx] |= held;
            grew
        });
        env
    }

    fn bits(&self, names: &[String]) -> u32 {
        names
            .iter()
            .fold(0, |acc, n| acc | self.spec.cap_bit(&self.caps, n))
    }

    fn cap_names(&self, bits: u32) -> Vec<&str> {
        self.caps
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect()
    }

    /// What a call grants: what every fn it is placed on grants.
    fn call_grants(&self, res: &Resolution) -> u32 {
        match res.resolved() {
            [] => 0,
            fns => fns.iter().fold(u32::MAX, |acc, &f| acc & self.grants[f]),
        }
    }

    /// What one token of fn `idx` grants: a placed call, or a guard
    /// ident in a branch condition. Statements only *add* capabilities.
    fn grant(&self, idx: usize, tok: &Token, call: Option<usize>, head: bool) -> u32 {
        let call = call.map_or(0, |k| self.call_grants(&self.ws.calls[idx][k]));
        let guards = (self.spec.guards.iter()).filter(|g| head && tok.is_ident(&g.ident));
        guards.fold(call, |acc, g| acc | self.bits(&g.grants))
    }

    /// Does the type the resolver gives the expression `toks[lo..hi]`
    /// (plus `field`) match `target`? The caller matched the name; an
    /// expression the resolver cannot place counts, so a sink errs
    /// toward a finding.
    fn type_matches(&self, idx: usize, lo: usize, hi: usize, field: &str, target: &str) -> bool {
        match self.ws.expr_type(idx, lo, hi) {
            Some(ty) if ty.placed() => format!("{}{field}", self.ws.type_path(&ty)) == target,
            Some(ty) if ty.krate.is_none() => false,
            _ => true,
        }
    }

    /// Sink sites inside statement `s` of fn `idx`.
    fn sink_hits(&self, idx: usize, s: &Stmt) -> Vec<(&'a SinkSpec, u32)> {
        let ws = self.ws;
        let toks = &ws.files[ws.fns[idx].file].tokens;
        let with = |sink: &SinkSpec, lo: usize, hi: usize| {
            sink.with_ident
                .as_ref()
                .is_none_or(|w| range_has_ident(toks, lo, hi, w))
        };
        let mut hits = Vec::new();
        for sink in &self.spec.sinks {
            let name = sink.target.rsplit("::").next().unwrap_or(&sink.target);
            match sink.kind {
                SinkKind::Call => {
                    for (k, call) in calls_in(ws.fn_item(idx), s) {
                        let reaches = ws.calls[idx][k]
                            .targets()
                            .iter()
                            .any(|&t| ws.paths[t] == sink.target);
                        if reaches && with(sink, call.args.0, call.args.1) {
                            hits.push((sink, call.line));
                        }
                    }
                }
                // `Target { .. }` construction; arm *patterns* are
                // destructuring, and `Enum::Variant { .. }` is neither.
                SinkKind::Struct if s.role != Role::MatchArm => {
                    for i in s.lo..s.hi.min(toks.len() - 1) {
                        if toks[i].is_ident(name)
                            && toks[i + 1].is_punct("{")
                            && !toks[i - 1].is_punct("::")
                        {
                            let close = matching(toks, i + 1, "{", "}").unwrap_or(i + 1);
                            if self.type_matches(idx, i, close + 1, "", &sink.target) {
                                hits.push((sink, toks[i].line));
                            }
                        }
                    }
                }
                SinkKind::Struct => {}
                // `owner.field = ..` on the sink's type.
                SinkKind::Write => {
                    for i in s.lo + 1..s.hi.min(toks.len() - 1) {
                        if toks[i].is_ident(name)
                            && toks[i - 1].is_punct(".")
                            && toks[i + 1].is_punct("=")
                            && with(sink, i + 2, s.hi)
                        {
                            let owner = chain_start(toks, i - 1);
                            let field = format!("::{name}");
                            if self.type_matches(idx, owner, i - 1, &field, &sink.target) {
                                hits.push((sink, toks[i].line));
                            }
                        }
                    }
                }
            }
        }
        hits
    }

    /// Pre-states at every call site in fn `caller` that may reach
    /// `target` (unreachable sites are skipped — they cannot execute).
    fn call_pre_states(&self, caller: usize, target: usize) -> Vec<u32> {
        let mut out = Vec::new();
        let item = self.ws.fn_item(caller);
        must_walk(
            self.ws,
            caller,
            |t, k, h| self.grant(caller, t, k, h),
            |s, held| {
                for (k, _) in calls_in(item, s) {
                    if self.ws.calls[caller][k].targets().contains(&target) {
                        out.push(held);
                    }
                }
            },
        );
        out
    }

    /// Does every live in-scope caller of `target` establish what is
    /// still missing — every capability of `all`, and one of `any` when
    /// `any` is set — before every call site (to a bounded depth)?
    fn callers_establish(
        &self,
        target: usize,
        (all, any): (u32, u32),
        depth: usize,
        visiting: &mut BTreeSet<usize>,
    ) -> bool {
        if depth == 0 || !visiting.insert(target) {
            return false;
        }
        let callers: Vec<usize> = (0..self.ws.fns.len())
            .filter(|&i| {
                i != target
                    && self.spec.analyzable(self.ws, i)
                    && self.ws.callees[i].binary_search(&target).is_ok()
            })
            .collect();
        let ok = !callers.is_empty()
            && callers.into_iter().all(|c| {
                self.call_pre_states(c, target).into_iter().all(|st| {
                    let still = (all & !st, if any & st != 0 { 0 } else { any });
                    still == (0, 0) || self.callers_establish(c, still, depth - 1, visiting)
                })
            });
        visiting.remove(&target);
        ok
    }
}

/// Runs the pass over the workspace.
pub(crate) fn analyze(ws: &WorkspaceIndex, spec: &AuthzSpec) -> Vec<(usize, Finding)> {
    let env = Env::new(ws, spec);
    let mut findings = Vec::new();
    for idx in 0..ws.fns.len() {
        if !spec.analyzable(ws, idx) || env.sink_fns[idx] {
            continue;
        }
        let name = &ws.fn_item(idx).name;
        must_walk(
            ws,
            idx,
            |t, k, h| env.grant(idx, t, k, h),
            |s, held| {
                for (sink, line) in env.sink_hits(idx, s) {
                    let any = env.bits(&sink.requires_any);
                    let need = (
                        env.bits(&sink.requires) & !held,
                        if any & held != 0 { 0 } else { any },
                    );
                    let missing = need.0 | need.1;
                    if missing != 0
                        && !env.callers_establish(idx, need, MAX_CALLER_DEPTH, &mut BTreeSet::new())
                    {
                        findings.push((
                            ws.fns[idx].file,
                            Finding::deny(
                                line,
                                format!(
                                    "{} in `{name}` is not dominated by its authorization \
                                     source(s): [{}] missing on at least one path from the \
                                     function entry (and no caller context supplies it); \
                                     settlement sinks must be preceded by their sources on \
                                     every path — see scripts/authz_spec.json",
                                    sink.describe,
                                    env.cap_names(missing).join(", "),
                                ),
                            ),
                        ));
                    }
                }
            },
        );
    }
    findings
}

/// Report helper: `(scope files, live functions analyzed, grant sites
/// per source path, sink sites per sink name)`.
pub(crate) fn site_counts(
    ws: &WorkspaceIndex,
    spec: &AuthzSpec,
) -> (
    usize,
    usize,
    BTreeMap<String, usize>,
    BTreeMap<String, usize>,
) {
    let env = Env::new(ws, spec);
    let files = (0..ws.files.len())
        .filter(|&fi| ws.metas[fi].is_src_ctx && spec.in_scope(&ws.files[fi].path))
        .count();
    let mut grants: BTreeMap<String, usize> =
        spec.sources.iter().map(|s| (s.call.clone(), 0)).collect();
    let mut sinks: BTreeMap<String, usize> =
        spec.sinks.iter().map(|s| (s.name.clone(), 0)).collect();
    let mut functions = 0;
    for idx in (0..ws.fns.len()).filter(|&i| spec.analyzable(ws, i)) {
        functions += 1;
        for res in &ws.calls[idx] {
            for &t in res.resolved() {
                if let Some(n) = grants.get_mut(&ws.paths[t]) {
                    *n += 1;
                }
            }
        }
        if !env.sink_fns[idx] {
            must_walk(
                ws,
                idx,
                |_, _, _| 0,
                |s, _| {
                    for (sink, _) in env.sink_hits(idx, s) {
                        *sinks.entry(sink.name.clone()).or_default() += 1;
                    }
                },
            );
        }
    }
    (files, functions, grants, sinks)
}
