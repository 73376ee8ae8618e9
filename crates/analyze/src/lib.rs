//! `utp-analyze` — workspace-wide TCB / constant-time / panic-freedom
//! static analyzer for the UTP reproduction.
//!
//! The paper's central claim is a *minimal, auditable* trusted computing
//! base: the confirmation PAL plus the TPM driver. This crate machine-
//! checks the discipline that claim rests on, in the spirit of the
//! automated-verification line of work around DRTM protocols.
//!
//! Passes, by lint id (each id works in allow annotations and `--pass`):
//!
//! * `tcb-boundary` / `tcb-reachability` ([`passes::tcb`]) — TCB
//!   files import only allowlisted crates, and everything the PAL entry
//!   points reach lies in the declared TCB allowlist; both read one
//!   table keyed by crate ([`report::TRUST`]), and the closure is
//!   measured into a TCB-size report ([`report`]);
//! * `no-panic-in-tcb` / `no-panic-transitive` ([`passes::no_panic`])
//!   — no abort path in TCB code or in anything it reaches, from one
//!   panic-site list;
//! * [`passes::ct_discipline`] — secret comparisons, branches and
//!   indices go through `ct_eq`/`ct_select`;
//! * [`passes::secret_taint`] — key material must not flow to
//!   Debug/logging/wire sinks;
//! * [`passes::lock_discipline`] — consistent lock order, no guard held
//!   across blocking channel ops;
//! * [`passes::untrusted_arith`] — length/offset values decoded from
//!   wire or WAL bytes must pass a bounds check before feeding
//!   arithmetic, indexing, or a narrowing cast;
//! * [`passes::authz_flow`] — settlement sinks (store settle, `Settle`
//!   journal records, Confirmed audit decisions, `Receipt`
//!   construction, status demotion) must be dominated by their
//!   authorization sources on every path, against the policy in
//!   `scripts/authz_spec.json` ([`spec`]);
//! * [`passes::protocol_order`] — declarative happens-before rules
//!   (WAL-before-ack, WAL-before-challenge) hold on every path.
//!
//! What the toolchain can check is left to it: the workspace lint table
//! in `Cargo.toml` forbids `unsafe_code` in every package, and
//! `clippy.toml` keeps the host clock out of the model.
//!
//! The interprocedural passes read one call resolver ([`graph`]), which
//! places every call site on the fns it names — or reports it foreign or
//! unknown — and lift per-fn summaries over its call graph with one
//! worklist ([`graph::WorkspaceIndex::lift`]); the flow-sensitive ones
//! run over statement-level CFGs ([`cfg`](mod@cfg)) with a worklist
//! fixpoint solver ([`dataflow`]).
//! `secret-taint`, `ct-discipline` and `untrusted-arith` are tables over
//! one taint engine ([`taint`]).
//!
//! Violations that are individually justified carry an inline
//! `// utp-analyze: allow(<lint>) <reason>` annotation; the reason is
//! mandatory and annotations that suppress nothing are flagged, so the
//! set of waivers cannot silently rot.
//!
//! The analyzer is dependency-light on purpose: a hand-rolled lexer
//! ([`lexer`]) rather than `syn`, no regex, and JSON read and escaped
//! by the workspace's own `utp_obs::json`. It runs in the test suite
//! ([`analyze_workspace`] from `tests/static_analysis.rs` at the
//! workspace root) so `cargo test` fails on any new deny-level finding.

#![forbid(unsafe_code)]

pub mod cfg;
pub mod dataflow;
pub mod diag;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod source;
pub mod spec;
pub mod taint;
pub mod workspace;

use diag::{Diagnostic, Severity};
use graph::WorkspaceIndex;
use source::SourceFile;

/// The full result of an analysis run.
pub struct Analysis {
    /// Suppression-filtered diagnostics, sorted by (file, line, lint).
    pub diagnostics: Vec<Diagnostic>,
    /// Measured TCB-size report for the analyzed set.
    pub tcb_report: report::TcbReport,
    /// CFG / fixpoint statistics plus flow-pass finding counts.
    pub dataflow_report: report::DataflowReport,
    /// Authorization-spec coverage report (grant/sink/order site counts
    /// and the anchor check backing `--check-authz-spec`).
    pub authz_report: spec::AuthzReport,
}

/// Analyzes a set of files as one workspace. Paths must be
/// workspace-relative with forward slashes — pass scoping and the call
/// graph's crate mapping key off them.
pub fn analyze_files(inputs: Vec<(String, String)>) -> Analysis {
    analyze_files_filtered(inputs, None)
}

/// Like [`analyze_files`], restricted to the single pass named `only`
/// when set (the `--pass` CLI filter). Suppressions for lints whose
/// pass did not run are left alone — a filtered run must not flag
/// another pass's waivers as unused.
pub fn analyze_files_filtered(inputs: Vec<(String, String)>, only: Option<&str>) -> Analysis {
    let files: Vec<SourceFile> = inputs
        .iter()
        .map(|(path, text)| SourceFile::parse(path, text))
        .collect();
    let ws = WorkspaceIndex::build(files);
    // Malformed-allow keeps judging against the FULL lint universe even
    // under --pass; only the findings and unused-allow checks narrow.
    let known_lints: Vec<&str> = passes::registry().iter().map(|p| p.id()).collect();
    let registry: Vec<Box<dyn passes::Pass>> = passes::registry()
        .into_iter()
        .filter(|p| only.is_none_or(|name| p.id() == name))
        .collect();
    let ran_lints: Vec<&str> = registry.iter().map(|p| p.id()).collect();

    // (file index, lint, finding), before suppression filtering.
    let mut raw: Vec<(usize, &'static str, passes::Finding)> = Vec::new();
    for pass in &registry {
        for (fi, file) in ws.files.iter().enumerate() {
            for finding in pass.check(file) {
                raw.push((fi, pass.id(), finding));
            }
        }
        for (fi, finding) in pass.check_workspace(&ws) {
            raw.push((fi, pass.id(), finding));
        }
    }

    let mut used: Vec<Vec<bool>> = ws
        .files
        .iter()
        .map(|f| vec![false; f.suppressions.len()])
        .collect();
    let mut diags = Vec::new();
    for (fi, lint, finding) in raw {
        let file = &ws.files[fi];
        let mut suppressed = false;
        for (si, s) in file.suppressions.iter().enumerate() {
            if s.lint == lint && file.suppression_covers(si, finding.line) {
                used[fi][si] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            diags.push(Diagnostic {
                file: file.path.clone(),
                line: finding.line,
                lint,
                severity: finding.severity,
                message: finding.message,
            });
        }
    }

    for (fi, file) in ws.files.iter().enumerate() {
        for bad in &file.bad_annotations {
            diags.push(Diagnostic {
                file: file.path.clone(),
                line: bad.line,
                lint: "malformed-allow",
                severity: Severity::Deny,
                message: bad.problem.clone(),
            });
        }
        for (si, s) in file.suppressions.iter().enumerate() {
            if !known_lints.contains(&s.lint.as_str()) {
                diags.push(Diagnostic {
                    file: file.path.clone(),
                    line: s.line,
                    lint: "malformed-allow",
                    severity: Severity::Deny,
                    message: format!(
                        "allow({}) names an unknown lint (known: {})",
                        s.lint,
                        known_lints.join(", ")
                    ),
                });
            } else if !used[fi][si] && ran_lints.contains(&s.lint.as_str()) {
                diags.push(Diagnostic {
                    file: file.path.clone(),
                    line: s.line,
                    lint: "unused-allow",
                    severity: Severity::Warn,
                    message: format!(
                        "allow({}) suppresses nothing here; remove it so the waiver list \
                         stays honest",
                        s.lint
                    ),
                });
            }
        }
    }

    diag::sort_canonical(&mut diags);
    let tcb_report = report::measure(&ws);
    let dataflow_report = report::measure_dataflow(&ws, &diags);
    let authz_report = measure_authz(&ws, &diags);
    Analysis {
        diagnostics: diags,
        tcb_report,
        dataflow_report,
        authz_report,
    }
}

/// Builds the authorization-spec coverage report against the embedded
/// spec (site counts, post-suppression findings, anchor check).
fn measure_authz(ws: &WorkspaceIndex, diags: &[Diagnostic]) -> spec::AuthzReport {
    let authz = spec::embedded();
    let (scope_files, functions, grant_sites, sink_sites) =
        passes::authz_flow::site_counts(ws, authz);
    spec::AuthzReport {
        scope_files,
        functions,
        grant_sites,
        sink_sites,
        order_sites: passes::protocol_order::analyze(ws, authz).1,
        findings: diags
            .iter()
            .filter(|d| d.lint == "authorization-flow" || d.lint == "protocol-order")
            .count(),
        missing_anchors: spec::missing_anchors(ws, authz),
    }
}

/// Analyzes one file's source text (interprocedural passes see a
/// one-file workspace). `path` must be workspace-relative with forward
/// slashes.
pub fn analyze_source(path: &str, text: &str) -> Vec<Diagnostic> {
    analyze_files(vec![(path.to_string(), text.to_string())]).diagnostics
}

/// Analyzes every `.rs` file under `root` (see [`workspace::collect_rs_files`]
/// for the walk rules).
pub fn analyze_workspace(root: &std::path::Path) -> std::io::Result<Analysis> {
    analyze_workspace_filtered(root, None)
}

/// Like [`analyze_workspace`], restricted to the single pass named
/// `only` when set.
pub fn analyze_workspace_filtered(
    root: &std::path::Path,
    only: Option<&str>,
) -> std::io::Result<Analysis> {
    let mut inputs = Vec::new();
    for (rel, abs) in workspace::collect_rs_files(root)? {
        inputs.push((rel, std::fs::read_to_string(&abs)?));
    }
    Ok(analyze_files_filtered(inputs, only))
}

/// Count of deny-level diagnostics (what gates the exit code).
pub fn deny_count(diags: &[Diagnostic]) -> usize {
    diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count()
}
