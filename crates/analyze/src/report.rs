//! Measured TCB-size report: what is *actually reachable* from the PAL
//! entry points, per category and per crate, in functions and lines.
//!
//! This is the machine-checked version of the paper's TCB-size
//! evaluation. The categories mirror the trust argument:
//!
//! - `pal` / `session-runtime` / `protocol` — the **measured TCB**: the
//!   code whose hash ends up in PCR 17 (PAL) plus the session runtime
//!   and wire codec it depends on. This is the number the paper reports.
//! - `tpm-model` / `crypto` / `hardware-model` / `substrate` — trusted
//!   by assumption (hardware TPM, vetted crypto, the simulated machine
//!   and its deterministic-RNG shim); reported separately.
//! - `verifier-spill` — verifier-side files that enter the closure only
//!   through the call graph's conservative name-based method resolution
//!   (e.g. every importable `to_bytes` impl). Listed so the
//!   over-approximation is visible, not counted as TCB.
//!
//! Any reachable function in a file with *no* declared category is a
//! deny-level `tcb-reachability` finding.

use std::collections::BTreeMap;

use utp_obs::json::Json;

use crate::graph::WorkspaceIndex;

/// Growth allowance (percent) before the baseline check fails.
pub const MAX_GROWTH_PCT: usize = 10;

/// Categories counted as the measured TCB.
const MEASURED: &[&str] = &["pal", "session-runtime", "protocol"];

/// Declared category for a file, or `None` if reachable code there is a
/// finding. Keep this list reviewable: every entry is a trust claim.
pub fn declared_category(path: &str) -> Option<&'static str> {
    match path {
        "crates/core/src/pal.rs" | "crates/flicker/src/pal.rs" => Some("pal"),
        "crates/core/src/protocol.rs" | "crates/core/src/error.rs" => Some("protocol"),
        // Pulled in only by conservative method-name resolution from PAL
        // `to_bytes` / `from_bytes` call sites. Nothing in `verifier.rs`
        // or `ca.rs` runs inside a session. The extension PALs do:
        // `BatchPal::invoke` and `AmortizedPal::{handle_setup,
        // handle_confirm}` run in their sessions, but their dialogue is
        // `core/pal.rs`'s `confirm_dialogue`; only their input parsing
        // and key setup stay here, outside `is_tcb_path`.
        "crates/core/src/verifier.rs"
        | "crates/core/src/ca.rs"
        | "crates/core/src/amortized.rs"
        | "crates/core/src/batch.rs" => Some("verifier-spill"),
        _ if path.starts_with("crates/flicker/src/") => Some("session-runtime"),
        _ if path.starts_with("crates/tpm/src/") => Some("tpm-model"),
        _ if path.starts_with("crates/crypto/src/") => Some("crypto"),
        _ if path.starts_with("crates/platform/src/") => Some("hardware-model"),
        _ if path.starts_with("shims/") => Some("substrate"),
        _ => None,
    }
}

/// Per-category (or per-crate) tallies.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stats {
    /// Reachable functions.
    pub functions: usize,
    /// Lines covered by those functions' spans.
    pub loc: usize,
}

/// The measured TCB-size report.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TcbReport {
    /// TCB entry-point functions (everything defined in TCB files).
    pub entry_points: usize,
    /// All functions reachable from the entry points.
    pub reachable_functions: usize,
    /// Lines covered by all reachable functions.
    pub reachable_loc: usize,
    /// The measured-TCB subtotal (pal + session-runtime + protocol).
    pub measured: Stats,
    /// Reachable code per declared category.
    pub by_category: BTreeMap<String, Stats>,
    /// Reachable code per crate.
    pub by_crate: BTreeMap<String, Stats>,
    /// Reachable functions in files with no declared category (each is
    /// also a deny-level finding).
    pub undeclared_reachable: usize,
}

/// Measures the report off a built workspace index.
pub fn measure(ws: &WorkspaceIndex) -> TcbReport {
    let mut report = TcbReport::default();
    for idx in 0..ws.fns.len() {
        if !ws.reach.reachable[idx] || !ws.is_live_fn(idx) {
            continue;
        }
        let item = ws.fn_item(idx);
        let path = ws.fn_path(idx);
        let loc = (item.end_line - item.start_line + 1) as usize;
        if crate::passes::is_tcb_path(path) {
            report.entry_points += 1;
        }
        report.reachable_functions += 1;
        report.reachable_loc += loc;
        let category = declared_category(path).unwrap_or("UNDECLARED");
        if category == "UNDECLARED" {
            report.undeclared_reachable += 1;
        }
        let c = report.by_category.entry(category.to_string()).or_default();
        c.functions += 1;
        c.loc += loc;
        let node = ws.fns[idx];
        let k = report
            .by_crate
            .entry(ws.metas[node.file].crate_alias.clone())
            .or_default();
        k.functions += 1;
        k.loc += loc;
        if MEASURED.contains(&category) {
            report.measured.functions += 1;
            report.measured.loc += loc;
        }
    }
    report
}

impl TcbReport {
    /// Stable, hand-rolled JSON rendering (BTreeMap order, fixed keys).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"tcb_report\": {\n");
        out.push_str(&format!("    \"entry_points\": {},\n", self.entry_points));
        out.push_str(&format!(
            "    \"reachable_functions\": {},\n    \"reachable_loc\": {},\n",
            self.reachable_functions, self.reachable_loc
        ));
        out.push_str(&format!(
            "    \"measured_functions\": {},\n    \"measured_loc\": {},\n",
            self.measured.functions, self.measured.loc
        ));
        out.push_str(&format!("    \"max_growth_pct\": {},\n", MAX_GROWTH_PCT));
        out.push_str(&format!(
            "    \"undeclared_reachable\": {},\n",
            self.undeclared_reachable
        ));
        render_map(&mut out, "by_category", &self.by_category);
        out.push_str(",\n");
        render_map(&mut out, "by_crate", &self.by_crate);
        out.push_str("\n  }\n}\n");
        out
    }
}

fn render_map(out: &mut String, key: &str, map: &BTreeMap<String, Stats>) {
    out.push_str(&format!("    \"{key}\": {{"));
    for (i, (name, s)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n      \"{}\": {{\"functions\": {}, \"loc\": {}}}",
            name, s.functions, s.loc
        ));
    }
    if !map.is_empty() {
        out.push_str("\n    ");
    }
    out.push('}');
}

/// Lints whose findings are produced by the flow-sensitive engine
/// (statement-level CFGs + fixpoint solver).
const FLOW_LINTS: &[&str] = &[
    "authorization-flow",
    "ct-discipline",
    "lock-discipline",
    "protocol-order",
    "secret-taint",
    "untrusted-arith",
];

/// Statistics from the flow-sensitive engine: how much of the
/// workspace lowered into structured CFGs (vs the single-block
/// fallback) and what the flow passes found. Written to
/// `target/analyze/dataflow_report.json` by CI so coverage regressions
/// in the CFG builder are visible as a fallback-count jump.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct DataflowReport {
    /// Function bodies lowered to CFGs.
    pub functions: usize,
    /// Total basic blocks across all CFGs.
    pub blocks: usize,
    /// Total statements across all CFGs.
    pub statements: usize,
    /// Bodies where structure recovery failed and the single-block
    /// over-approximation was used (flow passes degrade to
    /// flow-insensitive behavior there).
    pub fallback_functions: usize,
    /// Post-suppression finding counts for each flow-sensitive lint.
    pub findings_by_lint: BTreeMap<String, usize>,
}

/// Measures CFG coverage and flow-pass finding counts.
pub fn measure_dataflow(ws: &WorkspaceIndex, diags: &[crate::diag::Diagnostic]) -> DataflowReport {
    let mut r = DataflowReport::default();
    for lint in FLOW_LINTS {
        r.findings_by_lint.insert(lint.to_string(), 0);
    }
    for file in &ws.files {
        for f in &file.items.fns {
            let Some(body) = f.body else { continue };
            let cfg = crate::cfg::build_cfg(&file.tokens, body);
            r.functions += 1;
            r.blocks += cfg.blocks.len();
            r.statements += cfg.stmt_count();
            if cfg.fallback {
                r.fallback_functions += 1;
            }
        }
    }
    for d in diags {
        if let Some(count) = r.findings_by_lint.get_mut(d.lint) {
            *count += 1;
        }
    }
    r
}

impl DataflowReport {
    /// Stable, hand-rolled JSON rendering (same conventions as
    /// [`TcbReport::to_json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"dataflow_report\": {\n");
        out.push_str(&format!("    \"functions\": {},\n", self.functions));
        out.push_str(&format!("    \"blocks\": {},\n", self.blocks));
        out.push_str(&format!("    \"statements\": {},\n", self.statements));
        out.push_str(&format!(
            "    \"fallback_functions\": {},\n",
            self.fallback_functions
        ));
        out.push_str("    \"findings_by_lint\": {");
        for (i, (lint, n)) in self.findings_by_lint.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n      \"{lint}\": {n}"));
        }
        if !self.findings_by_lint.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("}\n  }\n}\n");
        out
    }
}

/// Compares a freshly measured report against a checked-in baseline
/// JSON. Fails when the measured TCB grew beyond the baseline's
/// declared `max_growth_pct`, or when undeclared reachable code
/// appeared. Shrinkage is always fine (tighten the baseline when it
/// happens).
pub fn check_baseline(current: &TcbReport, baseline_json: &str) -> Result<String, String> {
    let doc =
        Json::parse(baseline_json).map_err(|e| format!("baseline JSON does not parse: {e}"))?;
    let field = |key: &str| {
        doc.get("tcb_report")
            .and_then(|r| r.get(key))
            .and_then(Json::as_u64)
            .and_then(|n| usize::try_from(n).ok())
    };
    let base_fns =
        field("measured_functions").ok_or("baseline JSON lacks \"measured_functions\"")?;
    let base_loc = field("measured_loc").ok_or("baseline JSON lacks \"measured_loc\"")?;
    let pct = field("max_growth_pct").unwrap_or(MAX_GROWTH_PCT);
    let limit_fns = base_fns + base_fns * pct / 100;
    let limit_loc = base_loc + base_loc * pct / 100;
    if current.undeclared_reachable > 0 {
        return Err(format!(
            "{} reachable function(s) outside the declared TCB allowlist",
            current.undeclared_reachable
        ));
    }
    if current.measured.functions > limit_fns || current.measured.loc > limit_loc {
        return Err(format!(
            "measured TCB grew beyond the +{pct}% threshold: \
             {} fns / {} loc now vs {base_fns} fns / {base_loc} loc at baseline \
             (limits {limit_fns} / {limit_loc}); shrink the TCB or re-baseline \
             scripts/tcb_report.json with a reviewed justification",
            current.measured.functions, current.measured.loc
        ));
    }
    Ok(format!(
        "measured TCB {} fns / {} loc within +{pct}% of baseline {base_fns} fns / {base_loc} loc",
        current.measured.functions, current.measured.loc
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    #[test]
    fn measured_report_counts_pal_and_flags_undeclared() {
        let ws = WorkspaceIndex::build(vec![
            SourceFile::parse(
                "crates/core/src/pal.rs",
                "pub fn invoke() {\n    helper();\n}\n",
            ),
            SourceFile::parse("crates/core/src/rogue.rs", "pub fn helper() {}\n"),
        ]);
        let r = measure(&ws);
        assert_eq!(r.entry_points, 1);
        assert_eq!(r.reachable_functions, 2);
        assert_eq!(r.undeclared_reachable, 1);
        assert_eq!(r.by_category.get("pal").unwrap().functions, 1);
        assert_eq!(r.by_category.get("UNDECLARED").unwrap().functions, 1);
        assert_eq!(r.measured.functions, 1);
        assert_eq!(r.measured.loc, 3);
        let json = r.to_json();
        assert!(json.contains("\"measured_functions\": 1"));
        assert!(json.contains("\"utp_core\": {\"functions\": 2"));
    }

    #[test]
    fn baseline_check_allows_slack_then_fails() {
        let mut current = TcbReport {
            measured: Stats {
                functions: 104,
                loc: 1090,
            },
            ..TcbReport::default()
        };
        let baseline = TcbReport {
            measured: Stats {
                functions: 100,
                loc: 1000,
            },
            ..TcbReport::default()
        }
        .to_json();
        assert!(check_baseline(&current, &baseline).is_ok());
        current.measured.loc = 1101;
        assert!(check_baseline(&current, &baseline).is_err());
        current.measured.loc = 1000;
        current.undeclared_reachable = 1;
        assert!(check_baseline(&current, &baseline).is_err());
    }

    #[test]
    fn baseline_check_rejects_a_truncated_file() {
        let current = TcbReport::default();
        let baseline = current.to_json();
        assert!(check_baseline(&current, &baseline).is_ok());
        let cut = baseline.find("\"undeclared_reachable\"").unwrap();
        assert!(check_baseline(&current, &baseline[..cut]).is_err());
    }
}
