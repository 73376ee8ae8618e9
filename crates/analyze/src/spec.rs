//! The machine-readable authorization spec (`scripts/authz_spec.json`)
//! driving the authorization-flow and protocol-order passes.
//!
//! The spec names the *policy* — which calls grant which capabilities,
//! which sites are settlement sinks and what they require, and which
//! happens-before pairs the protocol must respect — so the passes stay
//! pure mechanism. Calls, structs and fields are named by resolved path
//! (`utp_core::verifier::check_quote_chain`, see [`crate::graph`]). The
//! checked-in file is compiled into the analyzer via `include_str!` and
//! gated like the TCB baseline: `--check-authz-spec` fails when the
//! on-disk file drifts from the embedded copy, when any spec'd path no
//! longer *anchors* in the workspace, and when a source or an order rule
//! matches no site (a silent rename or a resolver regression would
//! otherwise blind the passes while they keep reporting clean).
//!
//! The file is read through `utp_obs::json`, the workspace's one JSON
//! reader.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use utp_obs::json::Json;

use crate::graph::WorkspaceIndex;
use crate::lexer::TokenKind;

/// The checked-in spec source, compiled into the binary.
pub const EMBEDDED_JSON: &str = include_str!("../../../scripts/authz_spec.json");

/// A call that grants capabilities when it appears on a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSpec {
    /// Resolved path of the granting fn.
    pub call: String,
    /// Capabilities granted to the rest of the path.
    pub grants: Vec<String>,
}

/// A branch-condition ident that grants capabilities (e.g. a
/// `matches!(status, Confirmed)` check).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardSpec {
    /// Ident that must appear in an `if`/`while`/`match`/arm statement.
    pub ident: String,
    /// Capabilities granted to both branches (polarity-insensitive).
    pub grants: Vec<String>,
}

/// How a sink site is recognized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// A call site reaching fn `target`.
    Call,
    /// A struct literal of type `target`.
    Struct,
    /// An assignment to field `target` (`Type::field`).
    Write,
}

/// A settlement sink and the capabilities it demands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkSpec {
    /// Stable sink name (report key).
    pub name: String,
    /// Site shape.
    pub kind: SinkKind,
    /// Resolved path of the fn, struct or field, per [`SinkKind`].
    pub target: String,
    /// Ident that must appear in the call args / statement for a match.
    pub with_ident: Option<String>,
    /// Capabilities that must *all* hold at the site.
    pub requires: Vec<String>,
    /// Capabilities of which *at least one* must hold at the site.
    pub requires_any: Vec<String>,
    /// Human phrase used in diagnostics.
    pub describe: String,
}

/// One happens-before rule: in any function performing `before`, every
/// `after` site must be preceded by a `before` event or a `guard_ident`
/// branch check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderRule {
    /// Stable rule name (report key).
    pub rule: String,
    /// Resolved path of the before-event fn.
    pub before: String,
    /// Ident that must appear in the before-call's args to count.
    pub before_ident: Option<String>,
    /// Resolved path of the after-event fn.
    pub after: String,
    /// Required receiver-chain ident of the after-event (`reply` picks
    /// the ticket's channel out of every `Sender::send`).
    pub after_recv: Option<String>,
    /// Branch-condition ident that discharges the obligation (e.g. a
    /// `if let Some(journal)` presence check covering no-journal mode).
    pub guard_ident: Option<String>,
    /// Human phrase used in diagnostics.
    pub describe: String,
}

/// The full parsed spec.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuthzSpec {
    /// Spec format version.
    pub version: i64,
    /// Path prefixes the sinks and rules apply to.
    pub scope: Vec<String>,
    /// Capability-granting calls.
    pub sources: Vec<SourceSpec>,
    /// Capability-granting branch conditions.
    pub guards: Vec<GuardSpec>,
    /// Settlement sinks.
    pub sinks: Vec<SinkSpec>,
    /// Happens-before rules.
    pub order: Vec<OrderRule>,
}

impl AuthzSpec {
    /// Is `path` inside the spec's scope?
    pub fn in_scope(&self, path: &str) -> bool {
        self.scope.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// The capability universe, in order of first appearance; the
    /// passes use the index as a lattice bit.
    pub fn capabilities(&self) -> Vec<&str> {
        fn add_all<'a>(out: &mut Vec<&'a str>, names: &'a [String]) {
            for n in names {
                if !out.contains(&n.as_str()) {
                    out.push(n.as_str());
                }
            }
        }
        let mut out: Vec<&str> = Vec::new();
        for s in &self.sources {
            add_all(&mut out, &s.grants);
        }
        for g in &self.guards {
            add_all(&mut out, &g.grants);
        }
        for s in &self.sinks {
            add_all(&mut out, &s.requires);
            add_all(&mut out, &s.requires_any);
        }
        out
    }

    /// Bit index of a capability name in [`AuthzSpec::capabilities`].
    pub fn cap_bit(&self, caps: &[&str], name: &str) -> u32 {
        caps.iter()
            .position(|c| *c == name)
            .map(|i| 1u32 << i)
            .unwrap_or(0)
    }
}

/// The embedded spec, parsed once. The file is checked in and covered
/// by tests, so a parse failure is a build defect, not a user error.
pub fn embedded() -> &'static AuthzSpec {
    static SPEC: OnceLock<AuthzSpec> = OnceLock::new();
    SPEC.get_or_init(|| match parse(EMBEDDED_JSON) {
        Ok(s) => s,
        Err(e) => {
            // Unreachable for a well-formed checked-in spec; degrade to
            // an empty spec (passes report nothing) rather than abort.
            debug_assert!(false, "embedded authz spec is malformed: {e}");
            AuthzSpec::default()
        }
    })
}

/// Parses a spec JSON text.
pub fn parse(text: &str) -> Result<AuthzSpec, String> {
    let json = Json::parse(text)?;
    let obj = json.entries().ok_or("spec root must be an object")?;
    let mut spec = AuthzSpec {
        version: get(obj, "version")?
            .as_num()
            .and_then(|n| n.parse().ok())
            .ok_or("version: integer")?,
        scope: str_list(get(obj, "scope")?, "scope")?,
        ..AuthzSpec::default()
    };
    for (i, s) in arr(get(obj, "sources")?, "sources")?.iter().enumerate() {
        let o = s.entries().ok_or_else(|| format!("sources[{i}]: object"))?;
        spec.sources.push(SourceSpec {
            call: req_str(o, "call")?,
            grants: str_list(get(o, "grants")?, "grants")?,
        });
    }
    for (i, g) in arr(get(obj, "guards")?, "guards")?.iter().enumerate() {
        let o = g.entries().ok_or_else(|| format!("guards[{i}]: object"))?;
        spec.guards.push(GuardSpec {
            ident: req_str(o, "ident")?,
            grants: str_list(get(o, "grants")?, "grants")?,
        });
    }
    for (i, s) in arr(get(obj, "sinks")?, "sinks")?.iter().enumerate() {
        let o = s.entries().ok_or_else(|| format!("sinks[{i}]: object"))?;
        let kind = match req_str(o, "kind")?.as_str() {
            "call" => SinkKind::Call,
            "struct" => SinkKind::Struct,
            "write" => SinkKind::Write,
            other => return Err(format!("sinks[{i}]: unknown kind `{other}`")),
        };
        spec.sinks.push(SinkSpec {
            name: req_str(o, "name")?,
            kind,
            target: req_str(o, "target")?,
            with_ident: opt_str(o, "with_ident"),
            requires: opt_list(o, "requires")?,
            requires_any: opt_list(o, "requires_any")?,
            describe: req_str(o, "describe")?,
        });
    }
    for (i, r) in arr(get(obj, "order")?, "order")?.iter().enumerate() {
        let o = r.entries().ok_or_else(|| format!("order[{i}]: object"))?;
        spec.order.push(OrderRule {
            rule: req_str(o, "rule")?,
            before: req_str(o, "before")?,
            before_ident: opt_str(o, "before_ident"),
            after: req_str(o, "after")?,
            after_recv: opt_str(o, "after_recv"),
            guard_ident: opt_str(o, "guard_ident"),
            describe: req_str(o, "describe")?,
        });
    }
    Ok(spec)
}

/// Every spec'd path that no longer *anchors* in the live workspace
/// code (and guard idents absent from the scope): a renamed source or
/// sink would silently blind the passes, so the spec gate reports these
/// as failures.
pub fn missing_anchors(ws: &WorkspaceIndex, spec: &AuthzSpec) -> Vec<String> {
    let fns: BTreeSet<&str> = (0..ws.fns.len())
        .filter(|&i| ws.is_live_fn(i))
        .map(|i| ws.paths[i].as_str())
        .collect();
    let mut types = BTreeSet::new();
    let mut idents = BTreeSet::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !ws.metas[fi].is_src_ctx {
            continue;
        }
        for s in &file.items.structs {
            let mut path = vec![ws.metas[fi].crate_alias.as_str()];
            path.extend(
                ws.metas[fi]
                    .module
                    .iter()
                    .chain(&s.module)
                    .map(String::as_str),
            );
            path.push(&s.name);
            let path = path.join("::");
            types.extend(s.fields.iter().map(|f| format!("{path}::{}", f.name)));
            types.insert(path);
        }
        if spec.in_scope(&file.path) {
            idents.extend(
                file.tokens
                    .iter()
                    .filter(|t| t.kind == TokenKind::Ident)
                    .map(|t| t.text.as_str()),
            );
        }
    }
    let mut missing = Vec::new();
    let mut need = |what: String, path: &str, ok: bool| {
        if !ok {
            missing.push(format!("{what} `{path}` (no such item in the workspace)"));
        }
    };
    for s in &spec.sources {
        need("source".into(), &s.call, fns.contains(s.call.as_str()));
    }
    for s in &spec.sinks {
        let ok = match s.kind {
            SinkKind::Call => fns.contains(s.target.as_str()),
            SinkKind::Struct | SinkKind::Write => types.contains(&s.target),
        };
        need(format!("sink `{}` target", s.name), &s.target, ok);
    }
    for r in &spec.order {
        need(
            format!("rule `{}` before-event", r.rule),
            &r.before,
            fns.contains(r.before.as_str()),
        );
        need(
            format!("rule `{}` after-event", r.rule),
            &r.after,
            fns.contains(r.after.as_str()),
        );
    }
    for g in &spec.guards {
        if !idents.contains(g.ident.as_str()) {
            missing.push(format!("guard ident `{}` (absent from scope)", g.ident));
        }
    }
    missing
}

/// The authorization-flow report: how many sites each spec entry
/// matched plus the anchor check, written next to the TCB and dataflow
/// reports and uploaded by CI.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct AuthzReport {
    /// In-scope library files analyzed.
    pub scope_files: usize,
    /// Live in-scope functions analyzed.
    pub functions: usize,
    /// Capability-grant sites per source call name.
    pub grant_sites: BTreeMap<String, usize>,
    /// Sites checked per sink name.
    pub sink_sites: BTreeMap<String, usize>,
    /// After-event sites checked per happens-before rule.
    pub order_sites: BTreeMap<String, usize>,
    /// Post-suppression findings from the two passes.
    pub findings: usize,
    /// Spec names with no anchor in the workspace (gate failures).
    pub missing_anchors: Vec<String>,
}

impl AuthzReport {
    /// What fails the spec gate: unanchored names, and sources or order
    /// rules that match no site — a policy that proves nothing. Sinks
    /// may match none: they guard future callers.
    pub fn failures(&self) -> Vec<String> {
        let vacuous = |kind: &str, map: &BTreeMap<String, usize>| {
            map.iter()
                .filter(|(_, n)| **n == 0)
                .map(|(k, _)| format!("{kind} `{k}` matches no site"))
                .collect::<Vec<_>>()
        };
        let mut out: Vec<String> = self
            .missing_anchors
            .iter()
            .map(|m| format!("unanchored {m}"))
            .collect();
        out.extend(vacuous("source", &self.grant_sites));
        out.extend(vacuous("order rule", &self.order_sites));
        out
    }

    /// Stable, hand-rolled JSON rendering (same conventions as the TCB
    /// and dataflow reports).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"authz_report\": {\n");
        out.push_str(&format!("    \"scope_files\": {},\n", self.scope_files));
        out.push_str(&format!("    \"functions\": {},\n", self.functions));
        out.push_str(&format!("    \"findings\": {},\n", self.findings));
        render_count_map(&mut out, "grant_sites", &self.grant_sites);
        out.push_str(",\n");
        render_count_map(&mut out, "sink_sites", &self.sink_sites);
        out.push_str(",\n");
        render_count_map(&mut out, "order_sites", &self.order_sites);
        out.push_str(",\n");
        out.push_str("    \"missing_anchors\": [");
        for (i, m) in self.missing_anchors.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", m.replace('"', "'")));
        }
        out.push_str("]\n  }\n}\n");
        out
    }
}

fn render_count_map(out: &mut String, key: &str, map: &BTreeMap<String, usize>) {
    out.push_str(&format!("    \"{key}\": {{"));
    for (i, (name, n)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n      \"{name}\": {n}"));
    }
    if !map.is_empty() {
        out.push_str("\n    ");
    }
    out.push('}');
}

// ---------------------------------------------------------------------
// Spec field accessors.

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key `{key}`"))
}

fn arr<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.items().ok_or_else(|| format!("{what}: array"))
}

fn req_str(obj: &[(String, Json)], key: &str) -> Result<String, String> {
    get(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{key}: string"))
}

fn opt_str(obj: &[(String, Json)], key: &str) -> Option<String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
        .map(str::to_string)
}

fn str_list(v: &Json, what: &str) -> Result<Vec<String>, String> {
    arr(v, what)?
        .iter()
        .map(|e| {
            e.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{what}: strings"))
        })
        .collect()
}

fn opt_list(obj: &[(String, Json)], key: &str) -> Result<Vec<String>, String> {
    match obj.iter().find(|(k, _)| k == key) {
        Some((_, v)) => str_list(v, key),
        None => Ok(Vec::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_spec_parses_and_is_nonempty() {
        let spec = parse(EMBEDDED_JSON).expect("embedded spec parses");
        assert_eq!(spec.version, 1);
        assert!(!spec.scope.is_empty());
        assert!(spec
            .sources
            .iter()
            .any(|s| s.call == "utp_core::verifier::check_quote_chain"));
        assert!(spec.sinks.iter().any(|s| s.name == "store-settle"));
        assert!(spec.order.iter().any(|r| r.rule == "wal-before-ack"));
        assert_eq!(spec, *embedded());
    }

    #[test]
    fn capability_universe_is_stable_and_bit_indexed() {
        let spec = embedded();
        let caps = spec.capabilities();
        assert!(caps.contains(&"verified"));
        assert!(caps.contains(&"order-bound"));
        assert!(caps.contains(&"confirmed-checked"));
        let bit = spec.cap_bit(&caps, "verified");
        assert_eq!(bit.count_ones(), 1);
        assert_eq!(spec.cap_bit(&caps, "no-such-cap"), 0);
    }

    #[test]
    fn json_reader_handles_nesting_escapes_and_errors() {
        let minimal = "{\"version\": 1, \"scope\": [], \"sources\": [], \"guards\": [], \
                       \"sinks\": [], \"order\": [], \"note\": \"caf\\u00e9\\b\\f\"}";
        assert_eq!(parse(minimal).map(|s| s.version), Ok(1));
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"version\": 1}").is_err(), "missing keys surface");
    }

    #[test]
    fn report_renders_stable_json() {
        let mut r = AuthzReport::default();
        r.grant_sites.insert("check_quote_chain".to_string(), 3);
        r.sink_sites.insert("store-settle".to_string(), 1);
        let json = r.to_json();
        assert!(json.contains("\"authz_report\""));
        assert!(json.contains("\"check_quote_chain\": 3"));
        assert!(json.contains("\"missing_anchors\": []"));
        assert!(r.failures().is_empty());
        r.order_sites.insert("wal-before-ack".to_string(), 0);
        assert_eq!(
            r.failures(),
            ["order rule `wal-before-ack` matches no site"]
        );
    }
}
