//! Structured diagnostics and their text / JSON renderings.

use std::fmt;

use utp_obs::json::escape_into;

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not affect the exit code.
    Warn,
    /// Gate failure; `utp-analyze` exits non-zero if any remain.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One finding: file, line, which lint, severity, and an explanation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Stable lint identifier, e.g. `no-panic-in-tcb`.
    pub lint: &'static str,
    /// Gate or advisory.
    pub severity: Severity,
    /// Human-oriented explanation, including the suggested fix.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: [{}] {}",
            self.severity, self.file, self.line, self.lint, self.message
        )
    }
}

/// Canonical diagnostic order: (file, line, lint, message), then
/// deduplicated. Every consumer (driver, renderers, golden snapshots)
/// goes through this so output never depends on pass traversal order.
pub fn sort_canonical(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| {
        (&a.file, a.line, a.lint, &a.message).cmp(&(&b.file, b.line, b.lint, &b.message))
    });
    diags.dedup();
}

/// Renders diagnostics as line-oriented text, one finding per line,
/// in canonical order regardless of how the slice was built.
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut diags = diags.to_vec();
    sort_canonical(&mut diags);
    let mut out = String::new();
    for d in &diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let denies = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    let warns = diags.len() - denies;
    out.push_str(&format!("{denies} deny, {warns} warn\n"));
    out
}

/// Renders diagnostics as a JSON document, in canonical order.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut sorted = diags.to_vec();
    sort_canonical(&mut sorted);
    let diags = &sorted;
    let mut out = String::from("{\n  \"findings\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"file\": \"");
        escape_into(&mut out, &d.file);
        out.push_str(&format!("\", \"line\": {}, \"lint\": \"", d.line));
        escape_into(&mut out, d.lint);
        out.push_str(&format!(
            "\", \"severity\": \"{}\", \"message\": \"",
            d.severity
        ));
        escape_into(&mut out, &d.message);
        out.push_str("\"}");
    }
    if !diags.is_empty() {
        out.push_str("\n  ");
    }
    let denies = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    out.push_str(&format!(
        "],\n  \"deny_count\": {denies},\n  \"warn_count\": {}\n}}\n",
        diags.len() - denies
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Diagnostic> {
        vec![Diagnostic {
            file: "crates/x/src/lib.rs".into(),
            line: 3,
            lint: "no-panic-in-tcb",
            severity: Severity::Deny,
            message: "don't \"panic\"".into(),
        }]
    }

    #[test]
    fn text_rendering_includes_location_and_counts() {
        let text = render_text(&sample());
        assert!(text.contains("crates/x/src/lib.rs:3"));
        assert!(text.contains("[no-panic-in-tcb]"));
        assert!(text.contains("1 deny, 0 warn"));
    }

    #[test]
    fn rendering_is_in_canonical_order_regardless_of_input_order() {
        let a = Diagnostic {
            file: "a.rs".into(),
            line: 9,
            lint: "wallclock-in-model",
            severity: Severity::Deny,
            message: "m1".into(),
        };
        let b = Diagnostic {
            file: "a.rs".into(),
            line: 9,
            lint: "ct-discipline",
            severity: Severity::Deny,
            message: "m2".into(),
        };
        let c = Diagnostic {
            file: "a.rs".into(),
            line: 2,
            lint: "no-panic-in-tcb",
            severity: Severity::Warn,
            message: "m3".into(),
        };
        let scrambled = vec![a.clone(), b.clone(), c.clone(), a.clone()];
        let mut sorted = scrambled.clone();
        sort_canonical(&mut sorted);
        assert_eq!(sorted, vec![c, b, a], "(file, line, lint) order, deduped");
        assert_eq!(render_text(&scrambled), render_text(&sorted));
        assert_eq!(render_json(&scrambled), render_json(&sorted));
    }

    #[test]
    fn json_rendering_escapes_and_counts() {
        let json = render_json(&sample());
        assert!(json.contains("\"deny_count\": 1"));
        assert!(json.contains("don't \\\"panic\\\""));
        assert!(json.contains("\"line\": 3"));
    }
}
