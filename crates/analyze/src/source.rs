//! Per-file analysis context: tokens, allow-annotations, test regions,
//! item structure.

use crate::items::{parse_items, FileItems};
use crate::lexer::{lex, Token, TokenKind};

/// An inline `// utp-analyze: allow(<lint>) <reason>` annotation.
///
/// The annotation suppresses findings of `lint` on its own line (trailing
/// form) and on the following line (standalone form). A reason is
/// mandatory; annotations without one are themselves deny-level findings.
#[derive(Debug, Clone)]
pub struct Suppression {
    /// Lint id being allowed.
    pub lint: String,
    /// Why the violation is acceptable here (must be non-empty).
    pub reason: String,
    /// 1-based line of the annotation comment.
    pub line: u32,
}

/// A malformed `utp-analyze:` annotation (bad syntax or missing reason).
#[derive(Debug, Clone)]
pub struct BadAnnotation {
    /// 1-based line of the comment.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// One parsed source file ready for the passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Token stream (comments and strings already handled by the lexer).
    pub tokens: Vec<Token>,
    /// Valid allow-annotations.
    pub suppressions: Vec<Suppression>,
    /// Malformed allow-annotations.
    pub bad_annotations: Vec<BadAnnotation>,
    /// Line ranges (inclusive) covered by `#[cfg(test)]` modules.
    pub test_ranges: Vec<(u32, u32)>,
    /// Item-level structure (functions, structs, impls, item spans).
    pub items: FileItems,
}

impl SourceFile {
    /// Lexes `text` and extracts annotations and test regions.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let mut suppressions = Vec::new();
        let mut bad_annotations = Vec::new();
        for comment in &lexed.comments {
            let trimmed = comment.text.trim();
            let Some(rest) = trimmed.strip_prefix("utp-analyze:") else {
                continue;
            };
            match parse_allow(rest.trim()) {
                Ok((lint, reason)) => suppressions.push(Suppression {
                    lint,
                    reason,
                    line: comment.line,
                }),
                Err(problem) => bad_annotations.push(BadAnnotation {
                    line: comment.line,
                    problem,
                }),
            }
        }
        let test_ranges = find_test_ranges(&lexed.tokens);
        let items = parse_items(&lexed.tokens);
        SourceFile {
            path: path.to_string(),
            tokens: lexed.tokens,
            suppressions,
            bad_annotations,
            test_ranges,
            items,
        }
    }

    /// Is `line` inside a `#[cfg(test)]` module?
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| (start..=end).contains(&line))
    }

    /// Is a finding of `lint` at `line` covered by an allow-annotation?
    pub fn is_suppressed(&self, lint: &str, line: u32) -> bool {
        (0..self.suppressions.len())
            .any(|i| self.suppressions[i].lint == lint && self.suppression_covers(i, line))
    }

    /// Does suppression `idx` cover findings on `line`? A trailing
    /// annotation (code on the same line) covers only that line. A
    /// standalone annotation covers the next code line — and when that
    /// line starts an item (attributes included), the *whole item*: an
    /// `allow(..)` above a `fn` or `struct` waives every finding inside
    /// it, not just the first line (this used to be off by one for any
    /// item with attributes or a multi-line body).
    pub fn suppression_covers(&self, idx: usize, line: u32) -> bool {
        let s = &self.suppressions[idx];
        if s.line == line {
            return true;
        }
        let standalone = !self.tokens.iter().any(|t| t.line == s.line);
        if !standalone {
            return false;
        }
        // First code line after the annotation (doc comments and blank
        // lines in between don't break the association).
        let Some(target) = self
            .tokens
            .iter()
            .map(|t| t.line)
            .filter(|&l| l > s.line)
            .min()
        else {
            return false;
        };
        if line == target {
            return true;
        }
        self.items
            .item_spans
            .iter()
            .any(|&(start, end)| start == target && (start..=end).contains(&line))
    }
}

/// Parses `allow(<lint>) <reason>`; returns (lint, reason).
fn parse_allow(s: &str) -> Result<(String, String), String> {
    let Some(rest) = s.strip_prefix("allow(") else {
        return Err(format!(
            "expected `allow(<lint>) <reason>` after `utp-analyze:`, found `{s}`"
        ));
    };
    let Some((lint, reason)) = rest.split_once(')') else {
        return Err("unclosed `allow(` annotation".to_string());
    };
    let lint = lint.trim();
    if lint.is_empty() || !lint.chars().all(|c| c.is_ascii_alphanumeric() || c == '-') {
        return Err(format!("invalid lint id `{lint}` in allow annotation"));
    }
    let reason = reason.trim();
    if reason.is_empty() {
        return Err(format!(
            "allow({lint}) requires a reason: `// utp-analyze: allow({lint}) <why this is sound>`"
        ));
    }
    Ok((lint.to_string(), reason.to_string()))
}

/// Finds `#[cfg(test)] mod <name> { ... }` line ranges.
fn find_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Match `#` `[` cfg-attribute containing `test` `]`.
        if tokens[i].is_punct("#") && i + 1 < tokens.len() && tokens[i + 1].is_punct("[") {
            let attr_start = i + 2;
            let Some(attr_end) = crate::items::matching(tokens, i + 1, "[", "]") else {
                break;
            };
            let attr = &tokens[attr_start..attr_end];
            let is_cfg_test = attr.first().is_some_and(|t| t.is_ident("cfg"))
                && attr.iter().any(|t| t.is_ident("test"));
            if is_cfg_test {
                // Skip any further attributes, then expect `mod name {`.
                let mut j = attr_end + 1;
                while j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[")
                {
                    match crate::items::matching(tokens, j + 1, "[", "]") {
                        Some(end) => j = end + 1,
                        None => break,
                    }
                }
                if j + 2 < tokens.len()
                    && tokens[j].is_ident("mod")
                    && tokens[j + 1].kind == TokenKind::Ident
                    && tokens[j + 2].is_punct("{")
                {
                    if let Some(close) = crate::items::matching(tokens, j + 2, "{", "}") {
                        ranges.push((tokens[i].line, tokens[close].line));
                        i = close;
                    }
                }
            }
            i = i.max(attr_end) + 1;
            continue;
        }
        i += 1;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_valid_allow_annotation() {
        let src = "\
fn f() {
    // utp-analyze: allow(no-panic-in-tcb) length checked two lines up
    let x = v[i];
    let y = v[j]; // utp-analyze: allow(no-panic-in-tcb) j < len by loop bound
}
";
        let file = SourceFile::parse("crates/tpm/src/x.rs", src);
        assert_eq!(file.suppressions.len(), 2);
        assert!(file.is_suppressed("no-panic-in-tcb", 3));
        assert!(file.is_suppressed("no-panic-in-tcb", 4));
        assert!(!file.is_suppressed("no-panic-in-tcb", 5));
        assert!(!file.is_suppressed("ct-discipline", 3));
    }

    #[test]
    fn standalone_annotation_covers_the_whole_following_item() {
        // Regression for the off-by-one: the annotation used to cover
        // only line 2, missing findings inside the item (line 4 here)
        // and anything behind an attribute.
        let src = "\
// utp-analyze: allow(no-panic-in-tcb) fixture: whole-item waiver
#[inline]
pub fn f(v: &[u8]) -> u8 {
    v[0]
}

pub fn g(v: &[u8]) -> u8 {
    v[0]
}
";
        let file = SourceFile::parse("crates/tpm/src/x.rs", src);
        assert!(file.is_suppressed("no-panic-in-tcb", 2));
        assert!(file.is_suppressed("no-panic-in-tcb", 3));
        assert!(file.is_suppressed("no-panic-in-tcb", 4));
        assert!(file.is_suppressed("no-panic-in-tcb", 5));
        // The next item is NOT covered.
        assert!(!file.is_suppressed("no-panic-in-tcb", 7));
        assert!(!file.is_suppressed("no-panic-in-tcb", 8));
    }

    #[test]
    fn annotation_without_reason_is_malformed() {
        let src = "// utp-analyze: allow(no-panic-in-tcb)\nlet x = v[i];\n";
        let file = SourceFile::parse("crates/tpm/src/x.rs", src);
        assert!(file.suppressions.is_empty());
        assert_eq!(file.bad_annotations.len(), 1);
        assert!(file.bad_annotations[0]
            .problem
            .contains("requires a reason"));
    }

    #[test]
    fn annotation_with_bad_syntax_is_malformed() {
        let file = SourceFile::parse("x.rs", "// utp-analyze: silence everything\n");
        assert_eq!(file.bad_annotations.len(), 1);
    }

    #[test]
    fn cfg_test_mod_ranges_are_detected() {
        let src = "\
pub fn real() {}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        x.unwrap();
    }
}

pub fn also_real() {}
";
        let file = SourceFile::parse("crates/tpm/src/x.rs", src);
        assert_eq!(file.test_ranges.len(), 1);
        assert!(file.in_test_code(7));
        assert!(!file.in_test_code(1));
        assert!(!file.in_test_code(11));
    }
}
