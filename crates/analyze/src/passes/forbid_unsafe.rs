//! Pass 4: `forbid-unsafe-everywhere` — every crate root must carry
//! `#![forbid(unsafe_code)]`.
//!
//! The TCB-size argument (paper §5, experiment E7) counts auditable safe
//! Rust; a single `unsafe` block would void the memory-safety part of the
//! audit story. `forbid` (not `deny`) is required so no inner
//! `#[allow]` can re-enable it.

use super::{Finding, Pass};
use crate::source::SourceFile;

/// The `forbid-unsafe-everywhere` pass.
pub struct ForbidUnsafeEverywhere;

/// Is this file a crate root the pass should inspect?
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs" || (path.ends_with("/src/lib.rs") || path.ends_with("/src/main.rs"))
}

impl Pass for ForbidUnsafeEverywhere {
    fn id(&self) -> &'static str {
        "forbid-unsafe-everywhere"
    }

    fn description(&self) -> &'static str {
        "every crate root must carry #![forbid(unsafe_code)]"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        if !is_crate_root(&file.path) {
            return Vec::new();
        }
        let tokens = &file.tokens;
        let found = tokens.windows(8).any(|w| {
            w[0].is_punct("#")
                && w[1].is_punct("!")
                && w[2].is_punct("[")
                && w[3].is_ident("forbid")
                && w[4].is_punct("(")
                && w[5].is_ident("unsafe_code")
                && w[6].is_punct(")")
                && w[7].is_punct("]")
        });
        if found {
            Vec::new()
        } else {
            vec![Finding::deny(
                1,
                "crate root is missing `#![forbid(unsafe_code)]`; the workspace's \
                          auditable-TCB claim requires it in every crate"
                    .to_string(),
            )]
        }
    }
}
