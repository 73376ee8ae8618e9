//! Pass 5: `wallclock-in-model` — the simulated clock is the only time
//! source.
//!
//! Every latency the model reports (TPM vendor profiles, network delays,
//! human think time) flows through `crates/platform/src/clock.rs` so that
//! experiments are deterministic and machine-independent. `Instant::now`
//! / `SystemTime` readings anywhere else silently mix host time into the
//! model. Only the bench harness (which measures real host CPU on
//! purpose) and the server's operational metrics may touch the wall
//! clock.

use super::{Finding, Pass};
use crate::source::SourceFile;

/// Files allowed to read the host clock.
fn is_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/") || path == "crates/server/src/metrics.rs"
}

/// The `wallclock-in-model` pass.
pub struct WallclockInModel;

impl Pass for WallclockInModel {
    fn id(&self) -> &'static str {
        "wallclock-in-model"
    }

    fn description(&self) -> &'static str {
        "Instant::now/SystemTime are reserved for bench + metrics; the model uses the simulated clock"
    }

    fn check(&self, file: &SourceFile) -> Vec<Finding> {
        if is_exempt(&file.path) {
            return Vec::new();
        }
        let tokens = &file.tokens;
        let mut findings = Vec::new();
        for (i, t) in tokens.iter().enumerate() {
            let hit = if t.is_ident("Instant")
                && tokens.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && tokens.get(i + 2).is_some_and(|n| n.is_ident("now"))
            {
                Some("Instant::now()")
            } else if t.is_ident("SystemTime") {
                Some("SystemTime")
            } else {
                None
            };
            if let Some(what) = hit {
                findings.push(Finding::deny(
                    t.line,
                    format!(
                        "`{what}` reads the host wall clock inside the simulation model; \
                         route time through the simulated clock \
                         (`crates/platform/src/clock.rs`) so runs stay deterministic \
                         (bench/metrics code is exempt)"
                    ),
                ));
            }
        }
        findings
    }
}
