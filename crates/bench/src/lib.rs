//! Experiment harnesses regenerating the paper's evaluation.
//!
//! One module per experiment (E1–E7, defined in DESIGN.md); each exposes a
//! `run(...)` returning structured rows plus a `render(...)` printing the
//! paper-style table. The `src/bin/eN_*` binaries are thin wrappers; the
//! integration tests assert the *shapes* the paper reports (who wins, by
//! roughly what factor) hold on the regenerated data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The harness measures real host CPU on purpose; the model it drives
// keeps to the simulated clock (`clippy.toml`).
#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

pub mod experiments;
pub mod table;

/// Where the experiment bins drop their perf artifacts (relative to the
/// workspace root the bins are run from).
pub const ARTIFACT_DIR: &str = "target/bench";

/// Writes an experiment's artifact pair into [`ARTIFACT_DIR`] and notes
/// the written paths on **stderr** — stdout is reserved for the tables
/// that `scripts/record_experiments.sh` splices into EXPERIMENTS.md.
pub fn emit_artifacts(pair: &utp_obs::ArtifactPair) {
    match pair.write(std::path::Path::new(ARTIFACT_DIR)) {
        Ok(paths) => {
            for p in paths {
                eprintln!("wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("failed to write perf artifacts: {e}");
            std::process::exit(1);
        }
    }
}
