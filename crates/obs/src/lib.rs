//! Workspace-wide perf observability: canonical machine-readable perf
//! artifacts, their text exposition, the perf-regression gate, and the
//! workspace's one JSON reader.
//!
//! * [`artifact`] — the schema-versioned `BENCH_<exp>.json` artifact
//!   format every experiment bin emits. Each experiment flattens its
//!   own report straight into an [`Artifact`] with `push_*` calls; a
//!   latency distribution is a `utp_trace::LatencyHistogram`,
//!   flattened into a [`Dist`].
//! * [`expo`] — a Prometheus-style text rendering for human
//!   inspection.
//! * [`gate`] — the baseline comparator behind `utp-obs gate`.
//! * [`json`] — the reader behind artifacts, baselines, and the
//!   analyzer's spec files.
//!
//! The live counters and gauges the verification service bumps live
//! in `utp_server::metrics`; `stats()` snapshots read them directly.
//!
//! # Determinism contract
//!
//! Every metric is classified [`Class::Virtual`] or [`Class::Host`].
//! Virtual metrics derive from the simulation's virtual clock and
//! seeded randomness, so their values — and the canonical
//! `BENCH_<exp>.json` carrying them — are byte-identical across runs
//! *and machines*; the gate holds them to zero drift. Host metrics
//! (wall-clock throughput, real queue waits) live in the separate
//! `BENCH_<exp>.host.json` and get loose tolerance bands. This is the
//! same canonical/volatile split `utp-trace` applies to its exports.
//!
//! Like the tracing crate, none of this code may be linked into the
//! TCB: the `tcb-boundary` analyzer pass forbids `utp_obs` imports
//! from attested code, and the `secret-taint` pass treats the
//! artifact writers as serialization sinks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod expo;
pub mod gate;
pub mod json;

pub use artifact::{Artifact, ArtifactPair, Class, Dist, Metric, MetricId, MetricValue, SCHEMA};
pub use expo::render_exposition;
pub use gate::{compare, Baseline, BaselineMetric, GateDiff, GateReport, BASELINE_SCHEMA};
