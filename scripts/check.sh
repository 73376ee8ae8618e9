#!/usr/bin/env bash
# Full local gate: formatting, clippy (warnings are errors), rustdoc
# (warnings are errors), the utp-analyze static analyzer, and the test
# suite. CI runs exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings, including broken intra-doc links, are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "==> utp-analyze (findings + TCB baseline + dataflow coverage + authz spec gate)"
mkdir -p target
cargo run -q -p utp-analyze -- --format json \
  --tcb-report target/tcb_report.json \
  --check-tcb-baseline scripts/tcb_report.json \
  --dataflow-report target/analyze/dataflow_report.json \
  --authz-report target/analyze/authz_report.json \
  --check-authz-spec scripts/authz_spec.json

echo "==> utp-analyze self-check (analyzer's own crate must be clean)"
cargo run -q -p utp-analyze -- --root crates/analyze --format json > /dev/null

echo "==> cargo test -q"
cargo test -q

echo "==> trace smoke (two E2 runs, byte-identical canonical JSONL)"
cargo run --release -q -p utp-bench --bin trace_smoke

echo "==> recovery smoke (two crash->recover runs, byte-identical trace; E11 durability tables)"
cargo run --release -q -p utp-bench --bin recovery_smoke

echo "==> differential pipeline test (timed)"
cargo test --release -q --test pipeline_differential -- --nocapture

echo "==> explore smoke (bounded adversarial exploration: 0 violations, byte-identical log, seeded bugs caught; E12 tables)"
cargo run --release -q -p utp-bench --bin explore_smoke

echo "==> fleet smoke (two 2k-client lossy fleet runs, byte-identical report digest + artifact; invariants)"
cargo run --release -q -p utp-bench --bin fleet_smoke

echo "==> perf artifacts + regression gate (virtual metrics exact, host metrics warn-only)"
for bin in e2_session_breakdown e4_server_throughput e8_amortized \
           e10_service e11_durability e12_explore e13_fleet; do
  cargo run --release -q -p utp-bench --bin "$bin" > /dev/null
done
cargo run --release -q -p utp-obs -- gate --warn-host

echo "All checks passed."
