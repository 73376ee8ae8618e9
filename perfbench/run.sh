#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload on one CPU:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The build honours CARGO_TARGET_DIR (default perfbench/target). The run
# is pinned to the first CPU this process may use: the host gives its two
# vCPUs about one core of throughput, and keeping the settle workloads'
# submitter and worker threads on one CPU removes the cross-CPU wake-up
# delays that otherwise dominate their latency tail.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/utp-perfbench"

cpu="$(awk '/^Cpus_allowed_list/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status)"
if [ -n "$cpu" ] && command -v taskset >/dev/null; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
