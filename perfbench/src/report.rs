//! Metric names, units and the one-line JSON result.
//!
//! The two lists below are the benchmark's contract with
//! `BENCHMARK.json`; a test checks that the file names the same metrics
//! with the same units. `perfbench/README.md` says which end-to-end
//! metric each per-layer metric should move, on which workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better: "higher",
    }
}

/// Printed by every untraced run, on every workload.
pub const END_TO_END: &[Spec] = &[
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("ops_per_s", "1/s"),
    lower("mean_us", "us"),
    lower("p99_us", "us"),
    higher("success_rate", "ratio"),
    lower("confirm_mean_ms", "ms"),
    lower("confirm_p99_ms", "ms"),
];

/// Printed by every traced run, on every workload; a layer the workload
/// does not exercise reads 0.
pub const PER_LAYER: &[Spec] = &[
    // Diagnostics and the trace itself.
    lower("host.calib_us", "us"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.spans_per_op", "count"),
    lower("trace.root_self_us", "us"),
    higher("e2e.latency_samples", "count"),
    lower("e2e.p50_us", "us"),
    lower("e2e.fail_rate", "ratio"),
    // crypto
    lower("crypto.rsa_verify_us", "us"),
    lower("crypto.rsa_verify_sha256_us", "us"),
    lower("crypto.rsa_sign_us", "us"),
    lower("crypto.sha1_us", "us"),
    // core
    lower("core.token_parse_us", "us"),
    lower("core.quote_chain_us", "us"),
    lower("core.cert_validate_us", "us"),
    lower("ledger.settle_us", "us"),
    // server::service
    lower("service.start_us", "us"),
    lower("service.register_us", "us"),
    lower("service.submit_us", "us"),
    lower("service.wait_p50_us", "us"),
    lower("service.wait_p99_us", "us"),
    lower("service.drain_us", "us"),
    lower("service.queue_wait_p50_us", "us"),
    lower("service.verify_cpu_p50_us", "us"),
    higher("service.cert_cache_hit_ratio", "ratio"),
    lower("service.cert_cache_lookups_per_op", "count"),
    lower("service.cert_cache_misses_per_op", "count"),
    lower("service.queue_depth_watermark", "count"),
    higher("service.accepted_per_op", "count"),
    lower("service.replayed_per_op", "count"),
    lower("service.rejected_per_op", "count"),
    lower("service.shed_per_op", "count"),
    // journal
    lower("journal.appends_per_op", "count"),
    lower("journal.syncs_per_op", "count"),
    higher("journal.sync_elided_ratio", "ratio"),
    lower("journal.bytes_per_op", "bytes"),
    lower("journal.device_us_per_op", "us"),
    lower("journal.append_sync_us", "us"),
    // server::provider
    lower("provider.place_order_us", "us"),
    lower("provider.submit_evidence_us", "us"),
    // core::client over tpm, flicker and platform
    lower("client.confirm_us", "us"),
    lower("client.session_machine_ms", "ms"),
    lower("client.attest_ms", "ms"),
    lower("client.tpm_ops_per_tx", "count"),
    // netsim
    lower("net.link_ms_per_tx", "ms"),
    lower("net.one_way_delay_us", "us"),
    lower("netsim.plan_ms", "ms"),
    lower("netsim.run_ms", "ms"),
    lower("netsim.events_per_order", "count"),
    higher("netsim.events_per_s", "1/s"),
    lower("netsim.retries_per_order", "count"),
    lower("netsim.replays_per_order", "count"),
    lower("netsim.shed_per_order", "count"),
    lower("netsim.timeouts_per_order", "count"),
    lower("netsim.dup_settles_per_order", "count"),
    lower("netsim.verify_jobs_per_settle", "count"),
    lower("netsim.worker_utilization", "ratio"),
    lower("netsim.queue_watermark", "count"),
    lower("netsim.link_drop_share", "ratio"),
];

/// Metric values by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|s| s.name == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric of
/// `specs` (0 where the workload did not set one).
pub fn render(correct: bool, attempted: u64, failed: u64, specs: &[Spec], m: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, s) in specs.iter().enumerate() {
        let v = m.get(s.name).unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            s.name, s.unit
        );
    }
    out.push_str("}}");
    out
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}
