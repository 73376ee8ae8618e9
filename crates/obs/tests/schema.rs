//! Cross-module integration tests: artifact → JSON → gate and
//! exposition, exercised through the public API only.

use utp_obs::{
    compare, render_exposition, Artifact, ArtifactPair, Baseline, Class, MetricValue,
    BASELINE_SCHEMA, SCHEMA,
};
use utp_trace::LatencyHistogram;

/// An artifact populated the way a service run flattens its stats: two
/// per-shard counters, a queue-depth gauge with its watermark, and a
/// verify-latency histogram.
fn service_artifact() -> Artifact {
    let mut artifact = Artifact::new("E99", Class::Virtual, "itest");
    artifact.push_u64("svc.accepted", &[("shard", "0")], 40);
    artifact.push_u64("svc.accepted", &[("shard", "1")], 24);
    artifact.push_u64("svc.queue_depth", &[], 1);
    artifact.push_u64("svc.queue_depth.watermark", &[], 3);
    let mut hist = LatencyHistogram::new();
    for ns in [1_000, 2_000, 4_000, 8_000] {
        hist.record_ns(ns);
    }
    artifact.push_hist("svc.verify_ns", &[], &hist);
    artifact
}

#[test]
fn pushed_metrics_flow_into_a_round_tripping_artifact() {
    let doc = service_artifact().to_json();
    assert!(doc.contains(SCHEMA), "schema header present");

    let parsed = Artifact::from_json(&doc).expect("artifact parses");
    assert_eq!(parsed.to_json(), doc, "re-serialization is byte-equal");

    // The gauge's watermark survives the whole pipeline.
    let wm = parsed
        .metrics
        .iter()
        .find(|m| m.id.name == "svc.queue_depth.watermark")
        .expect("watermark metric present");
    assert_eq!(wm.value, MetricValue::U64(3));
    // The histogram flattened into a dist with all four samples.
    let dist = parsed
        .metrics
        .iter()
        .find(|m| m.id.name == "svc.verify_ns")
        .expect("dist metric present");
    match dist.value {
        MetricValue::Dist(d) => assert_eq!(d.count, 4),
        ref other => panic!("expected dist, got {other:?}"),
    }
}

#[test]
fn baseline_derives_from_artifact_and_round_trips() {
    let artifact = service_artifact();

    let baseline = Baseline::from_artifact(&artifact);
    let doc = baseline.to_json();
    assert!(doc.contains(BASELINE_SCHEMA), "baseline schema header");
    let parsed = Baseline::from_json(&doc).expect("baseline parses");
    assert_eq!(parsed.to_json(), doc, "baseline re-serializes byte-equal");

    // A freshly derived baseline gates its own artifact cleanly.
    let report = compare(&parsed, &artifact);
    assert!(report.clean(), "self-comparison must be clean: {report:?}");
}

#[test]
fn perturbed_baseline_fails_the_gate_with_a_per_metric_diff() {
    let artifact = service_artifact();

    // Perturb one metric in the baseline: the gate must name it.
    let mut baseline = Baseline::from_artifact(&artifact);
    for bm in &mut baseline.metrics {
        if bm.metric.id.name == "svc.accepted" && bm.metric.id.labels[0].1 == "0" {
            bm.metric.value = MetricValue::U64(41);
        }
    }
    let report = compare(&baseline, &artifact);
    assert!(!report.clean());
    assert_eq!(report.diffs.len(), 1);
    assert!(report.diffs[0].metric.contains("svc.accepted"));
    assert!(
        report.diffs[0].detail.contains("41") && report.diffs[0].detail.contains("40"),
        "diff states both values: {}",
        report.diffs[0].detail
    );
}

#[test]
fn artifact_pair_writes_all_three_files() {
    let dir = std::env::temp_dir().join("utp-obs-itest");
    let _ = std::fs::remove_dir_all(&dir);
    let mut pair = ArtifactPair::new("E98", "itest");
    pair.canonical.push_u64("a.count", &[], 7);
    pair.host.push_f64("a.rate", &[], 9.5);
    let written = pair.write(&dir).expect("write succeeds");
    assert_eq!(written.len(), 3);
    let canonical = std::fs::read_to_string(dir.join("BENCH_E98.json")).expect("canonical exists");
    assert_eq!(
        Artifact::from_json(&canonical).expect("parses").class,
        Class::Virtual
    );
    let host = std::fs::read_to_string(dir.join("BENCH_E98.host.json")).expect("host exists");
    assert_eq!(
        Artifact::from_json(&host).expect("parses").class,
        Class::Host
    );
    let prom = std::fs::read_to_string(dir.join("BENCH_E98.prom")).expect("prom exists");
    assert!(prom.contains("a_count{class=\"virtual\"} 7"), "{prom}");
    assert!(prom.contains("a_rate{class=\"host\"} 9.5"), "{prom}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exposition_renders_quantile_series_for_dists() {
    let artifact = service_artifact();
    let text = render_exposition(&[&artifact]);
    assert!(text.contains("svc_verify_ns_count{class=\"virtual\"} 4"));
    assert!(text.contains("quantile=\"0.999\""));
    assert!(text.lines().any(|l| l.starts_with("# experiment E99")));
}
