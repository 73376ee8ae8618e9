//! The perf-regression gate: checked-in baselines, per-metric
//! tolerance bands, and the comparator behind `utp-obs gate`.
//!
//! Baselines live under `scripts/bench_baseline/`, one file per
//! artifact, in the artifact format plus a `tol` field per metric.
//! Tolerance is *relative deviation*: a comparison fails when
//! `|new - old| / max(|old|, 1) > tol`. Virtual-class baselines
//! default to `tol = 0` (the virtual clock makes them exact
//! everywhere); host-class baselines default to an order-of-magnitude
//! band and are typically enforced only by the nightly CI job — the
//! same drift-gate shape as the measured-TCB and authz-spec baselines.

use crate::artifact::{
    parse_header, parse_metric, render_metric, Artifact, Class, Metric, MetricId, MetricValue,
};
use crate::json::{escape_into, Json};
use std::collections::BTreeMap;

/// Baseline schema identifier; bump on breaking format changes.
pub const BASELINE_SCHEMA: &str = "utp-bench-baseline/v1";

/// One baselined metric: the recorded value plus its tolerance band.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineMetric {
    /// The recorded metric.
    pub metric: Metric,
    /// Maximum allowed relative deviation.
    pub tol: f64,
}

/// A checked-in perf baseline for one artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Experiment key, matched against the artifact's.
    pub experiment: String,
    /// Determinism class, matched against the artifact's.
    pub class: Class,
    /// Run configuration the baseline was recorded at; a mismatch is a
    /// hard failure (comparing different workloads is meaningless).
    pub config: String,
    /// The baselined metrics.
    pub metrics: Vec<BaselineMetric>,
}

impl Baseline {
    /// Records a baseline from a fresh artifact with the class's
    /// default tolerance on every metric.
    pub fn from_artifact(artifact: &Artifact) -> Baseline {
        let tol = artifact.class.default_tolerance();
        Baseline {
            experiment: artifact.experiment.clone(),
            class: artifact.class,
            config: artifact.config.clone(),
            metrics: artifact
                .metrics
                .iter()
                .map(|m| BaselineMetric {
                    metric: m.clone(),
                    tol,
                })
                .collect(),
        }
    }

    /// Carries hand-tuned tolerances forward from a previous baseline:
    /// any metric id present in `old` keeps `old`'s tolerance.
    pub fn inherit_tolerances(&mut self, old: &Baseline) {
        let by_id: BTreeMap<&MetricId, f64> =
            old.metrics.iter().map(|b| (&b.metric.id, b.tol)).collect();
        for b in &mut self.metrics {
            if let Some(tol) = by_id.get(&b.metric.id) {
                b.tol = *tol;
            }
        }
    }

    /// Canonical serialization, mirroring [`Artifact::to_json`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{BASELINE_SCHEMA}\",\n"));
        out.push_str("  \"experiment\": \"");
        escape_into(&mut out, &self.experiment);
        out.push_str("\",\n");
        out.push_str(&format!("  \"class\": \"{}\",\n", self.class.as_str()));
        out.push_str("  \"config\": \"");
        escape_into(&mut out, &self.config);
        out.push_str("\",\n");
        let mut sorted: Vec<&BaselineMetric> = self.metrics.iter().collect();
        sorted.sort_by(|a, b| a.metric.id.cmp(&b.metric.id));
        if sorted.is_empty() {
            out.push_str("  \"metrics\": []\n}\n");
            return out;
        }
        out.push_str("  \"metrics\": [\n");
        for (i, b) in sorted.iter().enumerate() {
            out.push_str("    ");
            render_metric(&mut out, &b.metric, Some(b.tol));
            out.push_str(if i + 1 == sorted.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a baseline document.
    pub fn from_json(src: &str) -> Result<Baseline, String> {
        let doc = Json::parse(src)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != BASELINE_SCHEMA {
            return Err(format!(
                "unsupported schema `{schema}` (want `{BASELINE_SCHEMA}`)"
            ));
        }
        let (experiment, class, config) = parse_header(&doc)?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::items)
            .ok_or("missing metrics array")?
            .iter()
            .map(|v| {
                let (metric, tol) = parse_metric(v)?;
                Ok(BaselineMetric {
                    tol: tol.ok_or_else(|| {
                        format!("baseline metric `{}` missing tol", metric.id.render())
                    })?,
                    metric,
                })
            })
            .collect::<Result<Vec<BaselineMetric>, String>>()?;
        Ok(Baseline {
            experiment,
            class,
            config,
            metrics,
        })
    }
}

/// One failed comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateDiff {
    /// Rendered metric id (or a header field name).
    pub metric: String,
    /// Human-readable explanation with both values.
    pub detail: String,
}

/// The result of comparing one artifact against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct GateReport {
    /// Experiment key.
    pub experiment: String,
    /// Class compared.
    pub class: Class,
    /// Out-of-band metrics — any entry fails the gate.
    pub diffs: Vec<GateDiff>,
    /// Informational notes (new metrics not yet baselined).
    pub notes: Vec<String>,
}

impl GateReport {
    /// True when the artifact is within every tolerance band.
    pub fn clean(&self) -> bool {
        self.diffs.is_empty()
    }
}

/// Relative deviation with a unit floor, so baselines near zero don't
/// explode the ratio (a count moving 0 → 1 deviates by 1.0, not ∞).
fn deviation(old: f64, new: f64) -> f64 {
    (new - old).abs() / old.abs().max(1.0)
}

fn check(diffs: &mut Vec<GateDiff>, id: &str, tol: f64, old: f64, new: f64) {
    let dev = deviation(old, new);
    // An epsilon absorbs the parse/format round-trip of f64 metrics;
    // integer metrics compare exactly at tol = 0 regardless.
    if dev > tol + 1e-9 {
        diffs.push(GateDiff {
            metric: id.to_string(),
            detail: format!(
                "baseline {old}, got {new} (deviation {:.1}% > tol {:.0}%)",
                dev * 100.0,
                tol * 100.0
            ),
        });
    }
}

/// Compares an artifact against its baseline.
pub fn compare(baseline: &Baseline, artifact: &Artifact) -> GateReport {
    let mut report = GateReport {
        experiment: baseline.experiment.clone(),
        class: baseline.class,
        diffs: Vec::new(),
        notes: Vec::new(),
    };
    if artifact.experiment != baseline.experiment {
        report.diffs.push(GateDiff {
            metric: "experiment".to_string(),
            detail: format!(
                "baseline is for `{}`, artifact is `{}`",
                baseline.experiment, artifact.experiment
            ),
        });
        return report;
    }
    if artifact.class != baseline.class {
        report.diffs.push(GateDiff {
            metric: "class".to_string(),
            detail: format!(
                "baseline class `{}`, artifact class `{}`",
                baseline.class.as_str(),
                artifact.class.as_str()
            ),
        });
        return report;
    }
    if artifact.config != baseline.config {
        report.diffs.push(GateDiff {
            metric: "config".to_string(),
            detail: format!(
                "baseline recorded at `{}`, artifact ran at `{}` — refresh baselines \
                 (scripts/record_experiments.sh --refresh-perf-baselines) if the change \
                 is intentional",
                baseline.config, artifact.config
            ),
        });
        return report;
    }
    let by_id: BTreeMap<&MetricId, &MetricValue> =
        artifact.metrics.iter().map(|m| (&m.id, &m.value)).collect();
    let mut baselined: Vec<&MetricId> = Vec::new();
    for b in &baseline.metrics {
        let id = b.metric.id.render();
        baselined.push(&b.metric.id);
        let Some(value) = by_id.get(&b.metric.id) else {
            report.diffs.push(GateDiff {
                metric: id,
                detail: "present in baseline, missing from artifact".to_string(),
            });
            continue;
        };
        match (&b.metric.value, value) {
            (MetricValue::U64(old), MetricValue::U64(new)) => {
                check(&mut report.diffs, &id, b.tol, *old as f64, *new as f64);
            }
            (MetricValue::F64(old), MetricValue::F64(new)) => {
                check(&mut report.diffs, &id, b.tol, *old, *new);
            }
            (MetricValue::Dist(old), MetricValue::Dist(new)) => {
                for ((field, o), (_, n)) in old.fields().iter().zip(new.fields().iter()) {
                    check(
                        &mut report.diffs,
                        &format!("{id}.{field}"),
                        b.tol,
                        *o as f64,
                        *n as f64,
                    );
                }
            }
            (old, new) => {
                report.diffs.push(GateDiff {
                    metric: id,
                    detail: format!("value kind changed: baseline {old:?}, artifact {new:?}"),
                });
            }
        }
    }
    for m in &artifact.metrics {
        if !baselined.contains(&&m.id) {
            report.notes.push(format!(
                "new metric `{}` not in baseline (refresh baselines to start guarding it)",
                m.id.render()
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Dist;

    fn artifact() -> Artifact {
        let mut a = Artifact::new("E7", Class::Virtual, "n=4");
        a.push_u64("e7.count", &[("s", "0")], 100);
        a.push_f64("e7.rate", &[], 50.0);
        a.push_dist(
            "e7.lat",
            &[],
            Dist {
                count: 4,
                sum: 100,
                min: 10,
                p50: 25,
                p90: 30,
                p99: 30,
                p999: 30,
                max: 35,
            },
        );
        a
    }

    #[test]
    fn identical_artifact_is_clean() {
        let a = artifact();
        let b = Baseline::from_artifact(&a);
        let report = compare(&b, &a);
        assert!(report.clean(), "{:?}", report.diffs);
        assert!(report.notes.is_empty());
    }

    #[test]
    fn perturbed_value_fails_with_per_metric_diff() {
        let a = artifact();
        let mut b = Baseline::from_artifact(&a);
        for m in &mut b.metrics {
            if let MetricValue::U64(v) = &mut m.metric.value {
                *v += 1;
            }
        }
        let report = compare(&b, &a);
        assert_eq!(report.diffs.len(), 1);
        assert_eq!(report.diffs[0].metric, "e7.count{s=0}");
        assert!(report.diffs[0].detail.contains("baseline 101, got 100"));
    }

    #[test]
    fn tolerance_band_absorbs_host_noise() {
        let mut a = artifact();
        a.class = Class::Host;
        let b = Baseline::from_artifact(&a);
        let mut noisy = a.clone();
        for m in &mut noisy.metrics {
            if let MetricValue::F64(v) = &mut m.value {
                *v *= 3.0;
            }
        }
        let report = compare(&b, &noisy);
        assert!(
            report.clean(),
            "3x drift within the 10x band: {:?}",
            report.diffs
        );
    }

    #[test]
    fn dist_fields_are_checked_individually() {
        let a = artifact();
        let mut b = Baseline::from_artifact(&a);
        for m in &mut b.metrics {
            if let MetricValue::Dist(d) = &mut m.metric.value {
                d.p999 = 999;
            }
        }
        let report = compare(&b, &a);
        assert_eq!(report.diffs.len(), 1);
        assert_eq!(report.diffs[0].metric, "e7.lat.p999");
    }

    #[test]
    fn missing_and_extra_metrics_are_reported() {
        let a = artifact();
        let mut b = Baseline::from_artifact(&a);
        b.metrics.push(BaselineMetric {
            metric: Metric {
                id: MetricId::new("e7.gone", &[]),
                value: MetricValue::U64(1),
            },
            tol: 0.0,
        });
        let mut extra = a.clone();
        extra.push_u64("e7.brand_new", &[], 5);
        let report = compare(&b, &extra);
        assert_eq!(report.diffs.len(), 1, "{:?}", report.diffs);
        assert!(report.diffs[0].detail.contains("missing from artifact"));
        assert_eq!(report.notes.len(), 1);
        assert!(report.notes[0].contains("e7.brand_new"));
    }

    #[test]
    fn config_mismatch_is_a_hard_failure() {
        let a = artifact();
        let mut b = Baseline::from_artifact(&a);
        b.config = "n=8".to_string();
        let report = compare(&b, &a);
        assert_eq!(report.diffs.len(), 1);
        assert_eq!(report.diffs[0].metric, "config");
    }

    #[test]
    fn baseline_round_trips_and_inherits_tolerances() {
        let a = artifact();
        let mut b = Baseline::from_artifact(&a);
        b.metrics[1].tol = 0.25;
        let parsed = Baseline::from_json(&b.to_json()).unwrap();
        assert_eq!(parsed.to_json(), b.to_json());
        let mut fresh = Baseline::from_artifact(&a);
        fresh.inherit_tolerances(&parsed);
        let tuned = fresh
            .metrics
            .iter()
            .find(|m| m.metric.id == b.metrics[1].metric.id)
            .unwrap();
        assert_eq!(tuned.tol, 0.25, "hand-tuned tolerance carried forward");
    }
}
