//! The schema-versioned perf artifact every experiment bin emits.
//!
//! One experiment produces an [`ArtifactPair`]: the *canonical*
//! artifact (`BENCH_<exp>.json`, class `virtual`) carries only
//! metrics derived from the virtual clock and seeded randomness — it
//! is byte-identical across runs and machines and the regression gate
//! holds it to zero drift — while the *host* artifact
//! (`BENCH_<exp>.host.json`, class `host`) carries wall-clock
//! measurements that vary run to run and get loose tolerance bands.
//! A Prometheus-style `.prom` rendering of both rides along for human
//! inspection.

use crate::json::{escape_into, Json};
use std::io;
use std::path::{Path, PathBuf};
use utp_trace::LatencyHistogram;

/// Artifact schema identifier; bump on breaking format changes.
pub const SCHEMA: &str = "utp-bench-artifact/v1";

/// Determinism class of a metric set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Virtual-clock / seeded values: byte-reproducible everywhere.
    Virtual,
    /// Host-clock measurements: machine- and load-dependent.
    Host,
}

impl Class {
    /// Wire name (`"virtual"` / `"host"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Class::Virtual => "virtual",
            Class::Host => "host",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Result<Class, String> {
        match s {
            "virtual" => Ok(Class::Virtual),
            "host" => Ok(Class::Host),
            other => Err(format!("unknown class `{other}`")),
        }
    }

    /// Default gate tolerance: virtual metrics are exact; host metrics
    /// get an order-of-magnitude band (they only guard against
    /// collapse, and the per-PR gate treats them as warnings anyway).
    pub fn default_tolerance(&self) -> f64 {
        match self {
            Class::Virtual => 0.0,
            Class::Host => 9.0,
        }
    }
}

/// A latency distribution flattened out of a [`LatencyHistogram`],
/// in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Dist {
    /// Sample count.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Minimum (0 when empty).
    pub min: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

impl Dist {
    /// Flattens a histogram through its public accessors.
    pub fn of(h: &LatencyHistogram) -> Dist {
        if h.is_empty() {
            return Dist::default();
        }
        Dist {
            count: h.count(),
            sum: h.sum().as_nanos() as u64,
            min: h.min().as_nanos() as u64,
            p50: h.p50().as_nanos() as u64,
            p90: h.p90().as_nanos() as u64,
            p99: h.p99().as_nanos() as u64,
            p999: h.p999().as_nanos() as u64,
            max: h.max().as_nanos() as u64,
        }
    }

    /// The `(field, value)` pairs in canonical order.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("count", self.count),
            ("sum", self.sum),
            ("min", self.min),
            ("p50", self.p50),
            ("p90", self.p90),
            ("p99", self.p99),
            ("p999", self.p999),
            ("max", self.max),
        ]
    }
}

/// The value of one artifact metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    /// Exact integer (counts, nanoseconds, watermarks).
    U64(u64),
    /// Derived rate (ops/sec, hit rates). Must be finite.
    F64(f64),
    /// Latency distribution.
    Dist(Dist),
}

/// A metric's identity: a dotted name plus sorted `key=value` labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Dotted metric name (`svc.jobs_shed`).
    pub name: String,
    /// Label set, sorted by key (then value).
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id, sorting the labels into canonical order.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> MetricId {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders as `name{k=v,...}` (or bare `name` without labels).
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let body: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        format!("{}{{{}}}", self.name, body.join(","))
    }
}

/// One named, labeled metric inside an artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Identity (name + sorted labels).
    pub id: MetricId,
    /// The value.
    pub value: MetricValue,
}

/// A schema-versioned set of metrics from one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Experiment key (`"E10"`), also the artifact file stem.
    pub experiment: String,
    /// Determinism class of every metric in this artifact.
    pub class: Class,
    /// Human-readable run configuration; the gate refuses to compare
    /// artifacts recorded at different configurations.
    pub config: String,
    /// The metrics. Sorted by id at serialization time.
    pub metrics: Vec<Metric>,
}

impl Artifact {
    /// An empty artifact.
    pub fn new(experiment: &str, class: Class, config: &str) -> Artifact {
        Artifact {
            experiment: experiment.to_string(),
            class,
            config: config.to_string(),
            metrics: Vec::new(),
        }
    }

    /// Appends an exact integer metric.
    pub fn push_u64(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        self.metrics.push(Metric {
            id: MetricId::new(name, labels),
            value: MetricValue::U64(v),
        });
    }

    /// Appends a derived-rate metric. Panics on non-finite values —
    /// they have no JSON representation and no meaningful tolerance.
    pub fn push_f64(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        assert!(v.is_finite(), "non-finite metric `{name}`: {v}");
        self.metrics.push(Metric {
            id: MetricId::new(name, labels),
            value: MetricValue::F64(v),
        });
    }

    /// Appends a distribution metric.
    pub fn push_dist(&mut self, name: &str, labels: &[(&str, &str)], d: Dist) {
        self.metrics.push(Metric {
            id: MetricId::new(name, labels),
            value: MetricValue::Dist(d),
        });
    }

    /// Appends a histogram, flattened.
    pub fn push_hist(&mut self, name: &str, labels: &[(&str, &str)], h: &LatencyHistogram) {
        self.push_dist(name, labels, Dist::of(h));
    }

    /// Metrics sorted by id; panics on duplicate ids (two pushes of
    /// the same `name{labels}` would make the gate's lookup ambiguous).
    fn sorted_metrics(&self) -> Vec<&Metric> {
        let mut sorted: Vec<&Metric> = self.metrics.iter().collect();
        sorted.sort_by(|a, b| a.id.cmp(&b.id));
        for pair in sorted.windows(2) {
            assert!(
                pair[0].id != pair[1].id,
                "duplicate metric `{}` in artifact {}",
                pair[0].id.render(),
                self.experiment
            );
        }
        sorted
    }

    /// Canonical serialization: headers, then one sorted metric per
    /// line. Byte-identical for equal contents, regardless of push
    /// order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"experiment\": \"");
        escape_into(&mut out, &self.experiment);
        out.push_str("\",\n");
        out.push_str(&format!("  \"class\": \"{}\",\n", self.class.as_str()));
        out.push_str("  \"config\": \"");
        escape_into(&mut out, &self.config);
        out.push_str("\",\n");
        let sorted = self.sorted_metrics();
        if sorted.is_empty() {
            out.push_str("  \"metrics\": []\n}\n");
            return out;
        }
        out.push_str("  \"metrics\": [\n");
        for (i, m) in sorted.iter().enumerate() {
            out.push_str("    ");
            render_metric(&mut out, m, None);
            out.push_str(if i + 1 == sorted.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a canonical artifact document.
    pub fn from_json(src: &str) -> Result<Artifact, String> {
        let doc = Json::parse(src)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or("missing schema")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let (experiment, class, config) = parse_header(&doc)?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::items)
            .ok_or("missing metrics array")?
            .iter()
            .map(parse_metric)
            .collect::<Result<Vec<(Metric, Option<f64>)>, String>>()?
            .into_iter()
            .map(|(m, _)| m)
            .collect();
        Ok(Artifact {
            experiment,
            class,
            config,
            metrics,
        })
    }
}

/// Parses the header fields shared by artifacts and baselines.
pub(crate) fn parse_header(doc: &Json) -> Result<(String, Class, String), String> {
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("missing experiment")?
        .to_string();
    let class = Class::parse(
        doc.get("class")
            .and_then(Json::as_str)
            .ok_or("missing class")?,
    )?;
    let config = doc
        .get("config")
        .and_then(Json::as_str)
        .ok_or("missing config")?
        .to_string();
    Ok((experiment, class, config))
}

/// Renders one metric object onto a single line. `tol` is appended for
/// baseline files.
pub(crate) fn render_metric(out: &mut String, m: &Metric, tol: Option<f64>) {
    out.push_str("{\"name\":\"");
    escape_into(out, &m.id.name);
    out.push_str("\",\"labels\":{");
    for (i, (k, v)) in m.id.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":\"");
        escape_into(out, v);
        out.push('"');
    }
    out.push_str("},");
    match &m.value {
        MetricValue::U64(v) => out.push_str(&format!("\"u64\":{v}")),
        MetricValue::F64(v) => out.push_str(&format!("\"f64\":{v:?}")),
        MetricValue::Dist(d) => {
            out.push_str("\"dist\":{");
            for (i, (k, v)) in d.fields().iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{k}\":{v}"));
            }
            out.push('}');
        }
    }
    if let Some(tol) = tol {
        out.push_str(&format!(",\"tol\":{tol:?}"));
    }
    out.push('}');
}

/// Parses one metric object; returns the optional `tol` field so the
/// baseline loader can share this.
pub(crate) fn parse_metric(v: &Json) -> Result<(Metric, Option<f64>), String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .ok_or("metric missing name")?;
    let labels = v
        .get("labels")
        .and_then(Json::entries)
        .ok_or("metric missing labels")?;
    let label_refs: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.as_str(), s))
                .ok_or_else(|| format!("non-string label `{k}`"))
        })
        .collect::<Result<_, String>>()?;
    let value = if let Some(u) = v.get("u64") {
        MetricValue::U64(u.as_u64().ok_or("bad u64 value")?)
    } else if let Some(f) = v.get("f64") {
        MetricValue::F64(f.as_f64().ok_or("bad f64 value")?)
    } else if let Some(d) = v.get("dist") {
        let field = |k: &str| -> Result<u64, String> {
            d.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("dist missing `{k}`"))
        };
        MetricValue::Dist(Dist {
            count: field("count")?,
            sum: field("sum")?,
            min: field("min")?,
            p50: field("p50")?,
            p90: field("p90")?,
            p99: field("p99")?,
            p999: field("p999")?,
            max: field("max")?,
        })
    } else {
        return Err(format!("metric `{name}` has no value field"));
    };
    let tol = match v.get("tol") {
        Some(t) => Some(t.as_f64().ok_or("bad tol value")?),
        None => None,
    };
    Ok((
        Metric {
            id: MetricId::new(name, &label_refs),
            value,
        },
        tol,
    ))
}

/// The canonical + host artifacts of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactPair {
    /// Virtual-clock metrics — byte-reproducible.
    pub canonical: Artifact,
    /// Host-clock metrics — machine-dependent.
    pub host: Artifact,
}

impl ArtifactPair {
    /// An empty pair for `experiment` at `config`.
    pub fn new(experiment: &str, config: &str) -> ArtifactPair {
        ArtifactPair {
            canonical: Artifact::new(experiment, Class::Virtual, config),
            host: Artifact::new(experiment, Class::Host, config),
        }
    }

    /// The three file names this pair serializes to.
    pub fn file_names(experiment: &str) -> (String, String, String) {
        (
            format!("BENCH_{experiment}.json"),
            format!("BENCH_{experiment}.host.json"),
            format!("BENCH_{experiment}.prom"),
        )
    }

    /// Writes `BENCH_<exp>.json`, `BENCH_<exp>.host.json`, and the
    /// `.prom` exposition into `dir` (created if missing); returns the
    /// paths written.
    pub fn write(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let (canonical, host, prom) = Self::file_names(&self.canonical.experiment);
        let paths = [
            (dir.join(canonical), self.canonical.to_json()),
            (dir.join(host), self.host.to_json()),
            (
                dir.join(prom),
                crate::expo::render_exposition(&[&self.canonical, &self.host]),
            ),
        ];
        let mut written = Vec::new();
        for (path, contents) in paths {
            std::fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_sort_labels_canonically() {
        let a = MetricId::new("m", &[("b", "2"), ("a", "1")]);
        let b = MetricId::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.render(), "m{a=1,b=2}");
        assert_eq!(MetricId::new("bare", &[]).render(), "bare");
    }

    fn sample() -> Artifact {
        let mut a = Artifact::new("E99", Class::Virtual, "jobs=8 key_bits=512");
        a.push_u64("e99.jobs", &[("threads", "2")], 8);
        a.push_f64("e99.rate", &[], 123.25);
        let mut h = LatencyHistogram::new();
        h.record_ns(1_000);
        h.record_ns(2_000);
        a.push_hist("e99.lat_ns", &[("mode", "svc")], &h);
        a
    }

    #[test]
    fn serialization_is_push_order_independent() {
        let a = sample();
        let mut b = Artifact::new("E99", Class::Virtual, "jobs=8 key_bits=512");
        let mut h = LatencyHistogram::new();
        h.record_ns(1_000);
        h.record_ns(2_000);
        b.push_hist("e99.lat_ns", &[("mode", "svc")], &h);
        b.push_f64("e99.rate", &[], 123.25);
        b.push_u64("e99.jobs", &[("threads", "2")], 8);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn round_trips_through_json() {
        let a = sample();
        let parsed = Artifact::from_json(&a.to_json()).unwrap();
        assert_eq!(parsed.experiment, a.experiment);
        assert_eq!(parsed.class, a.class);
        assert_eq!(parsed.config, a.config);
        // Parsed metrics come back in serialized (sorted) order;
        // compare as sorted sets.
        let mut ours = a.metrics.clone();
        ours.sort_by(|x, y| x.id.cmp(&y.id));
        assert_eq!(parsed.metrics, ours);
        assert_eq!(parsed.to_json(), a.to_json(), "re-serialize byte-equal");
    }

    #[test]
    #[should_panic(expected = "duplicate metric")]
    fn duplicate_ids_are_rejected() {
        let mut a = Artifact::new("E99", Class::Virtual, "x");
        a.push_u64("m", &[], 1);
        a.push_u64("m", &[], 2);
        let _ = a.to_json();
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_rates_are_rejected() {
        let mut a = Artifact::new("E99", Class::Host, "x");
        a.push_f64("m", &[], f64::INFINITY);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let doc = sample().to_json().replace("/v1", "/v0");
        assert!(Artifact::from_json(&doc).is_err());
    }

    #[test]
    fn empty_dist_is_all_zero() {
        assert_eq!(Dist::of(&LatencyHistogram::new()), Dist::default());
    }
}
