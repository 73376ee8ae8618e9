//! Span/event model: typed field values, the static key registry, and
//! the stable JSONL rendering of one record.
//!
//! Every record is stamped in **virtual time** (the simulated `Machine`
//! clock), so a trace of a deterministic run is itself deterministic.
//! Host-CPU measurements (obtained through `metrics::host_timed`) may be
//! attached only as [`Value::HostNs`] fields on records marked
//! *volatile*; volatile records are excluded from the canonical export
//! that the determinism smoke test diffs byte-for-byte.

use std::time::Duration;

/// A typed field value attached to a trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Unsigned integer: counts, sizes, sequence numbers.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Short label (vendor name, outcome); escaped on export.
    Str(String),
    /// A duration in *virtual* (simulated-clock) nanoseconds.
    VirtualNs(u64),
    /// A duration measured on the host CPU. Records carrying one must be
    /// emitted through the `*_volatile` entry points so they stay out of
    /// the canonical export.
    HostNs(u64),
    /// Boolean flag (cache hit, accepted).
    Bool(bool),
}

impl Value {
    /// True for values that are inherently run-dependent (host time).
    pub fn is_host_measured(&self) -> bool {
        matches!(self, Value::HostNs(_))
    }
}

/// The static registry of span/event names. Emission asserts (in debug
/// builds) that every record uses a name from this list, so the set of
/// trace points stays reviewable in one place.
pub mod names {
    /// One TPM command dispatched through the device's cost model.
    pub const TPM_CMD: &str = "tpm.cmd";
    /// OS quiesce before the DRTM launch.
    pub const SESSION_SUSPEND: &str = "session.suspend";
    /// SKINIT/SENTER latency (DRTM launch).
    pub const SESSION_SKINIT: &str = "session.skinit";
    /// PAL compute time inside the session.
    pub const SESSION_PAL: &str = "session.pal";
    /// Human read-and-confirm time.
    pub const SESSION_HUMAN: &str = "session.human";
    /// Quote generation (attestation) time.
    pub const SESSION_ATTEST: &str = "session.attest";
    /// OS resume after the session.
    pub const SESSION_RESUME: &str = "session.resume";
    /// One simulated network leg (client/server delivery).
    pub const NET_DELIVER: &str = "net.deliver";
    /// Server-side evidence verification folded into virtual time.
    pub const FLOW_VERIFY: &str = "flow.verify";
    /// A job handed to the verification service (submitter side).
    pub const SVC_SUBMIT: &str = "svc.submit";
    /// One job's life inside the service (worker side; host-timed).
    pub const SVC_JOB: &str = "svc.job";
    /// AIK-certificate cache lookup outcome.
    pub const SVC_CACHE: &str = "svc.cache";
    /// Sampled intake queue depth.
    pub const SVC_QUEUE_DEPTH: &str = "svc.queue_depth";
    /// Graceful-shutdown drain progress.
    pub const SVC_DRAIN: &str = "svc.drain";
    /// One audit-log decision recorded by the service provider.
    pub const AUDIT_DECISION: &str = "audit.decision";
    /// Flight-recorder bookkeeping: ring overflow drop counts.
    pub const TRACE_DROPPED: &str = "trace.dropped";
    /// One record appended to the settlement WAL.
    pub const JOURNAL_APPEND: &str = "journal.append";
    /// One WAL durability barrier (group-commit flush).
    pub const JOURNAL_FLUSH: &str = "journal.flush";
    /// One recovery pass (snapshot + log replay).
    pub const JOURNAL_RECOVER: &str = "journal.recover";

    /// Every registered name, for validation and docs.
    pub const ALL: &[&str] = &[
        TPM_CMD,
        SESSION_SUSPEND,
        SESSION_SKINIT,
        SESSION_PAL,
        SESSION_HUMAN,
        SESSION_ATTEST,
        SESSION_RESUME,
        NET_DELIVER,
        FLOW_VERIFY,
        SVC_SUBMIT,
        SVC_JOB,
        SVC_CACHE,
        SVC_QUEUE_DEPTH,
        SVC_DRAIN,
        AUDIT_DECISION,
        TRACE_DROPPED,
        JOURNAL_APPEND,
        JOURNAL_FLUSH,
        JOURNAL_RECOVER,
    ];

    /// Whether `name` is in the registry.
    pub fn is_registered(name: &str) -> bool {
        ALL.contains(&name)
    }
}

/// The static registry of field keys (same contract as [`names`]).
pub mod keys {
    /// TPM command name (`quote`, `extend`, ...).
    pub const OP: &str = "op";
    /// TPM vendor timing model.
    pub const VENDOR: &str = "vendor";
    /// Command payload size in bytes.
    pub const PAYLOAD: &str = "payload";
    /// Confirmation mode (`press-enter`, `type-code`).
    pub const MODE: &str = "mode";
    /// Deterministic submission sequence number.
    pub const SEQ: &str = "seq";
    /// Settlement shard index.
    pub const SHARD: &str = "shard";
    /// Decision outcome label.
    pub const OUTCOME: &str = "outcome";
    /// Cache hit (`true`) vs miss (`false`).
    pub const HIT: &str = "hit";
    /// Sampled queue depth.
    pub const DEPTH: &str = "depth";
    /// Host time spent waiting in the intake queue.
    pub const WAIT_HOST: &str = "wait_host";
    /// Host time spent verifying.
    pub const VERIFY_HOST: &str = "verify_host";
    /// Order identifier.
    pub const ORDER: &str = "order";
    /// Jobs still pending (drain progress).
    pub const PENDING: &str = "pending";
    /// Records dropped by a ring buffer.
    pub const DROPPED: &str = "dropped";
    /// Bytes moved over a simulated link.
    pub const BYTES: &str = "bytes";
    /// Direction or peer label for a network leg.
    pub const LEG: &str = "leg";
    /// Worker thread index.
    pub const WORKER: &str = "worker";
    /// Journal records covered by an operation (replayed, flushed, ...).
    pub const RECORDS: &str = "records";

    /// Every registered field key.
    pub const ALL: &[&str] = &[
        OP,
        VENDOR,
        PAYLOAD,
        MODE,
        SEQ,
        SHARD,
        OUTCOME,
        HIT,
        DEPTH,
        WAIT_HOST,
        VERIFY_HOST,
        ORDER,
        PENDING,
        DROPPED,
        BYTES,
        LEG,
        WORKER,
        RECORDS,
    ];

    /// Whether `k` is in the registry.
    pub fn is_registered(k: &str) -> bool {
        ALL.contains(&k)
    }
}

/// One trace record: a span (has a duration) or an instantaneous event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual timestamp: offset from simulation start.
    pub ts: Duration,
    /// Span duration in virtual time; `None` for point events.
    pub dur: Option<Duration>,
    /// Deterministic track label (e.g. `session/atmel/enter`, `worker/3`).
    pub track: String,
    /// Registered span/event name (see [`names`]).
    pub name: &'static str,
    /// Typed fields, in emission order.
    pub fields: Vec<(&'static str, Value)>,
    /// Volatile records carry host-measured or scheduling-dependent data
    /// and are excluded from the canonical export.
    pub volatile: bool,
}

impl TraceRecord {
    /// Stable single-line JSON rendering (hand-rolled; field order is
    /// emission order, scalar keys first).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str(&format!("{{\"ts_ns\":{}", self.ts.as_nanos()));
        if let Some(d) = self.dur {
            out.push_str(&format!(",\"dur_ns\":{}", d.as_nanos()));
        }
        out.push_str(",\"track\":\"");
        escape_into(&mut out, &self.track);
        out.push_str("\",\"name\":\"");
        escape_into(&mut out, self.name);
        out.push('"');
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(&mut out, k);
                out.push_str("\":");
                render_value(&mut out, v);
            }
            out.push('}');
        }
        if self.volatile {
            out.push_str(",\"volatile\":true");
        }
        out.push('}');
        out
    }
}

fn render_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Value::VirtualNs(n) => out.push_str(&format!("{{\"virtual_ns\":{n}}}")),
        Value::HostNs(n) => out.push_str(&format!("{{\"host_ns\":{n}}}")),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Appends `s` as JSON string *content* (no surrounding quotes),
/// escaping quote, backslash and control characters. The workspace's
/// one JSON string escaper (`utp_obs::json` re-exports it).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_are_duplicate_free() {
        for (i, n) in names::ALL.iter().enumerate() {
            assert!(!names::ALL[..i].contains(n), "duplicate name {n}");
        }
        for (i, k) in keys::ALL.iter().enumerate() {
            assert!(!keys::ALL[..i].contains(k), "duplicate key {k}");
        }
    }

    #[test]
    fn json_rendering_is_stable_and_escaped() {
        let rec = TraceRecord {
            ts: Duration::from_nanos(1500),
            dur: Some(Duration::from_nanos(10)),
            track: "session/0".to_string(),
            name: names::TPM_CMD,
            fields: vec![
                (keys::OP, Value::Str("qu\"ote".to_string())),
                (keys::PAYLOAD, Value::U64(20)),
                (keys::HIT, Value::Bool(true)),
            ],
            volatile: false,
        };
        assert_eq!(
            rec.to_json(),
            "{\"ts_ns\":1500,\"dur_ns\":10,\"track\":\"session/0\",\
             \"name\":\"tpm.cmd\",\"fields\":{\"op\":\"qu\\\"ote\",\
             \"payload\":20,\"hit\":true}}"
        );
    }

    #[test]
    fn volatile_and_host_values_render() {
        let rec = TraceRecord {
            ts: Duration::ZERO,
            dur: None,
            track: "worker/1".to_string(),
            name: names::SVC_JOB,
            fields: vec![(keys::WAIT_HOST, Value::HostNs(42))],
            volatile: true,
        };
        let json = rec.to_json();
        assert!(json.ends_with(",\"volatile\":true}"));
        assert!(json.contains("{\"host_ns\":42}"));
        assert!(Value::HostNs(1).is_host_measured());
        assert!(!Value::U64(1).is_host_measured());
    }
}
