//! Outside-in tracing: spans recorded by the benchmark around each call it
//! makes into a layer of the program.
//!
//! The program itself carries no tracing for this; every span here starts
//! and ends in benchmark code. Spans of one op share its id, stay in memory
//! during the run, and are written out once it ends. A span's self time is
//! its duration minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use utp_server::metrics::HostStopwatch;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The op this call belongs to; every span of one op shares it.
    pub op: u64,
    /// The span that made this call, if any.
    pub parent: Option<SpanId>,
    /// Layer-qualified name of the call (`provider.place_order`, ...).
    pub name: &'static str,
    /// Host nanoseconds since the log was created.
    pub start_ns: u64,
    /// Host nanoseconds since the log was created.
    pub end_ns: u64,
}

/// Per-name totals over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl SpanStats {
    /// Mean duration per span, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e3
    }

    /// Mean self time per span, µs.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.count as f64 / 1e3
    }
}

/// In-memory span store. A disabled log records nothing and reads no
/// clock, so untraced runs go through the same code at no cost.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    clock: HostStopwatch,
    spans: Vec<Span>,
    next_op: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty, recording log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            enabled: true,
            clock: HostStopwatch::start(),
            spans: Vec::new(),
            next_op: 0,
        }
    }

    /// A log that records nothing.
    pub fn disabled() -> SpanLog {
        SpanLog {
            enabled: false,
            ..SpanLog::new()
        }
    }

    /// True when spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.clock.elapsed().as_nanos() as u64
    }

    /// Allocates a fresh op id.
    pub fn new_op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }

    /// Opens a span; close it with [`SpanLog::end`].
    pub fn begin(&mut self, op: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`SpanLog::begin`].
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(op, parent, name);
        let value = f();
        self.end(id);
        value
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name count, total and self time.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(id);
            }
        }
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut kids: Vec<(u64, u64)> = children[id]
                .iter()
                .map(|&c| {
                    let k = &self.spans[c];
                    (k.start_ns.max(s.start_ns), k.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes the spans as JSON lines: `op`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"op\":{},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_merged_child_coverage() {
        let mut log = SpanLog::new();
        let op = log.new_op();
        log.spans = vec![
            Span {
                op,
                parent: None,
                name: "root",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                op,
                parent: Some(0),
                name: "a",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                op,
                parent: Some(0),
                name: "a",
                start_ns: 30,
                end_ns: 50,
            },
            Span {
                op,
                parent: Some(0),
                name: "b",
                start_ns: 90,
                end_ns: 120,
            },
        ];
        let s = log.summary();
        // Children cover [10, 50) and [90, 100) of the root.
        assert_eq!(s["root"].self_ns, 50);
        assert_eq!(s["a"].count, 2);
        assert_eq!(s["a"].self_ns, 50);
        assert_eq!(s["b"].total_ns, 30);
    }
}
