//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only by the benchmark, around its calls into the
//! program's public functions; nothing inside the program is instrumented.
//! They stay in memory until [`Tracer::write`] dumps them, with each span
//! name's self time: a span's duration minus the part of it its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one operation (one spec run, one request).
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh identifier for a new operation's spans.
    pub fn new_trace(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent nested spans on. With tracing off this is a plain call.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let result = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned").push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        result
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes every span plus the per-name totals as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"totals\":{{")?;
        let totals = totals(&spans);
        for (i, (name, t)) in totals.iter().enumerate() {
            let comma = if i + 1 < totals.len() { "," } else { "" };
            writeln!(
                out,
                "\"{name}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}{comma}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            )?;
        }
        writeln!(out, "}},\"spans\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Aggregates spans per name. Self time subtracts the union of each span's
/// children, clipped to the span, so overlapping children count once.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for s in spans {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "child", 10, 40),
            span(3, Some(1), "child", 30, 60), // overlaps the first child
            span(4, Some(2), "leaf", 10, 20),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"].self_ns, 100 - 50);
        assert_eq!(t["child"].total_ns, 60);
        assert_eq!(t["child"].self_ns, 60 - 10);
        assert_eq!(t["leaf"].self_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", None, 1, |_| 7), 7);
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        let trace = tracer.new_trace();
        tracer.span("outer", None, trace, |id| {
            tracer.span("inner", Some(id), trace, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
