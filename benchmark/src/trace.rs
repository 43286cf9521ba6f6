//! Spans recorded from the benchmark's own files, around its calls into the
//! program's public functions. Kept in memory, written out at exit.
//!
//! A disabled tracer records nothing, so the untraced run that yields the
//! end-to-end metrics pays for no span.

use std::io::Write;
use std::time::Instant;

/// Handle of a recorded span; `None` from a disabled tracer.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: SpanId,
    /// Request or repetition number; spans of one request share it.
    pub id: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span whose endpoints were taken by the caller (the same
    /// instants the untraced run times with, so tracing adds no clock read
    /// to the measured interval).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        id: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        });
        Some(self.spans.len() - 1)
    }

    /// Time `f`, and record the interval as a span when tracing is on.
    /// Returns the seconds it took beside its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> (f64, R) {
        let start = Instant::now();
        let result = f();
        let end = Instant::now();
        self.record(name, start, end, parent, id);
        (end.duration_since(start).as_secs_f64(), result)
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, id)
    }

    pub fn end(&mut self, span: SpanId) {
        if let Some(index) = span {
            self.spans[index].end_ns = self.ns(Instant::now());
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// A span's duration minus the part of it its child spans cover.
    /// Overlapping children are counted once.
    pub fn self_seconds(&self, span: usize) -> f64 {
        let parent = &self.spans[span];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(span))
            .map(|s| {
                (
                    s.start_ns.clamp(parent.start_ns, parent.end_ns),
                    s.end_ns.clamp(parent.start_ns, parent.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (parent.end_ns - parent.start_ns - covered) as f64 * 1e-9
    }

    /// Write every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"id\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at(t: &Tracer, ns: u64) -> Instant {
        t.origin + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        let root = t.record("root", at(&t, 0), at(&t, 1000), None, 0);
        t.record("a", at(&t, 100), at(&t, 300), root, 0);
        // Overlaps `a` by 100 ns and sticks 50 ns out of the parent.
        t.record("b", at(&t, 200), at(&t, 400), root, 0);
        t.record("c", at(&t, 900), at(&t, 1050), root, 0);
        // A grandchild belongs to `a`, not to the root.
        t.record("a.inner", at(&t, 120), at(&t, 180), Some(1), 0);
        let root = root.unwrap();
        assert!((t.self_seconds(root) - 600e-9).abs() < 1e-15);
        assert!((t.self_seconds(1) - 140e-9).abs() < 1e-15);
        assert!((t.self_seconds(2) - 200e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("x", None, 0);
        t.end(s);
        assert_eq!(s, None);
        assert_eq!(t.span_count(), 0);
    }
}
