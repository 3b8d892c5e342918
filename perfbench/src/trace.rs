//! In-memory spans for the traced run, written out when the run ends.
//!
//! A span is recorded by the benchmark around a call into one layer's
//! public function: its name, start, end, the span that caused it and
//! the request (input, page or crawl) it belongs to.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared across threads. Spans are pushed under a lock;
/// the recorder is only ever enabled in the traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }
}

impl Tracer {
    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id, usable as a parent.
    pub fn record(
        &self,
        name: &'static str,
        parent: usize,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("tracer lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Open a span whose end is set later with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: usize, request: u64) -> usize {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("tracer lock poisoned")[id].end_ns = end;
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Write every span as a tab-separated line:
    /// `id name start_ns end_ns parent request`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, in ns.
pub fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Self time per span name: each span's duration minus the part of it
/// its child spans cover, summed by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let covered = union_ns(
            kids.into_iter()
                .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect(),
        );
        *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Total duration per span name, in ns.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.dur_ns();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: usize) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("root", 0, 100, ROOT),
            span("a", 10, 40, 0),
            span("b", 30, 50, 0),
            span("c", 60, 70, 0),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["root"], 100 - 40 - 10);
        assert_eq!(selfs["a"], 30);
    }
}
