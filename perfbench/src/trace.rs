//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing inside the program is instrumented: a span brackets a
//! public call the benchmark makes.

use std::io::Write as _;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One timed call: its name, start and end (ns since the run's origin),
/// the span that caused it, and the operation it belongs to.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.select`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// The query, batch or session this span belongs to.
    pub op: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer; written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer timing from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    #[inline]
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            op,
        });
        id
    }

    /// Closes span `id` and returns its duration in ns.
    #[inline]
    pub fn close(&mut self, id: u32) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, sorted ascending.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let mut d: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        d.sort_unstable();
        d
    }

    /// Writes every span as CSV (`id,name,start_ns,end_ns,parent,op`;
    /// `parent` is empty for a root span).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,op")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                String::new()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i},{},{},{},{parent},{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

/// Median cost (ns) of one empty open/close pair: the floor under every
/// span duration.
pub fn timer_floor_ns() -> f64 {
    let mut t = Tracer::new(Instant::now());
    let mut d: Vec<u64> = (0..10_001)
        .map(|_| {
            let id = t.open("trace.empty", ROOT, 0);
            t.close(id)
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans() {
        let mut t = Tracer::new(Instant::now());
        for op in 1..=2 {
            let root = t.open("op", ROOT, op);
            let child = t.open("core.select", root, op);
            t.close(child);
            t.close(root);
        }
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[3].parent, 2);
        assert_eq!(t.durations("core.select").len(), 2);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
