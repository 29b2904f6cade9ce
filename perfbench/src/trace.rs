//! The benchmark's own spans: each wraps one call into a layer's public API.
//!
//! Spans are kept in memory and written out when the run ends. A span has a
//! name, a start and an end (nanoseconds since the tracer started), the id
//! of the span that caused it (0 for an op's root) and the id of the op it
//! belongs to, so every span of one op shares that op id.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Op this span belongs to.
    pub op: u64,
    /// This span's id (unique within the run, never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for an op's root span.
    pub parent: u64,
    /// Layer-qualified name, e.g. `graph.read_edge_list`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl SpanRec {
    /// Span length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span store, shared by the benchmark's threads.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A fresh span id. Relaxed: the id publishes no other data.
    pub fn new_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn nanos(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span measured elsewhere (e.g. across threads).
    pub fn record(
        &self,
        op: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let rec = SpanRec {
            op,
            id,
            parent,
            name,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(rec);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Lengths in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::secs)
            .collect()
    }

    /// Writes every span as one JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{sep}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Runs `f`, recording it as span `name` of op `op` under `parent` when a
/// tracer is given. `f` receives the new span's id (0 when untraced) to
/// hand to its children.
pub fn span<R>(
    tracer: Option<&Tracer>,
    op: u64,
    parent: u64,
    name: &'static str,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tracer {
        None => f(0),
        Some(t) => {
            let id = t.new_id();
            let start = Instant::now();
            let out = f(id);
            t.record(op, id, parent, name, start, Instant::now());
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_share_op_and_link_parents() {
        let t = Tracer::new();
        span(Some(&t), 7, 0, "op", |root| {
            span(Some(&t), 7, root, "child", |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!((root.name, root.parent, root.op), ("op", 0, 7));
        assert_eq!((child.name, child.parent, child.op), ("child", root.id, 7));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert_eq!(t.durations("child").len(), 1);
    }

    #[test]
    fn untraced_span_records_nothing() {
        assert_eq!(span(None, 1, 0, "op", |id| id), 0);
    }
}
