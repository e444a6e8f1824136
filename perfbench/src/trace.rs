//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is opened right before the benchmark calls into a layer (the
//! simulator, the replica tier, the facade, ...) and closed right after.
//! Spans nest through a stack, so each one knows the span that was open
//! when it started. Spans stay in memory until the run ends; recording
//! costs one `Instant::now` per boundary and nothing at all when the
//! tracer is disabled.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `layer.call` (e.g. `sim.run`).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Request shared by every span of one write or one archived object.
    pub request: Option<u64>,
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a span must be closed with Tracer::end"]
pub struct SpanId(usize);

const DISABLED: SpanId = SpanId(usize::MAX);

/// Busy time attributed to one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed durations minus the time covered by child spans, seconds.
    pub self_s: f64,
}

/// Span recorder; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, request: Option<u64>) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let now = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the benchmark).
    pub fn end(&mut self, id: SpanId) {
        if id == DISABLED {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals. A span's self time is its duration minus the time
    /// its direct children cover; children run on one thread one
    /// after another, so their durations never overlap and simply add.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Writes every span as one JSON object per line, tagged with `episode`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl(&self, out: &mut impl Write, episode: usize) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let request = s
                .request
                .map_or_else(|| "null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"episode\":{episode},\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Appends the spans of traced episode `episode` to `path`, creating the
/// file and its directory as needed.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn append_spans(path: &Path, tr: &Tracer, episode: usize) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    let mut out = io::BufWriter::new(file);
    tr.write_jsonl(&mut out, episode)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("sim.run", None);
        tr.end(id);
        assert!(tr.spans().is_empty());
        assert!(tr.layer_times().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        // Hand-built spans: a 100 ns root holding children of 30 and 20 ns,
        // one of which holds a 5 ns grandchild.
        tr.spans = vec![
            Span {
                name: "workload.run",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: None,
            },
            Span {
                name: "sim.run",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                request: None,
            },
            Span {
                name: "core.update",
                start_ns: 50,
                end_ns: 70,
                parent: Some(0),
                request: Some(3),
            },
            Span {
                name: "sim.run",
                start_ns: 60,
                end_ns: 65,
                parent: Some(2),
                request: Some(3),
            },
        ];
        let t = tr.layer_times();
        assert_eq!(t["workload.run"].calls, 1);
        assert!((t["workload.run"].self_s - 50e-9).abs() < 1e-15);
        assert!((t["core.update"].self_s - 15e-9).abs() < 1e-15);
        assert_eq!(t["sim.run"].calls, 2);
        assert!((t["sim.run"].self_s - 35e-9).abs() < 1e-15);
        assert!((t["sim.run"].total_s - 35e-9).abs() < 1e-15);
    }

    #[test]
    fn nesting_records_parents_and_requests() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("workload.run", None);
        let inner = tr.begin("replica.submit", Some(7));
        tr.end(inner);
        let run = tr.begin("sim.run", None);
        tr.end(run);
        tr.end(root);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].request, Some(7));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|sp| sp.end_ns >= sp.start_ns));
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf, 2).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).expect("line").contains("\"request\":7"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut tr = Tracer::new(true);
        let a = tr.begin("a", None);
        let _b = tr.begin("b", None);
        tr.end(a);
    }
}
