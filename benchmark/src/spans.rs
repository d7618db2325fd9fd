//! The benchmark's own span recorder: spans are taken around calls into
//! the program's public functions, kept in a pre-sized `Vec`, and
//! written out as JSON lines when the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = usize;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `pipeline.enhance`.
    pub name: &'static str,
    /// The operation (study, slice, request) the span belongs to.
    pub op_id: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// In-memory span store, filled by the thread that drives the run.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// Recorder that will hold about `capacity` spans without growing.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Recorder {
            origin,
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Start a span now; finish it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op_id: u64, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.record(name, op_id, parent, now, now)
    }

    /// End an open span now and return its duration in milliseconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].ms()
    }

    /// Time a call as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op_id: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op_id, parent);
        let out = f();
        self.close(id);
        out
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of every span with this name.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self time of a span: its duration minus the part of its interval
    /// that its direct children cover (overlapping children count once).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let me = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0;
        let mut edge = me.start_ns;
        for (a, b) in kids {
            if b > edge {
                covered += b - a.max(edge);
                edge = b;
            }
        }
        (me.end_ns - me.start_ns).saturating_sub(covered)
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"op_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op_id, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_covered_child_time() {
        let mut r = Recorder::new(Instant::now(), 8);
        let study = r.record("study", 1, None, 100, 1100);
        let enhance = r.record("enhance", 1, Some(study), 100, 700);
        r.record("conv", 1, Some(enhance), 150, 450);
        // Two children that overlap each other, one reaching past the parent.
        r.record("segment", 1, Some(study), 650, 800);
        r.record("classify", 1, Some(study), 900, 1200);
        // Another operation's span must not count.
        r.record("enhance", 2, None, 0, 5000);

        // Covered: [100,700] ∪ [650,800] = 700, plus [900,1100] = 200.
        assert_eq!(r.self_ns(study), 1000 - 900);
        // Grandchildren are the child's business, not the parent's.
        assert_eq!(r.self_ns(enhance), 600 - 300);
        assert_eq!(r.self_ns(2), 300);
    }
}
