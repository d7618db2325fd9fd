//! Request-scoped distributed tracing (DESIGN.md §17).
//!
//! A trace is request-scoped: a [`TraceCtx`] is minted once at
//! admission and carried *explicitly* through queue entries, batch
//! entries, serve stages, and cluster wire frames, so one request
//! yields one stitched span tree no matter how many threads or
//! processes touched it.
//!
//! # Model
//!
//! * A **trace** is one request; its `trace_id` comes from a per-store
//!   counter, so sequential admissions get sequential ids.
//! * A **span** is one timed segment (`path`, `start_ns`, `end_ns`,
//!   [`SpanStatus`]); `span_id`s are allocated *per trace* in causal
//!   order (a request's spans are recorded in flow order even when the
//!   server is concurrent), which keeps exports byte-deterministic
//!   under the manual clock.
//! * The root span has `parent_id == 0`; every other span parents on
//!   the ctx it was recorded under.
//!
//! # Cross-registry stitching
//!
//! Cluster worker nodes own private registries, so their spans are
//! recorded locally (rooted at `parent_id == 0`, in local id space),
//! shipped back inside the `Reply` wire frame, and grafted under the
//! router's dispatch span by [`Registry::trace_ingest`], which remaps
//! span ids into the router's per-trace sequence and rebases the
//! worker-clock timestamps onto the dispatch span's start.
//!
//! # Storage
//!
//! Completed spans go through a pre-sized ring ([`TRACE_RING_CAPACITY`]
//! records, allocated once at store construction): the fast path is a
//! bounded `Vec::push` of a record, never per-event boxing; overflow
//! increments a drop counter instead of growing. A trace's span-id
//! counter lives until its local root is recorded or the trace is
//! taken, so the store holds one counter per request in flight.

use std::collections::BTreeMap;

use crate::lock::lock;
use crate::registry::Registry;

/// Trace context carried explicitly across hops: everything a remote
/// or downstream component needs to attach its spans to the right tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The request this span tree belongs to.
    pub trace_id: u64,
    /// The span this context names (new children parent on it).
    pub span_id: u64,
    /// The span this context's span parents on (0 for the root).
    pub parent_id: u64,
}

/// Terminal state of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanStatus {
    /// Completed normally.
    Ok,
    /// A cluster dispatch attempt orphaned by a worker death and
    /// re-dispatched by the router — marked, not lost.
    Redispatched,
    /// The covered work failed (pipeline error, rejection, exhausted
    /// redispatch budget).
    Failed,
}

impl SpanStatus {
    /// Stable wire code.
    pub fn code(self) -> u8 {
        match self {
            SpanStatus::Ok => 0,
            SpanStatus::Redispatched => 1,
            SpanStatus::Failed => 2,
        }
    }

    /// Decode a wire code.
    pub fn from_code(code: u8) -> Option<SpanStatus> {
        match code {
            0 => Some(SpanStatus::Ok),
            1 => Some(SpanStatus::Redispatched),
            2 => Some(SpanStatus::Failed),
            _ => None,
        }
    }

    /// Export label.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Redispatched => "redispatched",
            SpanStatus::Failed => "failed",
        }
    }
}

/// One completed span of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Owning trace.
    pub trace_id: u64,
    /// This span's id (unique within the trace, causal order).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_id: u64,
    /// Dotted `snake_case` path, crate-prefixed (`serve.enhance`, …) —
    /// enforced by the `metric-naming` rule in `cc19-lint`.
    pub path: String,
    /// Start on the recording registry's clock, nanoseconds.
    pub start_ns: u64,
    /// End on the recording registry's clock, nanoseconds.
    pub end_ns: u64,
    /// Terminal state.
    pub status: SpanStatus,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Ring capacity, in span records, pre-allocated once per store. The
/// deterministic smokes stay far below this; a long-running server
/// drops (and counts) the overflow instead of growing.
pub const TRACE_RING_CAPACITY: usize = 8_192;

/// Per-registry trace storage: the pre-sized record ring plus the
/// per-trace span-id sequences.
#[derive(Debug)]
pub struct TraceStore {
    ring: Vec<SpanRecord>,
    seq: BTreeMap<u64, u64>,
    next_trace: u64,
    dropped: u64,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore {
            ring: Vec::with_capacity(TRACE_RING_CAPACITY),
            seq: BTreeMap::new(),
            next_trace: 1,
            dropped: 0,
        }
    }
}

impl TraceStore {
    fn next_span(&mut self, trace_id: u64) -> u64 {
        let s = self.seq.entry(trace_id).or_insert(0);
        *s += 1;
        *s
    }

    fn begin(&mut self, link: Option<TraceCtx>) -> TraceCtx {
        match link {
            None => {
                let trace_id = self.next_trace;
                self.next_trace += 1;
                let span_id = self.next_span(trace_id);
                TraceCtx { trace_id, span_id, parent_id: 0 }
            }
            Some(ctx) => {
                // A trace this store has already seen links in place; a
                // foreign trace (a cluster worker receiving a dispatch
                // ctx minted by the router) records a *local* subtree
                // rooted at parent 0 — the router re-parents it under
                // the dispatch span at ingestion.
                let known = self.seq.contains_key(&ctx.trace_id);
                // Keep locally minted trace ids disjoint from adopted
                // foreign ones, or a later `begin(None)` could collide.
                self.next_trace = self.next_trace.max(ctx.trace_id + 1);
                let span_id = self.next_span(ctx.trace_id);
                let parent_id = if known { ctx.span_id } else { 0 };
                TraceCtx { trace_id: ctx.trace_id, span_id, parent_id }
            }
        }
    }

    fn reserve(&mut self, parent: TraceCtx) -> TraceCtx {
        let span_id = self.next_span(parent.trace_id);
        TraceCtx { trace_id: parent.trace_id, span_id, parent_id: parent.span_id }
    }

    fn push(&mut self, rec: SpanRecord) {
        // A trace's local root is recorded after all of its children, so
        // its span-id sequence is finished: drop it, or a broker or
        // router (which never `take`) keeps one entry per request.
        if rec.parent_id == 0 {
            self.seq.remove(&rec.trace_id);
        }
        if self.ring.len() < TRACE_RING_CAPACITY {
            self.ring.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    fn take(&mut self, trace_id: u64) -> Vec<SpanRecord> {
        let mut out = Vec::new();
        self.ring.retain(|r| {
            if r.trace_id == trace_id {
                out.push(r.clone());
                false
            } else {
                true
            }
        });
        self.seq.remove(&trace_id);
        out
    }

    fn ingest(&mut self, graft: TraceCtx, base_ns: u64, records: &[SpanRecord]) {
        let Some(min_start) = records.iter().map(|r| r.start_ns).min() else {
            return;
        };
        let mut map = BTreeMap::new();
        for r in records {
            map.insert(r.span_id, self.next_span(graft.trace_id));
        }
        for r in records {
            let span_id = map.get(&r.span_id).copied().unwrap_or(graft.span_id);
            let parent_id = if r.parent_id == 0 {
                graft.span_id
            } else {
                map.get(&r.parent_id).copied().unwrap_or(graft.span_id)
            };
            self.push(SpanRecord {
                trace_id: graft.trace_id,
                span_id,
                parent_id,
                path: r.path.clone(),
                start_ns: base_ns + (r.start_ns - min_start),
                end_ns: base_ns + (r.end_ns.max(r.start_ns) - min_start),
                status: r.status,
            });
        }
    }
}

impl Registry {
    /// Mint the root context of a new trace (`link: None`) or a child
    /// context under an existing one. Linking to a trace this registry
    /// has never seen (a cluster worker receiving a router-minted ctx)
    /// starts a local subtree that [`Registry::trace_ingest`] grafts.
    pub fn trace_begin(&self, link: Option<TraceCtx>) -> TraceCtx {
        lock(&self.traces).begin(link)
    }

    /// Reserve a child span id under `parent` without recording yet —
    /// used when the span must be referenced (put on the wire) before
    /// it completes.
    pub fn trace_reserve(&self, parent: TraceCtx) -> TraceCtx {
        lock(&self.traces).reserve(parent)
    }

    /// Record a completed span for a previously minted/reserved ctx.
    pub fn trace_record(
        &self,
        ctx: TraceCtx,
        path: &str,
        start_ns: u64,
        end_ns: u64,
        status: SpanStatus,
    ) {
        lock(&self.traces).push(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            path: path.to_string(),
            start_ns,
            end_ns,
            status,
        });
    }

    /// Reserve and record a completed [`SpanStatus::Ok`] child span in
    /// one step, returning its ctx (for nesting).
    pub fn trace_child(&self, parent: TraceCtx, path: &str, start_ns: u64, end_ns: u64) -> TraceCtx {
        let mut store = lock(&self.traces);
        let ctx = store.reserve(parent);
        store.push(SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            path: path.to_string(),
            start_ns,
            end_ns,
            status: SpanStatus::Ok,
        });
        ctx
    }

    /// Drain every record of one trace (a cluster worker shipping its
    /// local subtree back inside the reply frame).
    pub fn trace_take(&self, trace_id: u64) -> Vec<SpanRecord> {
        lock(&self.traces).take(trace_id)
    }

    /// Graft a remote subtree under `graft`: span ids are remapped into
    /// this store's per-trace sequence (remote roots re-parent on
    /// `graft`), and timestamps are rebased so the earliest remote span
    /// starts at `base_ns` (remote registries run their own clocks).
    pub fn trace_ingest(&self, graft: TraceCtx, base_ns: u64, records: &[SpanRecord]) {
        lock(&self.traces).ingest(graft, base_ns, records)
    }

    /// Snapshot of every retained span record.
    pub fn trace_records(&self) -> Vec<SpanRecord> {
        lock(&self.traces).ring.clone()
    }

    /// Records dropped to the ring bound (0 in every deterministic
    /// harness).
    pub fn trace_dropped(&self) -> u64 {
        lock(&self.traces).dropped
    }
}

// ---------------------------------------------------------------------
// exporters + critical-path analyzer
// ---------------------------------------------------------------------

/// Render one record as a sorted-key JSON object (no trailing newline).
fn render_record(r: &SpanRecord) -> String {
    format!(
        "{{\"dur_ns\": {}, \"parent_id\": {}, \"path\": \"{}\", \"span_id\": {}, \
         \"start_ns\": {}, \"status\": \"{}\", \"trace_id\": {}}}",
        r.dur_ns(),
        r.parent_id,
        crate::export::json_escape(&r.path),
        r.span_id,
        r.start_ns,
        r.status.as_str(),
        r.trace_id,
    )
}

/// Sorted-key JSONL dump of the span-tree store: one record per line,
/// ordered by `(trace_id, span_id)` — byte-identical across runs under
/// the manual clock regardless of recording interleavings.
pub fn tree_jsonl(reg: &Registry) -> String {
    let mut records = reg.trace_records();
    records.sort_by_key(|r| (r.trace_id, r.span_id));
    let mut out = String::new();
    for r in &records {
        out.push_str(&render_record(r));
        out.push('\n');
    }
    out
}

/// The critical-path segments a request's latency is attributed to, in
/// export (sorted) order.
pub const SEGMENTS: [&str; 8] =
    ["batch", "cache", "classify", "enhance", "other", "queue", "segment", "wire"];

/// Map a span path to its latency segment. `serve.cluster.wire` is
/// handled structurally by the analyzer (wire = dispatch minus the
/// nested worker subtree), so it does not appear here.
fn bucket_of(path: &str) -> &'static str {
    match path {
        "serve.queue" => "queue",
        "serve.batch" => "batch",
        "serve.enhance" | "monitor.enhance" => "enhance",
        "serve.segment" | "monitor.segment" => "segment",
        "serve.classify" | "monitor.classify" => "classify",
        "monitor.cache" | "monitor.cache_insert" => "cache",
        _ => "other",
    }
}

fn children_of(records: &[SpanRecord], trace_id: u64, parent: u64) -> Vec<&SpanRecord> {
    let mut out: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.trace_id == trace_id && r.parent_id == parent && r.span_id != parent)
        .collect();
    out.sort_by_key(|r| r.span_id);
    out
}

/// Attribute one trace's end-to-end latency to critical-path segments.
///
/// Returns `(end_to_end_ns, segment → ns)` or `None` when the trace
/// has no root (still in flight, or dropped before completion). The
/// decomposition walks the root's direct children (which the recording
/// discipline makes tile the root exactly): cluster dispatch spans
/// contribute their duration minus the grafted worker subtree as
/// `wire`, the worker subtree contributes its own stage segments, and
/// any residual the tree does not cover lands in `other` — so the
/// segment values always sum to the end-to-end latency.
pub fn trace_segments(
    records: &[SpanRecord],
    trace_id: u64,
) -> Option<(u64, BTreeMap<&'static str, u64>)> {
    let root = records
        .iter()
        .filter(|r| r.trace_id == trace_id && r.parent_id == 0)
        .min_by_key(|r| r.span_id)?;
    let mut segs: BTreeMap<&'static str, u64> = BTreeMap::new();
    let add = |segs: &mut BTreeMap<&'static str, u64>, seg: &'static str, ns: u64| {
        if ns > 0 {
            *segs.entry(seg).or_insert(0) += ns;
        }
    };
    let mut child_sum = 0u64;
    for c in children_of(records, trace_id, root.span_id) {
        child_sum += c.dur_ns();
        if c.path == "serve.cluster.wire" {
            let mut wire = c.dur_ns();
            for w in children_of(records, trace_id, c.span_id) {
                if w.path != "serve.request" {
                    continue;
                }
                wire = wire.saturating_sub(w.dur_ns());
                let mut worker_sum = 0u64;
                for g in children_of(records, trace_id, w.span_id) {
                    worker_sum += g.dur_ns();
                    add(&mut segs, bucket_of(&g.path), g.dur_ns());
                }
                add(&mut segs, "other", w.dur_ns().saturating_sub(worker_sum));
            }
            add(&mut segs, "wire", wire);
        } else {
            add(&mut segs, bucket_of(&c.path), c.dur_ns());
        }
    }
    add(&mut segs, "other", root.dur_ns().saturating_sub(child_sum));
    Some((root.dur_ns(), segs))
}

/// Nearest-rank quantile over a sorted slice (the workspace's standard
/// quantile definition — integer-exact, so byte-deterministic).
fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The critical-path report behind `results/trace_report.json`:
/// per-segment p50/p95/p99 across every completed trace in the store,
/// plus the `top_k` slowest request trees in full. Sorted keys, integer
/// nanoseconds, no timestamps of its own — byte-identical for
/// identical store state.
pub fn critical_path_report(reg: &Registry, top_k: usize) -> String {
    let mut records = reg.trace_records();
    records.sort_by_key(|r| (r.trace_id, r.span_id));
    let mut trace_ids: Vec<u64> = records.iter().map(|r| r.trace_id).collect();
    trace_ids.dedup();

    // (trace_id, end_to_end, segments) for every completed trace.
    let mut traces: Vec<(u64, u64, BTreeMap<&'static str, u64>)> = Vec::new();
    for id in trace_ids {
        if let Some((e2e, segs)) = trace_segments(&records, id) {
            traces.push((id, e2e, segs));
        }
    }

    let mut per_seg: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (_, _, segs) in &traces {
        for (seg, ns) in segs {
            per_seg.entry(seg).or_default().push(*ns);
        }
    }

    let mut out = String::from("{\n  \"requests\": ");
    out.push_str(&traces.len().to_string());
    out.push_str(",\n  \"segments\": {");
    let mut first = true;
    for (seg, mut v) in per_seg {
        v.sort_unstable();
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{seg}\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
            v.len(),
            nearest_rank(&v, 0.5),
            nearest_rank(&v, 0.95),
            nearest_rank(&v, 0.99),
        ));
    }
    out.push_str(if first { "}" } else { "\n  }" });

    // Slowest request trees: end-to-end descending, trace id ascending.
    let mut slowest: Vec<&(u64, u64, BTreeMap<&'static str, u64>)> = traces.iter().collect();
    slowest.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    slowest.truncate(top_k);
    out.push_str(",\n  \"slowest\": [");
    for (i, (id, e2e, segs)) in slowest.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {{\n      \"end_to_end_ns\": {e2e},\n      \"segments\": {{"));
        let mut sfirst = true;
        for (seg, ns) in segs.iter() {
            if !sfirst {
                out.push_str(", ");
            }
            sfirst = false;
            out.push_str(&format!("\"{seg}\": {ns}"));
        }
        out.push_str(&format!("}},\n      \"trace_id\": {id},\n      \"tree\": ["));
        let mut tfirst = true;
        for r in records.iter().filter(|r| r.trace_id == *id) {
            if !tfirst {
                out.push(',');
            }
            tfirst = false;
            out.push_str("\n        ");
            out.push_str(&render_record(r));
        }
        out.push_str(if tfirst { "]" } else { "\n      ]" });
        out.push_str("\n    }");
    }
    out.push_str(if slowest.is_empty() { "]\n}\n" } else { "\n  ]\n}\n" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, ManualClock};
    use std::sync::Arc;

    fn reg_with_tick(tick: u64) -> Registry {
        Registry::with_clock(Arc::new(ManualClock::with_tick(tick)) as Arc<dyn Clock>)
    }

    #[test]
    fn root_and_children_build_a_tree() {
        let reg = reg_with_tick(10);
        let root = reg.trace_begin(None);
        assert_eq!((root.trace_id, root.span_id, root.parent_id), (1, 1, 0));
        let c1 = reg.trace_child(root, "serve.queue", 0, 10);
        let c2 = reg.trace_child(root, "serve.batch", 10, 20);
        reg.trace_record(root, "serve.request", 0, 20, SpanStatus::Ok);
        assert_eq!((c1.span_id, c1.parent_id), (2, 1));
        assert_eq!((c2.span_id, c2.parent_id), (3, 1));
        let recs = reg.trace_records();
        assert_eq!(recs.len(), 3);
        assert!(recs.iter().all(|r| r.trace_id == 1));
    }

    #[test]
    fn span_ids_are_per_trace_sequences() {
        let reg = reg_with_tick(1);
        let a = reg.trace_begin(None);
        let b = reg.trace_begin(None);
        assert_eq!((a.trace_id, a.span_id), (1, 1));
        assert_eq!((b.trace_id, b.span_id), (2, 1));
        let ac = reg.trace_child(a, "serve.queue", 0, 1);
        let bc = reg.trace_child(b, "serve.queue", 0, 1);
        assert_eq!(ac.span_id, 2);
        assert_eq!(bc.span_id, 2);
    }

    #[test]
    fn linking_a_known_trace_nests_and_a_foreign_trace_roots_locally() {
        let reg = reg_with_tick(1);
        let root = reg.trace_begin(None);
        let nested = reg.trace_begin(Some(root));
        assert_eq!(nested.parent_id, root.span_id);
        let remote = reg_with_tick(1);
        let foreign = remote.trace_begin(Some(TraceCtx {
            trace_id: root.trace_id,
            span_id: 42,
            parent_id: 7,
        }));
        assert_eq!(foreign.parent_id, 0, "foreign link roots a local subtree");
        assert_eq!(foreign.trace_id, root.trace_id);
    }

    #[test]
    fn take_drains_exactly_one_trace() {
        let reg = reg_with_tick(1);
        let a = reg.trace_begin(None);
        let b = reg.trace_begin(None);
        reg.trace_record(a, "serve.request", 0, 5, SpanStatus::Ok);
        reg.trace_record(b, "serve.request", 0, 9, SpanStatus::Ok);
        let taken = reg.trace_take(a.trace_id);
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].end_ns, 5);
        let left = reg.trace_records();
        assert_eq!(left.len(), 1);
        assert_eq!(left[0].trace_id, b.trace_id);
    }

    #[test]
    fn span_id_sequences_end_with_the_local_root() {
        let reg = reg_with_tick(1);
        let root = reg.trace_begin(None);
        let q = reg.trace_child(root, "serve.queue", 0, 1);
        reg.trace_child(q, "serve.batch", 1, 2);
        assert_eq!(lock(&reg.traces).seq.len(), 1);
        reg.trace_record(root, "serve.request", 0, 2, SpanStatus::Ok);
        assert!(lock(&reg.traces).seq.is_empty(), "the root closes its trace's sequence");

        // A cluster worker's local subtree under a foreign trace.
        let worker = reg_with_tick(1);
        let wroot = worker.trace_begin(Some(TraceCtx { trace_id: 9, span_id: 2, parent_id: 1 }));
        worker.trace_child(wroot, "serve.queue", 0, 1);
        worker.trace_record(wroot, "serve.request", 0, 1, SpanStatus::Ok);
        assert_eq!(worker.trace_take(9).len(), 2);
        assert!(lock(&worker.traces).seq.is_empty());
        assert!(worker.trace_records().is_empty());
    }

    #[test]
    fn ingest_remaps_ids_and_rebases_timestamps() {
        // Worker side: a local subtree on its own clock base.
        let worker = reg_with_tick(1);
        let wroot = worker.trace_begin(Some(TraceCtx { trace_id: 9, span_id: 2, parent_id: 1 }));
        worker.trace_child(wroot, "serve.queue", 100, 150);
        worker.trace_record(wroot, "serve.request", 100, 200, SpanStatus::Ok);
        let shipped = worker.trace_take(9);

        // Router side: mint traces until id 9 exists locally, then graft
        // the shipped subtree under a reserved wire span.
        let router = reg_with_tick(1);
        let mut root = router.trace_begin(None);
        while root.trace_id < 9 {
            root = router.trace_begin(None);
        }
        assert_eq!((root.trace_id, root.span_id), (9, 1));
        let wire = router.trace_reserve(root);
        router.trace_ingest(wire, 5_000, &shipped);
        router.trace_record(wire, "serve.cluster.wire", 5_000, 5_200, SpanStatus::Ok);
        router.trace_record(root, "serve.request", 5_000, 5_200, SpanStatus::Ok);

        let recs: Vec<SpanRecord> =
            router.trace_records().into_iter().filter(|r| r.trace_id == 9).collect();
        let worker_root = recs.iter().find(|r| r.path == "serve.request" && r.parent_id == wire.span_id)
            .expect("worker root grafted under the wire span");
        assert_eq!(worker_root.start_ns, 5_000, "rebased onto the wire base");
        assert_eq!(worker_root.end_ns, 5_100);
        let queue = recs.iter().find(|r| r.path == "serve.queue").expect("queue span shipped");
        assert_eq!(queue.parent_id, worker_root.span_id, "internal parentage preserved");
        assert_eq!(queue.start_ns, 5_000);
        assert_eq!(queue.end_ns, 5_050);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let reg = reg_with_tick(1);
        let root = reg.trace_begin(None);
        for _ in 0..TRACE_RING_CAPACITY + 3 {
            reg.trace_record(root, "obs.probe", 0, 1, SpanStatus::Ok);
        }
        assert_eq!(reg.trace_records().len(), TRACE_RING_CAPACITY);
        assert_eq!(reg.trace_dropped(), 3);
    }

    #[test]
    fn segments_tile_the_root_exactly() {
        let reg = reg_with_tick(1);
        let root = reg.trace_begin(None);
        reg.trace_child(root, "serve.queue", 0, 40);
        reg.trace_child(root, "serve.batch", 40, 50);
        reg.trace_child(root, "serve.enhance", 50, 80);
        reg.trace_child(root, "serve.segment", 80, 90);
        reg.trace_child(root, "serve.classify", 90, 100);
        reg.trace_record(root, "serve.request", 0, 100, SpanStatus::Ok);
        let recs = reg.trace_records();
        let (e2e, segs) = trace_segments(&recs, root.trace_id).expect("rooted trace");
        assert_eq!(e2e, 100);
        assert_eq!(segs.values().sum::<u64>(), e2e, "segments must sum to end-to-end");
        assert_eq!(segs["queue"], 40);
        assert_eq!(segs.get("other"), None, "tiling leaves no residual");
    }

    #[test]
    fn cluster_wire_segment_is_dispatch_minus_worker_subtree() {
        let reg = reg_with_tick(1);
        let root = reg.trace_begin(None);
        let wire = reg.trace_reserve(root);
        let wroot = reg.trace_reserve(wire);
        reg.trace_child(wroot, "serve.queue", 10, 20);
        reg.trace_child(wroot, "serve.classify", 20, 90);
        reg.trace_record(wroot, "serve.request", 10, 90, SpanStatus::Ok);
        reg.trace_record(wire, "serve.cluster.wire", 0, 100, SpanStatus::Ok);
        reg.trace_record(root, "serve.request", 0, 100, SpanStatus::Ok);
        let recs = reg.trace_records();
        let (e2e, segs) = trace_segments(&recs, root.trace_id).expect("rooted trace");
        assert_eq!(e2e, 100);
        assert_eq!(segs["wire"], 20, "wire = dispatch span minus worker subtree");
        assert_eq!(segs["queue"], 10);
        assert_eq!(segs["classify"], 70);
        assert_eq!(segs.values().sum::<u64>(), e2e);
    }

    #[test]
    fn exports_are_sorted_and_deterministic() {
        let reg = reg_with_tick(1);
        let b = reg.trace_begin(None);
        let a = reg.trace_begin(None);
        reg.trace_child(a, "serve.queue", 0, 1);
        reg.trace_record(a, "serve.request", 0, 1, SpanStatus::Ok);
        reg.trace_child(b, "serve.queue", 0, 2);
        reg.trace_record(b, "serve.request", 0, 2, SpanStatus::Ok);
        let jsonl = tree_jsonl(&reg);
        assert_eq!(jsonl, tree_jsonl(&reg));
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"trace_id\": 1"), "sorted by trace id: {}", lines[0]);
        assert!(lines[3].contains("\"trace_id\": 2"));
        let report = critical_path_report(&reg, 1);
        assert_eq!(report, critical_path_report(&reg, 1));
        assert!(report.contains("\"requests\": 2"));
        assert!(report.contains("\"queue\": {\"count\": 2"));
        // top-1 slowest is trace 1 (`b`, the longer root).
        assert!(report.contains("\"trace_id\": 1"));
        assert!(!report.contains("\"trace_id\": 2"), "top_k=1 keeps only the slowest tree");
    }

    #[test]
    fn redispatched_status_survives_export() {
        let reg = reg_with_tick(1);
        let root = reg.trace_begin(None);
        let wire = reg.trace_reserve(root);
        reg.trace_record(wire, "serve.cluster.wire", 0, 30, SpanStatus::Redispatched);
        let wire2 = reg.trace_reserve(root);
        reg.trace_record(wire2, "serve.cluster.wire", 30, 100, SpanStatus::Ok);
        reg.trace_record(root, "serve.request", 0, 100, SpanStatus::Ok);
        let jsonl = tree_jsonl(&reg);
        assert!(jsonl.contains("\"status\": \"redispatched\""));
        let (e2e, segs) = trace_segments(&reg.trace_records(), root.trace_id).expect("rooted");
        assert_eq!(segs["wire"], 100, "both attempts attribute to wire");
        assert_eq!(segs.values().sum::<u64>(), e2e);
    }
}
