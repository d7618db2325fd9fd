//! Stage-pipelined worker pool.
//!
//! Each pipeline is three threads — enhance, segment, classify — joined
//! by channels, each owning its *own* warm [`Framework`] replica (the
//! model types hold `Rc` parameter handles and are not `Send`, so every
//! stage thread builds its replica in place from a shared factory; all
//! replicas are constructed identically, so any pipeline produces
//! bit-identical diagnoses). While study A is being classified, study B
//! is being segmented and study C enhanced: stage N of one study
//! overlaps stage N−1 of the next, which is where the pipeline's
//! throughput over a serial worker comes from.
//!
//! Each stage thread threads its own [`Scratch`] pool through the stage
//! calls, so steady-state serving reuses volume-sized buffers instead
//! of allocating per study.

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};

use cc19_obs::{SpanStatus, TraceCtx};

use computecovid19::framework::{Diagnosis, Enhanced, Framework, Scratch, Segmented};

use crate::batcher::Gate;
use crate::broker::Broker;
use crate::metrics::ServeMetrics;
use crate::request::ServeResponse;
use crate::server::ServerCfg;
use crate::sync::Doorbell;

/// Builds one warm `Framework` replica; called once per stage thread.
pub type FrameworkFactory = Arc<dyn Fn() -> Framework + Send + Sync>;

/// Everything a study carries between stages besides the tensors.
/// Deadlines are clock-ns on the metrics registry's clock. The trace
/// context rides along explicitly — spans survive the thread hops that
/// kill `cc19_obs::span!`'s thread-local nesting — and `t_prev` marks
/// where the previous stage's span ended, so consecutive stage spans
/// tile the request exactly (DESIGN.md §17).
struct JobMeta {
    id: u64,
    deadline: Option<u64>,
    t_queue: Duration,
    trace: TraceCtx,
    t_submit: u64,
    t_prev: u64,
    reply: Sender<ServeResponse>,
    /// Rung after the response is sent (a cluster node's wake-up).
    done: Option<Arc<Doorbell>>,
}

impl JobMeta {
    /// Deliver the request's one response, then wake the owner.
    fn respond(self, result: Result<Diagnosis, String>) {
        let _ = self.reply.send(ServeResponse { id: self.id, result });
        if let Some(bell) = &self.done {
            bell.ring();
        }
    }
}

struct EnhancedJob {
    meta: JobMeta,
    enh: Enhanced,
}

struct SegmentedJob {
    meta: JobMeta,
    seg: Segmented,
}

fn fail(meta: JobMeta, stage: &str, err: impl std::fmt::Display, metrics: &ServeMetrics) {
    metrics.on_failure();
    let now = metrics.now_ns();
    metrics.registry().trace_record(
        meta.trace,
        "serve.request",
        meta.t_submit,
        now,
        SpanStatus::Failed,
    );
    meta.respond(Err(format!("{stage} stage failed: {err}")));
}

/// Spawn one three-thread pipeline pulling batches from `broker`.
/// Returns the stage thread handles (enhance, segment, classify), or the
/// OS error if a stage thread could not be spawned (resource
/// exhaustion — recoverable by the caller, not a panic).
pub(crate) fn spawn_pipeline(
    index: usize,
    broker: Arc<Broker>,
    gate: Arc<Gate>,
    cfg: ServerCfg,
    factory: FrameworkFactory,
    metrics: ServeMetrics,
    done: Option<Arc<Doorbell>>,
) -> io::Result<Vec<JoinHandle<()>>> {
    let ServerCfg { batch: policy, threshold, enhance_mode, .. } = cfg;
    let (seg_tx, seg_rx) = unbounded::<EnhancedJob>();
    let (cls_tx, cls_rx) = unbounded::<SegmentedJob>();

    let m_enh = metrics.clone();
    let f_enh = Arc::clone(&factory);
    let enhance = std::thread::Builder::new()
        .name(format!("serve-enhance-{index}"))
        .spawn(move || {
            let fw = f_enh();
            let mut scratch = Scratch::new();
            gate.wait_open();
            while let Some(batch) = broker.pop_batch(policy) {
                for job in batch {
                    let t_queue =
                        Duration::from_nanos(m_enh.now_ns().saturating_sub(job.submitted));
                    let mut meta = JobMeta {
                        id: job.id,
                        deadline: job.deadline,
                        t_queue,
                        trace: job.trace,
                        t_submit: job.submitted,
                        t_prev: job.t_dispatch,
                        reply: job.reply,
                        done: done.clone(),
                    };
                    match fw.run_enhance_with(&job.volume, &mut scratch, enhance_mode) {
                        Ok(enh) => {
                            let t_e = m_enh.now_ns();
                            m_enh
                                .registry()
                                .trace_child(meta.trace, "serve.enhance", meta.t_prev, t_e);
                            meta.t_prev = t_e;
                            if seg_tx.send(EnhancedJob { meta, enh }).is_err() {
                                return; // downstream died; nothing sane to do
                            }
                        }
                        Err(e) => fail(meta, "enhance", e, &m_enh),
                    }
                }
            }
            // broker closed & drained: dropping seg_tx unwinds the pipeline
        })?;

    let m_seg = metrics.clone();
    let f_seg = Arc::clone(&factory);
    let segment = std::thread::Builder::new()
        .name(format!("serve-segment-{index}"))
        .spawn(move || {
            let fw = f_seg();
            let mut scratch = Scratch::new();
            while let Ok(EnhancedJob { mut meta, enh }) = seg_rx.recv() {
                match fw.run_segment(enh, &mut scratch) {
                    Ok(seg) => {
                        let t_s = m_seg.now_ns();
                        m_seg.registry().trace_child(meta.trace, "serve.segment", meta.t_prev, t_s);
                        meta.t_prev = t_s;
                        if cls_tx.send(SegmentedJob { meta, seg }).is_err() {
                            return;
                        }
                    }
                    Err(e) => fail(meta, "segment", e, &m_seg),
                }
            }
        })?;

    let classify = std::thread::Builder::new()
        .name(format!("serve-classify-{index}"))
        .spawn(move || {
            let fw = factory();
            let mut scratch = Scratch::new();
            while let Ok(SegmentedJob { meta, seg }) = cls_rx.recv() {
                match fw.run_classify(seg, threshold, &mut scratch) {
                    Ok(d) => {
                        let d = d.with_queue_time(meta.t_queue);
                        let t_c = metrics.now_ns();
                        let missed = meta.deadline.map(|dl| t_c > dl).unwrap_or(false);
                        let reg = metrics.registry();
                        reg.trace_child(meta.trace, "serve.classify", meta.t_prev, t_c);
                        reg.trace_record(
                            meta.trace,
                            "serve.request",
                            meta.t_submit,
                            t_c,
                            SpanStatus::Ok,
                        );
                        metrics.on_complete(&d, missed);
                        meta.respond(Ok(d));
                    }
                    Err(e) => fail(meta, "classify", e, &metrics),
                }
            }
        })?;

    Ok(vec![enhance, segment, classify])
}
