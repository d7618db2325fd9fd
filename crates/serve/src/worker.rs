//! Worker pool: one thread per worker.
//!
//! Each worker is one thread owning one warm [`Framework`] replica (the
//! model types hold `Rc` parameter handles and are not `Send`, so the
//! thread builds its replica in place from a shared factory; all
//! replicas are constructed identically, so any worker produces
//! bit-identical diagnoses) and one [`Scratch`] pool. For every job of
//! every batch it pops, it runs enhance → segment → classify in turn,
//! as the paper's framework does (§2), threading the `Scratch` pool
//! through the stages so steady-state serving reuses volume-sized
//! buffers instead of allocating per study.
//!
//! The worker is the serving stack's one stage timer: each job takes
//! one clock read when it starts and one after each stage, and both the
//! job's trace spans and its `serve_stage_ms` samples are differences
//! of those reads.

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cc19_obs::SpanStatus;

use computecovid19::framework::{Diagnosis, Framework, Scratch};

use crate::batcher::Gate;
use crate::broker::{Broker, Job};
use crate::metrics::ServeMetrics;
use crate::request::ServeResponse;
use crate::server::ServerCfg;
use crate::sync::Doorbell;

/// Builds one warm `Framework` replica; called once per worker.
pub type FrameworkFactory = Arc<dyn Fn() -> Framework + Send + Sync>;

/// Run one job through enhance → segment → classify. The job's first
/// clock read is its start: `serve.batch` runs from the pop stamp to
/// it, and each stage span starts where the previous one ended, so the
/// spans tile the request exactly (DESIGN.md §17). Returns the
/// diagnosis and the stamps `[start, enhance end, segment end,
/// classify end]`, or the failed stage's error.
fn run_stages(
    fw: &Framework,
    scratch: &mut Scratch,
    job: &Job,
    threshold: f64,
    metrics: &ServeMetrics,
) -> Result<(Diagnosis, [u64; 4]), String> {
    let reg = metrics.registry();
    let mut stamps = [metrics.now_ns(); 4];
    reg.trace_child(job.trace, "serve.batch", job.t_pop, stamps[0]);
    let mut stage = 0;
    let mut span = |name: &str| {
        let now = metrics.now_ns();
        reg.trace_child(job.trace, name, stamps[stage], now);
        stage += 1;
        stamps[stage] = now;
    };
    let enh = fw
        .run_enhance(&job.volume, scratch)
        .map_err(|e| format!("enhance stage failed: {e}"))?;
    span("serve.enhance");
    let seg = fw.run_segment(enh, scratch).map_err(|e| format!("segment stage failed: {e}"))?;
    span("serve.segment");
    let d = fw
        .run_classify(seg, threshold, scratch)
        .map_err(|e| format!("classify stage failed: {e}"))?;
    span("serve.classify");
    let t_queue = Duration::from_nanos(stamps[0].saturating_sub(job.submitted));
    Ok((d.with_queue_time(t_queue), stamps))
}

/// Spawn one worker thread pulling batches from `broker`. Returns its
/// handle, or the OS error if the thread could not be spawned (resource
/// exhaustion — recoverable by the caller, not a panic).
pub(crate) fn spawn_pipeline(
    index: usize,
    broker: Arc<Broker>,
    gate: Arc<Gate>,
    cfg: ServerCfg,
    factory: FrameworkFactory,
    metrics: ServeMetrics,
    done: Option<Arc<Doorbell>>,
) -> io::Result<JoinHandle<()>> {
    let ServerCfg { batch: policy, threshold, .. } = cfg;
    // A worker's parallelism is per request: its own kernels run serially
    // (`rayon::serial`), so workers never oversubscribe with intra-op
    // forks (DESIGN.md §8).
    std::thread::Builder::new().name(format!("serve-worker-{index}")).spawn(move || rayon::serial(|| {
        let fw = factory();
        let mut scratch = Scratch::new();
        gate.wait_open();
        while let Some(batch) = broker.pop_batch(policy) {
            for job in batch {
                let outcome = run_stages(&fw, &mut scratch, &job, threshold, &metrics);
                let (t_end, status) = match &outcome {
                    Ok((_, stamps)) => {
                        let t_end = stamps[3];
                        let missed = job.deadline.is_some_and(|dl| t_end > dl);
                        metrics.on_complete(job.submitted, stamps, missed);
                        (t_end, SpanStatus::Ok)
                    }
                    Err(_) => {
                        metrics.on_failure();
                        (metrics.now_ns(), SpanStatus::Failed)
                    }
                };
                let reg = metrics.registry();
                reg.trace_record(job.trace, "serve.request", job.submitted, t_end, status);
                let result = outcome.map(|(d, _)| d);
                // Exactly one response per job, then wake the owner.
                let _ = job.reply.send(ServeResponse { id: job.id, result });
                if let Some(bell) = &done {
                    bell.ring();
                }
            }
        }
    }))
}
