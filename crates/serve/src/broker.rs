//! Request broker: bounded admission, priority classes, deadline-aware
//! scheduling, and batch-forming dispatch.
//!
//! Admission control is *synchronous backpressure*: a submission either
//! enters the bounded queue or gets a typed [`Rejected`] right away —
//! the queue can never grow without bound, and clients learn about
//! overload at the edge instead of via timeouts. Dispatch drains
//! strictly by class (`stat` → `urgent` → `routine`; priorities never
//! invert) and earliest-deadline-first within a class; a dispatch takes
//! what is queued, up to [`BatchPolicy::max_batch`], without waiting for
//! more.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crossbeam::channel::Sender;

use cc19_obs::TraceCtx;

use crate::batcher::BatchPolicy;
use crate::metrics::ServeMetrics;
use crate::request::{Priority, Rejected, ServeRequest, ServeResponse};
use crate::sync::{lock, wait, RANK_BROKER_INNER};

/// Broker tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerCfg {
    /// Maximum queued (admitted, not yet dispatched) requests.
    pub queue_bound: usize,
    /// Estimated minimum per-study service time, used to reject
    /// impossible deadlines at admission. `Duration::ZERO` disables the
    /// screen.
    pub est_service: Duration,
}

impl Default for BrokerCfg {
    fn default() -> Self {
        BrokerCfg { queue_bound: 64, est_service: Duration::ZERO }
    }
}

/// One admitted, not-yet-dispatched study — the unit the dispatcher
/// hands to a worker. Public so harnesses (the broker property
/// tests, custom worker loops) can drive the broker directly.
///
/// Timestamps are nanoseconds on the metrics registry's injectable
/// clock (see [`ServeMetrics::clock`]) — under a manual clock, queue
/// wait and deadline misses become exactly assertable.
pub struct Job {
    /// Admission id (monotone; doubles as the FIFO tiebreak within a class).
    pub id: u64,
    /// Scheduling class.
    pub priority: Priority,
    /// Absolute deadline in clock-ns, if the client set a budget.
    pub deadline: Option<u64>,
    /// The study.
    pub volume: cc19_tensor::Tensor,
    /// Admission timestamp in clock-ns (queue-wait accounting).
    pub submitted: u64,
    /// Root trace context minted at admission (DESIGN.md §17); the
    /// span-tree root is recorded against it when the request resolves.
    pub trace: TraceCtx,
    /// Pop timestamp in clock-ns, stamped when the job leaves the queue
    /// inside a batch (0 while still queued). The worker's
    /// `serve.batch` span runs from here to the job's own start.
    pub t_pop: u64,
    /// Exactly-once reply channel.
    pub reply: Sender<ServeResponse>,
}

struct Inner {
    /// Per-class queues, index = `Priority::class()`, each kept sorted
    /// by (deadline, id) — EDF with FIFO tiebreak; no-deadline jobs sort
    /// after all deadlined ones.
    classes: [Vec<Job>; 3],
    depth: usize,
    closed: bool,
    next_id: u64,
}

/// The admission queue + dispatcher shared by clients and workers.
pub struct Broker {
    cfg: BrokerCfg,
    inner: Mutex<Inner>,
    arrived: Condvar,
    metrics: ServeMetrics,
}

fn edf_key(j: &Job) -> (bool, Option<u64>, u64) {
    (j.deadline.is_none(), j.deadline, j.id)
}

impl Broker {
    /// New broker reporting into `metrics`.
    pub fn new(cfg: BrokerCfg, metrics: ServeMetrics) -> Self {
        Broker {
            cfg,
            inner: Mutex::new(Inner {
                classes: [Vec::new(), Vec::new(), Vec::new()],
                depth: 0,
                closed: false,
                next_id: 0,
            }),
            arrived: Condvar::new(),
            metrics,
        }
    }

    /// Current queue depth (admitted, not yet dispatched).
    pub fn depth(&self) -> usize {
        lock(&self.inner, &RANK_BROKER_INNER).depth
    }

    /// Admit a request or reject it synchronously. On success returns
    /// the admission id; the reply channel will receive exactly one
    /// [`ServeResponse`] for it.
    pub fn submit(
        &self,
        req: ServeRequest,
        reply: Sender<ServeResponse>,
    ) -> Result<u64, Rejected> {
        self.submit_traced(req, reply, None)
    }

    /// [`Broker::submit`] carrying an explicit trace link: `None` mints
    /// a fresh root trace at admission; `Some(ctx)` continues the
    /// caller's trace (the cluster worker node passes the router-minted
    /// dispatch context here so the local span subtree stitches under
    /// the router's tree — see `cc19_obs::trace`).
    pub fn submit_traced(
        &self,
        req: ServeRequest,
        reply: Sender<ServeResponse>,
        link: Option<TraceCtx>,
    ) -> Result<u64, Rejected> {
        if let Err(why) = req.screen(self.cfg.est_service) {
            self.metrics.on_reject(&why);
            return Err(why);
        }
        let now = self.metrics.now_ns();
        let mut inner = lock(&self.inner, &RANK_BROKER_INNER);
        if inner.closed {
            drop(inner);
            let why = Rejected::ShuttingDown;
            self.metrics.on_reject(&why);
            return Err(why);
        }
        if inner.depth >= self.cfg.queue_bound {
            let why = Rejected::QueueFull { depth: inner.depth, bound: self.cfg.queue_bound };
            drop(inner);
            self.metrics.on_reject(&why);
            return Err(why);
        }
        let id = inner.next_id;
        inner.next_id += 1;
        // Mint the root span only for admitted requests, under the
        // admission lock so trace ids follow admission order (the obs
        // trace lock is leaf-level; nothing locks broker state under it).
        let trace = self.metrics.registry().trace_begin(link);
        let job = Job {
            id,
            priority: req.priority,
            deadline: req.deadline.map(|b| now + b.as_nanos() as u64),
            volume: req.volume,
            submitted: now,
            trace,
            t_pop: 0,
            reply,
        };
        let class = &mut inner.classes[req.priority.class()];
        let pos = class.partition_point(|j| edf_key(j) <= edf_key(&job));
        class.insert(pos, job);
        inner.depth += 1;
        let depth = inner.depth;
        drop(inner);
        self.metrics.on_accept(depth);
        self.arrived.notify_one();
        Ok(id)
    }

    /// Block until work is available, then return what is queued — up to
    /// `policy.max_batch` jobs, in strict priority order — without waiting
    /// for the batch to fill. Returns `None` once the broker is closed
    /// **and** drained (graceful shutdown: queued work is still served
    /// after [`Broker::close`]).
    pub fn pop_batch(&self, policy: BatchPolicy) -> Option<Vec<Job>> {
        let mut inner = lock(&self.inner, &RANK_BROKER_INNER);
        while inner.depth == 0 {
            if inner.closed {
                return None;
            }
            inner = wait(&self.arrived, inner);
        }
        // Queue wait ends here; batch formation is just the drain below.
        let t_pop = self.metrics.now_ns();
        // Drain strictly by class; within a class the queue is already
        // EDF-sorted. Highest class first means priorities never invert
        // at dispatch. The lock is held since the depth check, so the
        // batch is never empty.
        let mut batch = Vec::new();
        for class in inner.classes.iter_mut() {
            let take = class.len().min(policy.max_batch - batch.len());
            batch.extend(class.drain(..take));
        }
        inner.depth -= batch.len();
        if inner.depth > 0 {
            // Leftover work: wake another worker immediately.
            self.arrived.notify_one();
        }
        drop(inner);
        self.metrics.on_batch(batch.len());
        // Record each trace's queue segment (admission → pop); the
        // worker records the batch segment from the pop to the job's
        // own start.
        let reg = self.metrics.registry();
        for job in batch.iter_mut() {
            reg.trace_child(job.trace, "serve.queue", job.submitted, t_pop);
            job.t_pop = t_pop;
        }
        Some(batch)
    }

    /// Stop admitting; wake all dispatchers so they can drain and exit.
    pub fn close(&self) {
        lock(&self.inner, &RANK_BROKER_INNER).closed = true;
        self.arrived.notify_all();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use cc19_tensor::Tensor;
    use crossbeam::channel::unbounded;

    fn req(priority: Priority, deadline: Option<Duration>) -> ServeRequest {
        ServeRequest { volume: Tensor::zeros([2, 4, 4]), priority, deadline }
    }

    fn broker(bound: usize) -> Broker {
        Broker::new(
            BrokerCfg { queue_bound: bound, est_service: Duration::from_millis(5) },
            ServeMetrics::new(),
        )
    }

    #[test]
    fn queue_full_is_typed_and_bound_is_respected() {
        let b = broker(2);
        let (tx, _rx) = unbounded();
        b.submit(req(Priority::Routine, None), tx.clone()).unwrap();
        b.submit(req(Priority::Routine, None), tx.clone()).unwrap();
        let err = b.submit(req(Priority::Stat, None), tx).unwrap_err();
        assert_eq!(err, Rejected::QueueFull { depth: 2, bound: 2 });
        assert_eq!(b.depth(), 2);
    }

    #[test]
    fn impossible_deadline_is_rejected_at_admission() {
        let b = broker(8);
        let (tx, _rx) = unbounded();
        let err =
            b.submit(req(Priority::Stat, Some(Duration::from_millis(1))), tx).unwrap_err();
        assert!(matches!(err, Rejected::DeadlineImpossible { .. }), "{err:?}");
    }

    #[test]
    fn invalid_volume_is_rejected() {
        let b = broker(8);
        let (tx, _rx) = unbounded();
        let bad = ServeRequest {
            volume: Tensor::zeros([4, 4]),
            priority: Priority::Routine,
            deadline: None,
        };
        assert!(matches!(b.submit(bad, tx).unwrap_err(), Rejected::Invalid(_)));
    }

    #[test]
    fn dispatch_order_is_class_then_edf_then_fifo() {
        let b = broker(16);
        let (tx, _rx) = unbounded();
        let r0 = b.submit(req(Priority::Routine, None), tx.clone()).unwrap();
        let u_late =
            b.submit(req(Priority::Urgent, Some(Duration::from_secs(60))), tx.clone()).unwrap();
        let u_soon =
            b.submit(req(Priority::Urgent, Some(Duration::from_secs(1))), tx.clone()).unwrap();
        let s0 = b.submit(req(Priority::Stat, None), tx.clone()).unwrap();
        let u_none = b.submit(req(Priority::Urgent, None), tx).unwrap();
        let batch = b.pop_batch(BatchPolicy { max_batch: 16 }).unwrap();
        let order: Vec<u64> = batch.iter().map(|j| j.id).collect();
        // stat first, then urgent EDF (1s before 60s before no-deadline),
        // routine last.
        assert_eq!(order, vec![s0, u_soon, u_late, u_none, r0]);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let b = broker(8);
        let (tx, _rx) = unbounded();
        b.submit(req(Priority::Routine, None), tx.clone()).unwrap();
        b.close();
        assert_eq!(b.submit(req(Priority::Stat, None), tx).unwrap_err(), Rejected::ShuttingDown);
        let batch = b.pop_batch(BatchPolicy { max_batch: 4 }).unwrap();
        assert_eq!(batch.len(), 1, "queued work is served during drain");
        assert!(b.pop_batch(BatchPolicy { max_batch: 4 }).is_none());
    }
}
