//! Fault-tolerant sharded serving: a front-end router distributing
//! studies across worker replicas by consistent hashing (DESIGN.md §14).
//!
//! ```text
//! clients ──▶ ClusterClient ──▶ router thread
//!                                │  hash ring (vnodes, generation)
//!                                │  dispatch table (exactly-once gate)
//!                                ├──byte link──▶ node 0: Server replica
//!                                ├──byte link──▶ node 1: Server replica
//!                                └──byte link──▶ node 2: Server replica
//!                                     ▲ heartbeats (cc19-dist Cluster)
//! ```
//!
//! Each worker node is a full single-node [`crate::Server`] (broker +
//! batcher + one-thread workers) behind a pair of reliable byte links —
//! seq-numbered, CRC-checked frames with retransmit recovery and
//! deterministic fault injection ([`cc19_dist::link`]). The router:
//!
//! - routes each study id to a worker via a consistent-hash ring with
//!   virtual nodes ([`ring::HashRing`]), so membership changes move a
//!   minimal key range;
//! - detects worker death by reply-link disconnect (primary) or
//!   heartbeat staleness (secondary), fences the worker from the ring
//!   (generation bump), and **re-dispatches** its in-flight requests to
//!   survivors — exactly once per request, gated by the dispatch table;
//! - tightens admission as capacity shrinks: total in-flight is bounded
//!   by `live workers × per_worker_inflight`, so overload during
//!   degraded operation surfaces as typed [`Rejected`] backpressure;
//! - ships canonical model weights to newly joined replicas over the
//!   existing allreduce/broadcast path ([`weights`]).
//!
//! Determinism: with a seeded [`cc19_dist::FaultPlan`], the whole
//! kill/recover sequence is reproducible — the chaos harness
//! (`tests/cluster_chaos.rs`, pinned `CC19_FAULT_SEED` in tier-1)
//! asserts zero lost requests, zero double-served requests, and
//! bit-identical diagnoses against a single-node baseline.

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cc19_dist::{FaultPlan, TimeoutCfg};
use cc19_obs::{Counter, Gauge, HistogramHandle, Registry};
use crossbeam::channel::{unbounded, Sender};

use computecovid19::framework::Framework;

use crate::request::{Rejected, ServeRequest};
use crate::server::{PendingDiagnosis, ServerCfg};
use crate::sync::Doorbell;
use crate::worker::FrameworkFactory;

pub mod ring;

pub(crate) mod node;
pub(crate) mod proto;
pub(crate) mod router;
pub(crate) mod weights;

pub use ring::HashRing;

use router::{Cmd, Router};

/// Cluster tuning knobs.
#[derive(Debug, Clone)]
pub struct ClusterCfg {
    /// Initial worker-replica count.
    pub workers: usize,
    /// Ceiling on workers across the cluster's lifetime (initial +
    /// joined); sizes the heartbeat table and link-rank space.
    pub max_workers: usize,
    /// Virtual nodes per worker on the hash ring.
    pub vnodes: usize,
    /// Admission bound per live worker: total in-flight is capped at
    /// `live × per_worker_inflight`, so the bound tightens as workers
    /// die. Keep at or below the worker's `queue_bound`.
    pub per_worker_inflight: usize,
    /// Dispatch attempts per request (1 initial + re-dispatches) before
    /// the router fails it with a typed error.
    pub max_attempts: usize,
    /// Configuration for each worker's embedded single-node server
    /// (`start_paused` is forced off).
    pub worker: ServerCfg,
    /// Deterministic fault plan applied to every router↔worker link,
    /// including scheduled worker kills.
    pub faults: FaultPlan,
    /// Only `hard_cap` is read: a client's longest wait for admission.
    pub timeouts: TimeoutCfg,
    /// Heartbeat staleness window after which a connected-but-silent
    /// worker is declared dead.
    pub liveness: Duration,
}

impl ClusterCfg {
    /// Longest an idle router or node loop sleeps before it heartbeats
    /// and sweeps for stale workers. No request ever waits on it.
    pub(crate) fn tick(&self) -> Duration {
        self.liveness / 4
    }
}

impl Default for ClusterCfg {
    fn default() -> Self {
        ClusterCfg {
            workers: 3,
            max_workers: 8,
            vnodes: 32,
            per_worker_inflight: 8,
            max_attempts: 3,
            worker: ServerCfg::default(),
            faults: FaultPlan::none(),
            timeouts: TimeoutCfg::fast(),
            liveness: Duration::from_secs(3),
        }
    }
}

/// Router-side metrics (`serve_cluster_*`), cached handles over a
/// [`Registry`].
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    reg: Arc<Registry>,
    pub(crate) dispatched: Counter,
    pub(crate) redispatched: Counter,
    pub(crate) suppressed: Counter,
    pub(crate) deaths: Counter,
    pub(crate) joins: Counter,
    pub(crate) completed: Counter,
    pub(crate) failed: Counter,
    pub(crate) rejected: Counter,
    pub(crate) trace_spans: Counter,
    pub(crate) generation: Gauge,
    pub(crate) live_workers: Gauge,
    pub(crate) inflight_max: Gauge,
    pub(crate) recovery_ms: HistogramHandle,
}

/// Point-in-time copy of the cluster counters and gauges tests and
/// benches assert on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterSnapshot {
    /// Dispatch frames sent (initial + re-dispatch).
    pub dispatched: u64,
    /// Requests moved to a survivor after a worker death.
    pub redispatched: u64,
    /// Late duplicate replies suppressed by the dispatch table.
    pub suppressed: u64,
    /// Workers declared dead.
    pub worker_deaths: u64,
    /// Workers joined after start.
    pub worker_joins: u64,
    /// Requests answered with a diagnosis.
    pub completed: u64,
    /// Requests answered with a typed failure.
    pub failed: u64,
    /// Submissions rejected at cluster admission.
    pub rejected: u64,
    /// Current ring generation (membership epoch).
    pub generation: u64,
    /// Workers currently believed alive.
    pub live_workers: usize,
    /// High-water mark of concurrently in-flight requests.
    pub inflight_max: usize,
    /// Number of death-recovery episodes timed.
    pub recoveries: u64,
}

impl ClusterMetrics {
    /// Fresh sink on its own private registry.
    pub fn new() -> Self {
        Self::with_registry(Arc::new(Registry::new()))
    }

    /// Sink whose metrics register in `reg` (fold the `serve_cluster_*`
    /// family into a shared export, e.g. the deterministic bench).
    pub fn with_registry(reg: Arc<Registry>) -> Self {
        ClusterMetrics {
            dispatched: reg.counter("serve_cluster_dispatched_total"),
            redispatched: reg.counter("serve_cluster_redispatched_total"),
            suppressed: reg.counter("serve_cluster_replies_suppressed_total"),
            deaths: reg.counter("serve_cluster_worker_deaths_total"),
            joins: reg.counter("serve_cluster_worker_joins_total"),
            completed: reg.counter("serve_cluster_completed_total"),
            failed: reg.counter("serve_cluster_failed_total"),
            rejected: reg.counter("serve_cluster_rejected_total"),
            trace_spans: reg.counter("serve_cluster_trace_spans_ingested_total"),
            generation: reg.gauge("serve_cluster_generation"),
            live_workers: reg.gauge("serve_cluster_live_workers"),
            inflight_max: reg.gauge("serve_cluster_inflight_max"),
            recovery_ms: reg.histogram_with_bounds(
                "serve_cluster_recovery_ms",
                &[],
                &[0.01, 0.1, 0.5, 1.0, 5.0, 25.0, 100.0, 1000.0],
            ),
            reg,
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.reg
    }

    /// Counter/gauge snapshot.
    pub fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot {
            dispatched: self.dispatched.get(),
            redispatched: self.redispatched.get(),
            suppressed: self.suppressed.get(),
            worker_deaths: self.deaths.get(),
            worker_joins: self.joins.get(),
            completed: self.completed.get(),
            failed: self.failed.get(),
            rejected: self.rejected.get(),
            generation: self.generation.get() as u64,
            live_workers: self.live_workers.get() as usize,
            inflight_max: self.inflight_max.get() as usize,
            recoveries: self.recovery_ms.snapshot().count(),
        }
    }

    /// Mean death-to-recovered latency in milliseconds (`0.0` before
    /// any recovery).
    pub fn mean_recovery_ms(&self) -> f64 {
        let h = self.recovery_ms.snapshot();
        if h.count() == 0 {
            0.0
        } else {
            h.mean()
        }
    }
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        ClusterMetrics::new()
    }
}

/// The router's command queue and its doorbell: queue, then ring.
#[derive(Clone)]
struct CmdTx {
    tx: Sender<Cmd>,
    bell: Arc<Doorbell>,
}

impl CmdTx {
    /// `false` if the router is gone.
    fn send(&self, cmd: Cmd) -> bool {
        let sent = self.tx.send(cmd).is_ok();
        self.bell.ring();
        sent
    }
}

/// A running sharded serve cluster (router thread + worker nodes).
pub struct ServeCluster {
    cmd_tx: CmdTx,
    handle: Option<JoinHandle<()>>,
    metrics: ClusterMetrics,
    hard_cap: Duration,
}

impl ServeCluster {
    /// Start a cluster of `cfg.workers` replicas, each built by
    /// `factory` (which must be deterministic — same weights every call
    /// — for routing-independent, bit-reproducible diagnoses).
    pub fn start<F>(cfg: ClusterCfg, factory: F) -> io::Result<ServeCluster>
    where
        F: Fn() -> Framework + Send + Sync + 'static,
    {
        ServeCluster::start_with_metrics(cfg, factory, ClusterMetrics::new())
    }

    /// [`ServeCluster::start`] reporting into an injected
    /// [`ClusterMetrics`] (shared-registry export).
    pub fn start_with_metrics<F>(
        cfg: ClusterCfg,
        factory: F,
        metrics: ClusterMetrics,
    ) -> io::Result<ServeCluster>
    where
        F: Fn() -> Framework + Send + Sync + 'static,
    {
        let invalid = |msg: &str| io::Error::new(io::ErrorKind::InvalidInput, msg.to_string());
        if cfg.workers < 1 {
            return Err(invalid("need at least one worker"));
        }
        if cfg.max_workers < cfg.workers {
            return Err(invalid("max_workers must be at least the initial worker count"));
        }
        if cfg.per_worker_inflight < 1 {
            return Err(invalid("per_worker_inflight must be at least 1"));
        }
        if cfg.max_attempts < 1 {
            return Err(invalid("max_attempts must be at least 1"));
        }
        if cfg.worker.pipelines < 1 || cfg.worker.batch.max_batch < 1 {
            return Err(invalid("worker config needs at least one worker and max_batch >= 1"));
        }
        let hard_cap = cfg.timeouts.hard_cap;
        let (tx, cmd_rx) = unbounded();
        let cmd_tx = CmdTx { tx, bell: Arc::new(Doorbell::default()) };
        let factory: FrameworkFactory = Arc::new(factory);
        let router =
            Router::new(cfg, factory, metrics.clone(), cmd_rx, Arc::clone(&cmd_tx.bell))?;
        let handle = std::thread::Builder::new()
            .name("cc19-cluster-router".to_string())
            .spawn(move || router.run())?;
        Ok(ServeCluster { cmd_tx, handle: Some(handle), metrics, hard_cap })
    }

    /// Submission handle (cheap to clone, usable from any thread).
    pub fn client(&self) -> ClusterClient {
        ClusterClient { cmd_tx: self.cmd_tx.clone(), hard_cap: self.hard_cap }
    }

    /// Add a worker replica to the running cluster. Model weights reach
    /// the new replica over the allreduce/broadcast path before it
    /// serves its first study; the ring rebalances (generation bump) so
    /// it immediately owns its key range.
    pub fn join_worker(&self) -> io::Result<usize> {
        let (tx, rx) = unbounded();
        if !self.cmd_tx.send(Cmd::Join { decision: tx }) {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "cluster router is gone"));
        }
        match rx.recv() {
            Ok(verdict) => verdict,
            Err(_) => Err(io::Error::new(io::ErrorKind::BrokenPipe, "cluster router is gone")),
        }
    }

    /// Live metrics handle.
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// Graceful shutdown: stop admitting, drain in-flight work, stop
    /// every worker, and return the final metrics.
    pub fn shutdown(mut self) -> ClusterMetrics {
        self.cmd_tx.send(Cmd::Close);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.metrics.clone()
    }
}

/// Cluster submission handle.
#[derive(Clone)]
pub struct ClusterClient {
    cmd_tx: CmdTx,
    hard_cap: Duration,
}

impl ClusterClient {
    /// Submit a study under a routing key. Same API shape as the
    /// single-node [`crate::Client::submit`], plus the explicit
    /// `study_id` the ring shards on (stable id → stable worker within
    /// a membership generation).
    pub fn submit(
        &self,
        study_id: u64,
        req: ServeRequest,
    ) -> Result<PendingDiagnosis, Rejected> {
        self.submit_traced(study_id, req, None)
    }

    /// [`ClusterClient::submit`] continuing an existing trace: the
    /// request's root span links under `link` instead of rooting a new
    /// trace on the router registry — how the monitor's clustered route
    /// stitches cluster dispatches into its scan trace (DESIGN.md §17).
    pub fn submit_traced(
        &self,
        study_id: u64,
        req: ServeRequest,
        link: Option<cc19_obs::TraceCtx>,
    ) -> Result<PendingDiagnosis, Rejected> {
        let (reply_tx, reply_rx) = unbounded();
        let (dec_tx, dec_rx) = unbounded();
        let cmd = Cmd::Submit { study_id, req, reply: reply_tx, decision: dec_tx, link };
        if !self.cmd_tx.send(cmd) {
            return Err(Rejected::ShuttingDown);
        }
        match dec_rx.recv_timeout(self.hard_cap) {
            Ok(Ok(id)) => Ok(PendingDiagnosis::from_parts(id, reply_rx)),
            Ok(Err(why)) => Err(why),
            // Router gone or wedged past the transport's own hard cap:
            // surface as shutdown rather than hanging the caller.
            Err(_) => Err(Rejected::ShuttingDown),
        }
    }
}
