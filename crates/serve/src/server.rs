//! The server: broker + batcher + one-thread workers + metrics, with an
//! in-process [`Client`] handle.

use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};

use computecovid19::framework::Framework;

use crate::batcher::{BatchPolicy, Gate};
use crate::broker::{Broker, BrokerCfg};
use crate::metrics::ServeMetrics;
use crate::request::{Rejected, ServeRequest, ServeResponse};
use crate::sync::Doorbell;
use crate::worker::{spawn_pipeline, FrameworkFactory};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerCfg {
    /// Bounded admission-queue capacity.
    pub queue_bound: usize,
    /// Estimated minimum service time for deadline admission screening
    /// (`ZERO` disables the screen).
    pub est_service: Duration,
    /// Batch-forming policy.
    pub batch: BatchPolicy,
    /// Number of workers: one thread each, owning one `Framework`
    /// replica that runs enhance → segment → classify for every study
    /// it pops.
    pub pipelines: usize,
    /// Positive-decision threshold passed to classification.
    pub threshold: f64,
    /// Start with the dispatch gate closed; admissions queue up until
    /// [`Server::resume`] — deterministic-batching test hook and
    /// warm-standby mode.
    pub start_paused: bool,
}

impl Default for ServerCfg {
    fn default() -> Self {
        ServerCfg {
            queue_bound: 64,
            est_service: Duration::ZERO,
            batch: BatchPolicy::default(),
            pipelines: 1,
            threshold: 0.5,
            start_paused: false,
        }
    }
}

/// A running diagnosis service.
pub struct Server {
    broker: Arc<Broker>,
    gate: Arc<Gate>,
    metrics: ServeMetrics,
    handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Start a server of `cfg.pipelines` workers, each one thread that
    /// builds its warm [`Framework`] replica via `factory` (called once
    /// per worker). The factory must be deterministic (same replica
    /// every call) for the service to be bit-reproducible across
    /// workers.
    ///
    /// Errors on an invalid configuration or when a worker thread cannot
    /// be spawned (OS resource exhaustion) — both recoverable by the
    /// caller, so neither panics.
    pub fn start<F>(cfg: ServerCfg, factory: F) -> io::Result<Server>
    where
        F: Fn() -> Framework + Send + Sync + 'static,
    {
        Server::start_with_metrics(cfg, factory, ServeMetrics::new())
    }

    /// [`Server::start`] reporting into an injected [`ServeMetrics`] —
    /// use [`ServeMetrics::with_registry`] to fold the `serve_*` metrics
    /// into a shared `cc19-obs` registry (the deterministic bench), or a
    /// manual-clock registry to make latencies exactly assertable.
    pub fn start_with_metrics<F>(
        cfg: ServerCfg,
        factory: F,
        metrics: ServeMetrics,
    ) -> io::Result<Server>
    where
        F: Fn() -> Framework + Send + Sync + 'static,
    {
        Server::start_with_doorbell(cfg, Arc::new(factory), metrics, None)
    }

    /// [`Server::start_with_metrics`] that also rings `done` after every
    /// response, so an owner with other events to watch (a cluster
    /// worker node) can sleep on one doorbell for all of them.
    pub(crate) fn start_with_doorbell(
        cfg: ServerCfg,
        factory: FrameworkFactory,
        metrics: ServeMetrics,
        done: Option<Arc<Doorbell>>,
    ) -> io::Result<Server> {
        if cfg.pipelines < 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "need at least one worker",
            ));
        }
        if cfg.batch.max_batch < 1 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "max_batch must be at least 1",
            ));
        }
        let broker = Arc::new(Broker::new(
            BrokerCfg { queue_bound: cfg.queue_bound, est_service: cfg.est_service },
            metrics.clone(),
        ));
        let gate = Arc::new(Gate::new(!cfg.start_paused));
        let handles = (0..cfg.pipelines)
            .map(|i| {
                spawn_pipeline(
                    i,
                    Arc::clone(&broker),
                    Arc::clone(&gate),
                    cfg,
                    Arc::clone(&factory),
                    metrics.clone(),
                    done.clone(),
                )
            })
            .collect::<io::Result<_>>()?;
        Ok(Server { broker, gate, metrics, handles })
    }

    /// In-process client handle (cheap to clone, usable from any thread).
    pub fn client(&self) -> Client {
        Client { broker: Arc::clone(&self.broker) }
    }

    /// Open the dispatch gate of a `start_paused` server.
    pub fn resume(&self) {
        self.gate.open();
    }

    /// Live metrics handle.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.broker.depth()
    }

    /// Graceful shutdown: stop admitting, serve everything already
    /// queued, join the workers, and return the final metrics.
    pub fn shutdown(self) -> ServeMetrics {
        self.broker.close();
        self.gate.open(); // a paused server must still drain
        for h in self.handles {
            let _ = h.join();
        }
        self.metrics
    }
}

/// In-process submission handle.
#[derive(Clone)]
pub struct Client {
    broker: Arc<Broker>,
}

impl Client {
    /// Submit a study. Returns a [`PendingDiagnosis`] on admission or a
    /// typed [`Rejected`] immediately.
    pub fn submit(&self, req: ServeRequest) -> Result<PendingDiagnosis, Rejected> {
        self.submit_traced(req, None)
    }

    /// [`Client::submit`] continuing an existing trace: the admitted
    /// request's span tree links under `link` instead of rooting a new
    /// trace — how the cluster worker node and the monitor's served
    /// route stitch their spans into the caller's tree (DESIGN.md §17).
    pub fn submit_traced(
        &self,
        req: ServeRequest,
        link: Option<cc19_obs::TraceCtx>,
    ) -> Result<PendingDiagnosis, Rejected> {
        let (tx, rx) = unbounded();
        let id = self.broker.submit_traced(req, tx, link)?;
        Ok(PendingDiagnosis { id, rx })
    }
}

/// An admitted request's future response (exactly one will arrive).
#[derive(Debug)]
pub struct PendingDiagnosis {
    id: u64,
    rx: Receiver<ServeResponse>,
}

impl PendingDiagnosis {
    /// Assemble a pending handle from an id and a response receiver — the
    /// cluster router mints these so cluster submissions and single-node
    /// submissions share one client-side waiting type.
    pub(crate) fn from_parts(id: u64, rx: Receiver<ServeResponse>) -> Self {
        PendingDiagnosis { id, rx }
    }

    /// The admission id the response will carry.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the response arrives. `None` only if the server was
    /// torn down without draining (workers panicked).
    pub fn wait(self) -> Option<ServeResponse> {
        self.rx.recv().ok()
    }

    /// [`PendingDiagnosis::wait`] with a timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<ServeResponse, RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::request::Priority;
    use cc19_tensor::Tensor;

    fn tiny_volume(seed: u64) -> Tensor {
        let mut rng = cc19_tensor::rng::Xorshift::new(seed);
        rng.uniform_tensor([4, 32, 32], -1000.0, 400.0)
    }

    fn tiny_server(cfg: ServerCfg) -> Server {
        Server::start(cfg, || Framework::untrained_reduced(42)).expect("server starts")
    }

    #[test]
    fn serves_a_request_end_to_end() {
        let server = tiny_server(ServerCfg::default());
        let client = server.client();
        let pending = client
            .submit(ServeRequest {
                volume: tiny_volume(1),
                priority: Priority::Stat,
                deadline: None,
            })
            .unwrap();
        let resp = pending.wait().unwrap();
        let d = resp.result.unwrap();
        assert!((0.0..=1.0).contains(&d.probability));
        // Room for eight, dispatched at once and alone (`wait` never times out).
        let snap = server.shutdown().snapshot();
        assert_eq!((snap.completed, snap.batches, snap.max_batch), (1, 1, 1));
    }

    #[test]
    fn paused_server_queues_then_drains_on_shutdown() {
        let cfg = ServerCfg { start_paused: true, ..ServerCfg::default() };
        let server = tiny_server(cfg);
        let client = server.client();
        let pendings: Vec<_> = (0..3)
            .map(|i| client.submit(ServeRequest::routine(tiny_volume(i))).unwrap())
            .collect();
        assert_eq!(server.queue_depth(), 3, "paused server holds admissions");
        // shutdown opens the gate and drains — every accepted request
        // is still answered.
        let metrics = server.shutdown();
        for p in pendings {
            assert!(p.wait().unwrap().result.is_ok());
        }
        assert_eq!(metrics.snapshot().completed, 3);
    }

    #[test]
    fn each_worker_builds_one_replica() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let built = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&built);
        let cfg = ServerCfg { pipelines: 2, ..ServerCfg::default() };
        let server = Server::start(cfg, move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Framework::untrained_reduced(42)
        })
        .expect("server starts");
        server.shutdown();
        assert_eq!(built.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let server = tiny_server(ServerCfg::default());
        let client = server.client();
        let metrics = server.shutdown();
        assert_eq!(
            client.submit(ServeRequest::routine(tiny_volume(9))).unwrap_err(),
            Rejected::ShuttingDown
        );
        assert_eq!(metrics.snapshot().rejected, 1);
    }
}
