//! The cluster router: consistent-hash dispatch, reply fan-in,
//! death detection, and re-dispatch.
//!
//! One router thread owns all state — the hash ring, the per-worker
//! byte links, and the dispatch table — so there is no cross-thread
//! locking and every decision is sequentially ordered (which is what
//! makes the chaos harness and the deterministic bench assertable).
//!
//! The thread sleeps on one [`Doorbell`] that every event source rings
//! once its event is visible: a client after queueing a [`Cmd`], a
//! worker's reply link after each send and when it hangs up. The wait's
//! time-out ([`ClusterCfg::tick`]) only serves the staleness sweep.
//!
//! **Exactly-once argument** (DESIGN.md §14): every accepted request
//! gets a unique `req_id` and an entry in the `inflight` dispatch
//! table. The *only* place a client reply is sent is the spot where
//! that entry is removed — either a worker reply arriving (first one
//! wins; the entry is gone for any later duplicate, which is counted as
//! suppressed) or the re-dispatch budget exhausting (typed failure).
//! Since removal happens exactly once per id, the client sees exactly
//! one response per accepted request: no loss (a dead worker's orphaned
//! entries are re-dispatched or failed, never dropped) and no double
//! service (the table gates delivery, and deterministic replicas make
//! the suppressed duplicate bit-identical anyway).

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cc19_dist::transport::Cluster;
use cc19_dist::{link, LinkRx, LinkTx};
use cc19_nn::checkpoint::Checkpoint;
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};

use cc19_obs::{Counter, SpanStatus, TraceCtx};

use computecovid19::framework::Framework;

use crate::cluster::node::{spawn_node, Node};
use crate::cluster::proto::{self, Reply};
use crate::cluster::ring::HashRing;
use crate::cluster::weights;
use crate::cluster::{ClusterCfg, ClusterMetrics};
use crate::request::{Rejected, ServeRequest, ServeResponse};
use crate::sync::Doorbell;
use crate::worker::FrameworkFactory;

/// Client/front-end → router commands.
pub(super) enum Cmd {
    /// Admit (or reject) a study and dispatch it.
    Submit {
        /// Routing key (consistent-hashed onto the ring).
        study_id: u64,
        /// The request itself.
        req: ServeRequest,
        /// Where the eventual [`ServeResponse`] goes.
        reply: Sender<ServeResponse>,
        /// Admission verdict: `Ok(req_id)` or a typed rejection.
        decision: Sender<Result<u64, Rejected>>,
        /// Optional trace to continue instead of rooting a new one.
        link: Option<TraceCtx>,
    },
    /// Add a worker replica (weights arrive over the broadcast path).
    Join {
        /// `Ok(worker id)` once the replica is serving.
        decision: Sender<io::Result<usize>>,
    },
    /// Begin graceful shutdown: reject new work, drain in-flight.
    Close,
}

/// One accepted, not-yet-answered request.
struct InFlight {
    study_id: u64,
    req: ServeRequest,
    reply: Sender<ServeResponse>,
    /// Dispatch attempts so far (1 after the initial dispatch).
    attempts: usize,
    /// Worker currently holding the request.
    worker: usize,
    /// Root span of the request's trace (recorded when it resolves).
    root: TraceCtx,
    /// Dispatch span of the *current* attempt; the worker subtree
    /// grafts under it, and a death marks it `redispatched`.
    wire: TraceCtx,
    /// Root span start (admission time, router clock ns).
    t_root: u64,
    /// Current attempt's dispatch time (router clock ns).
    attempt_start: u64,
}

/// The router's view of one worker.
struct WorkerSlot {
    tx: LinkTx<Vec<u8>>,
    rx: LinkRx<Vec<u8>>,
    alive: bool,
    dispatched: Counter,
    handle: Option<JoinHandle<()>>,
}

/// All router state; owned by the router thread after [`Router::new`].
pub(super) struct Router {
    cfg: ClusterCfg,
    factory: FrameworkFactory,
    metrics: ClusterMetrics,
    hb: Arc<Cluster>,
    ring: HashRing,
    workers: Vec<WorkerSlot>,
    inflight: HashMap<u64, InFlight>,
    next_req: u64,
    closed: bool,
    /// Lazily built canonical enhancer checkpoint (`None` = not yet
    /// snapshotted; `Some(None)` = the framework has no enhancer).
    canonical: Option<Option<Arc<Checkpoint>>>,
    cmd_rx: Receiver<Cmd>,
    /// Rung by clients and by every worker's reply link.
    bell: Arc<Doorbell>,
}

impl Router {
    /// Build the router and spawn the initial worker set. Runs on the
    /// caller's thread so spawn failures surface as `Err` from
    /// [`super::ServeCluster::start`]; the finished value is then moved
    /// into the router thread.
    pub(super) fn new(
        cfg: ClusterCfg,
        factory: FrameworkFactory,
        metrics: ClusterMetrics,
        cmd_rx: Receiver<Cmd>,
        bell: Arc<Doorbell>,
    ) -> io::Result<Router> {
        let hb = Cluster::standalone(cfg.max_workers);
        // Slots beyond the initial membership are not workers yet;
        // marking them dead keeps the staleness sweep honest.
        for rank in cfg.workers..cfg.max_workers {
            hb.mark_dead(rank);
        }
        let mut router = Router {
            ring: HashRing::new(cfg.workers, cfg.vnodes),
            workers: Vec::with_capacity(cfg.workers),
            inflight: HashMap::new(),
            next_req: 0,
            closed: false,
            canonical: None,
            hb,
            cfg,
            factory,
            metrics,
            cmd_rx,
            bell,
        };
        for node in 0..router.cfg.workers {
            let slot = router.spawn_worker(node, Arc::clone(&router.factory))?;
            router.workers.push(slot);
        }
        router.metrics.live_workers.set(router.cfg.workers as f64);
        router.metrics.generation.set(0.0);
        Ok(router)
    }

    /// Wire up both byte links for `node` and start its thread.
    fn spawn_worker(&self, node: usize, factory: FrameworkFactory) -> io::Result<WorkerSlot> {
        // Link ranks: workers use their node id, the router sits one
        // past the largest possible worker id.
        let router_rank = self.cfg.max_workers;
        let (faults, reg) = (self.cfg.faults, cc19_obs::global());
        let (mut tx, dispatch_rx) = link(router_rank, node, faults, reg);
        let (mut reply_tx, rx) = link(node, router_rank, faults, reg);
        // Each direction wakes its receiver's loop.
        let node_bell = Arc::new(Doorbell::default());
        let (to_node, to_router) = (Arc::clone(&node_bell), Arc::clone(&self.bell));
        tx.on_send(move || to_node.ring());
        reply_tx.on_send(move || to_router.ring());
        let mut worker_cfg = self.cfg.worker;
        worker_cfg.start_paused = false; // a paused replica would deadlock the cluster
        let wiring = Node {
            id: node,
            dispatch_rx,
            reply_tx,
            bell: node_bell,
            hb: Arc::clone(&self.hb),
            tick: self.cfg.tick(),
            kill_after: self.cfg.faults.kill_step(node),
        };
        let handle = spawn_node(wiring, worker_cfg, factory)?;
        let node_label = node.to_string();
        let dispatched = self
            .metrics
            .registry()
            .counter_with("serve_cluster_node_dispatched_total", &[("node", &node_label)]);
        Ok(WorkerSlot { tx, rx, alive: true, dispatched, handle: Some(handle) })
    }

    /// The router event loop; consumes `self` and runs until closed and
    /// drained, then gracefully stops the surviving workers.
    pub(super) fn run(mut self) {
        let tick = self.cfg.tick();
        loop {
            loop {
                match self.cmd_rx.recv_timeout(Duration::ZERO) {
                    Ok(cmd) => self.handle_cmd(cmd),
                    // Every handle dropped without an explicit Close
                    // (nothing rings for that; seen on the next tick):
                    // treat as Close so in-flight work still drains.
                    Err(end) => {
                        self.closed |= end == RecvTimeoutError::Disconnected;
                        break;
                    }
                }
            }

            // Reply fan-in. A link error here is the primary death
            // signal, and it only fires after every frame the worker
            // managed to send has been drained — completed work from a
            // dying worker is never thrown away.
            for w in 0..self.workers.len() {
                if !self.workers[w].alive {
                    continue;
                }
                loop {
                    match self.workers[w].rx.try_recv() {
                        Ok(Some(payload)) => self.on_reply(&payload),
                        Ok(None) => break,
                        Err(_) => {
                            self.on_worker_death(w);
                            break;
                        }
                    }
                }
            }

            // Secondary death signal: a connected-but-silent worker.
            while let Some(stale) = self.hb.stale_rank(usize::MAX, self.cfg.liveness) {
                if stale < self.workers.len() && self.workers[stale].alive {
                    self.on_worker_death(stale);
                } else {
                    // An already-dead or never-spawned rank; nothing to
                    // recover. (mark_dead in on_worker_death guarantees
                    // progress when the branch above is taken.)
                    self.hb.mark_dead(stale);
                    break;
                }
            }

            if self.closed && self.inflight.is_empty() {
                break;
            }
            // Returns at once for anything that arrived during this pass.
            self.bell.wait(tick);
        }

        // Graceful stop: ask survivors to drain, drop every link (the
        // hang-up doubles as the exit signal for any worker that missed
        // the frame), then reap the threads.
        for slot in &mut self.workers {
            if slot.alive {
                slot.tx.send(proto::encode_shutdown());
            }
        }
        let handles: Vec<_> = self.workers.iter_mut().filter_map(|s| s.handle.take()).collect();
        drop(self.workers);
        for h in handles {
            let _ = h.join();
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Submit { study_id, req, reply, decision, link } => {
                match self.admit(study_id, req, reply, link) {
                    Ok(id) => {
                        let _ = decision.send(Ok(id));
                    }
                    Err(why) => {
                        self.metrics.rejected.inc();
                        let _ = decision.send(Err(why));
                    }
                }
            }
            Cmd::Join { decision } => {
                let verdict = self.join_worker();
                let _ = decision.send(verdict);
            }
            Cmd::Close => self.closed = true,
        }
    }

    /// Admission control, mirroring the single-node broker's checks,
    /// with a capacity bound that **tightens as workers die**: total
    /// in-flight is capped at `live workers × per_worker_inflight`, so
    /// a shrinking cluster sheds load with typed rejections instead of
    /// queueing work it cannot serve.
    fn admit(
        &mut self,
        study_id: u64,
        req: ServeRequest,
        reply: Sender<ServeResponse>,
        link: Option<TraceCtx>,
    ) -> Result<u64, Rejected> {
        if self.closed {
            return Err(Rejected::ShuttingDown);
        }
        req.screen(self.cfg.worker.est_service)?;
        let capacity = self.ring.node_count() * self.cfg.per_worker_inflight;
        if self.inflight.len() >= capacity {
            return Err(Rejected::QueueFull { depth: self.inflight.len(), bound: capacity });
        }
        // capacity > 0 implies a non-empty ring; the fallback is
        // defensive only.
        let worker = match self.ring.route(study_id) {
            Some(w) => w,
            None => return Err(Rejected::QueueFull { depth: self.inflight.len(), bound: 0 }),
        };
        let id = self.next_req;
        self.next_req += 1;
        // Mint the trace only for admitted requests. One clock read per
        // admission; commands are handled sequentially on this thread,
        // so deterministic-mode timestamps stay causally ordered.
        let reg = self.metrics.registry();
        let t0 = reg.now_ns();
        let root = reg.trace_begin(link);
        let wire = reg.trace_reserve(root);
        self.workers[worker].tx.send(proto::encode_dispatch(id, wire, &req));
        self.workers[worker].dispatched.inc();
        self.inflight.insert(
            id,
            InFlight {
                study_id,
                req,
                reply,
                attempts: 1,
                worker,
                root,
                wire,
                t_root: t0,
                attempt_start: t0,
            },
        );
        self.metrics.dispatched.inc();
        self.metrics.inflight_max.set_max(self.inflight.len() as f64);
        Ok(id)
    }

    /// A worker's reply: deliver it iff the dispatch-table entry is
    /// still present (see the exactly-once argument in the module docs).
    fn on_reply(&mut self, payload: &[u8]) {
        let reply = match proto::decode_reply(payload) {
            Ok(r) => r,
            Err(_) => return, // undecodable frame: drop (CRC already vetted it)
        };
        let req_id = reply.req_id();
        let Some(inf) = self.inflight.remove(&req_id) else {
            // A re-dispatched request answered twice (the "dead" worker
            // had finished after all). The table gated delivery, so the
            // client still sees exactly one response.
            self.metrics.suppressed.inc();
            return;
        };
        let (result, spans, status) = match reply {
            Reply::Ok { diagnosis, spans, .. } => {
                self.metrics.completed.inc();
                (Ok(diagnosis), spans, SpanStatus::Ok)
            }
            Reply::Fail { message, spans, .. } => {
                self.metrics.failed.inc();
                (Err(message), spans, SpanStatus::Failed)
            }
            Reply::Rejected { why, .. } => {
                self.metrics.failed.inc();
                (Err(format!("worker-local rejection: {why}")), Vec::new(), SpanStatus::Failed)
            }
        };
        // Graft the worker's span subtree under this attempt's dispatch
        // span. The worker registry runs its own clock, so the subtree
        // is rebased onto the dispatch time, and the dispatch span ends
        // no earlier than the rebased subtree — the tree stays properly
        // nested and the critical-path segments still sum exactly.
        let reg = self.metrics.registry();
        let t1 = reg.now_ns();
        let lo = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let extent = spans.iter().map(|s| s.end_ns).max().unwrap_or(0).saturating_sub(lo);
        self.metrics.trace_spans.add(spans.len() as u64);
        reg.trace_ingest(inf.wire, inf.attempt_start, &spans);
        let wire_end = t1.max(inf.attempt_start.saturating_add(extent));
        reg.trace_record(inf.wire, "serve.cluster.wire", inf.attempt_start, wire_end, SpanStatus::Ok);
        reg.trace_record(inf.root, "serve.request", inf.t_root, wire_end, status);
        let _ = inf.reply.send(ServeResponse { id: req_id, result });
    }

    /// First-detector death handling: fence the worker out of the ring,
    /// then re-dispatch everything it held, in request-id order.
    fn on_worker_death(&mut self, w: usize) {
        if !self.workers[w].alive {
            return;
        }
        self.workers[w].alive = false;
        self.hb.mark_dead(w);
        self.ring.remove(w);
        self.metrics.deaths.inc();
        self.metrics.generation.set(self.ring.generation() as f64);
        self.metrics.live_workers.set(self.ring.node_count() as f64);
        // Recovery latency: death verdict → last orphan re-dispatched.
        // These are the only clock reads on the router's happy path or
        // otherwise, keeping deterministic exports deterministic.
        let t0 = self.metrics.registry().now_ns();
        let mut orphans: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, inf)| inf.worker == w)
            .map(|(id, _)| *id)
            .collect();
        orphans.sort_unstable();
        for id in orphans {
            self.redispatch(id, t0);
        }
        let dt = self.metrics.registry().now_ns().saturating_sub(t0);
        self.metrics.recovery_ms.observe(dt as f64 / 1e6);
    }

    /// Move one orphaned request to a surviving worker, or fail it with
    /// a typed error once the retry budget is spent. `now_ns` is the
    /// death-verdict timestamp read by [`Router::on_worker_death`] — no
    /// extra clock reads here, so deterministic runs stay reproducible.
    fn redispatch(&mut self, id: u64, now_ns: u64) {
        let Some(inf) = self.inflight.get_mut(&id) else { return };
        inf.attempts += 1;
        // The aborted attempt's spans died with the worker; its dispatch
        // span is closed as `redispatched` so the trace shows the lost
        // attempt instead of silently dropping it.
        let reg = Arc::clone(self.metrics.registry());
        reg.trace_record(
            inf.wire,
            "serve.cluster.wire",
            inf.attempt_start,
            now_ns.max(inf.attempt_start),
            SpanStatus::Redispatched,
        );
        let target = if inf.attempts > self.cfg.max_attempts {
            None
        } else {
            self.ring.route(inf.study_id)
        };
        match target {
            Some(worker) => {
                inf.worker = worker;
                inf.wire = reg.trace_reserve(inf.root);
                inf.attempt_start = now_ns;
                self.workers[worker].tx.send(proto::encode_dispatch(id, inf.wire, &inf.req));
                self.workers[worker].dispatched.inc();
                self.metrics.dispatched.inc();
                self.metrics.redispatched.inc();
            }
            None => {
                let reason = if self.ring.is_empty() {
                    "no live workers remain".to_string()
                } else {
                    format!("re-dispatch budget exhausted after {} attempts", inf.attempts - 1)
                };
                let Some(inf) = self.inflight.remove(&id) else { return };
                reg.trace_record(
                    inf.root,
                    "serve.request",
                    inf.t_root,
                    now_ns.max(inf.t_root),
                    SpanStatus::Failed,
                );
                self.metrics.failed.inc();
                let _ = inf.reply.send(ServeResponse { id, result: Err(reason) });
            }
        }
    }

    /// Bring up a new replica: snapshot the canonical enhancer weights
    /// (lazily, once), broadcast them over the allreduce path, and wrap
    /// the factory so the joining worker loads the delivered checkpoint
    /// over whatever it builds.
    fn join_worker(&mut self) -> io::Result<usize> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "cluster is shutting down; no new workers",
            ));
        }
        let node = self.workers.len();
        if node >= self.cfg.max_workers {
            return Err(io::Error::other(format!(
                "cluster is at max_workers = {}",
                self.cfg.max_workers
            )));
        }
        let canonical = match &self.canonical {
            Some(ck) => ck.clone(),
            None => {
                let fw = (self.factory)();
                let ck = fw.enhancer.as_ref().map(|net| Arc::new(net.to_checkpoint()));
                self.canonical = Some(ck.clone());
                ck
            }
        };
        let factory: FrameworkFactory = match canonical {
            None => Arc::clone(&self.factory),
            Some(ck) => {
                let delivered = Arc::new(weights::broadcast_checkpoint(&ck)?);
                let base = Arc::clone(&self.factory);
                Arc::new(move || {
                    let fw: Framework = base();
                    if let Some(net) = &fw.enhancer {
                        // A mismatch leaves the factory's (identical,
                        // deterministic) weights in place.
                        let _ = net.load_checkpoint(&delivered);
                    }
                    fw
                })
            }
        };
        let slot = self.spawn_worker(node, factory)?;
        self.workers.push(slot);
        self.hb.mark_alive(node);
        self.ring.add(node);
        self.metrics.joins.inc();
        self.metrics.generation.set(self.ring.generation() as f64);
        self.metrics.live_workers.set(self.ring.node_count() as f64);
        Ok(node)
    }
}
