//! A worker node: one single-node [`Server`] wrapped in a byte-link
//! event loop.
//!
//! The loop sleeps on one [`Doorbell`] that both of its event sources
//! ring — the router's dispatch link (each send, and the hang-up) and
//! the local server (each response) — so nothing waits for a poll. Each
//! pass heartbeats (at least every `tick`, so the router's staleness
//! sweep only fires for genuinely hung workers), pulls dispatches off
//! the reliable link, submits them to the local server, and forwards
//! completed responses back **in dispatch order** — FIFO forwarding
//! keeps each worker's reply stream deterministic, which the chaos
//! harness and the deterministic bench both rely on.
//!
//! Death simulation: when the cluster's [`FaultPlan`] schedules a kill
//! for this node, the loop breaks out the moment the fatal dispatch
//! arrives — before submitting it — and drops both links without
//! draining, exactly like a crashed process. The router's death signal
//! is the reply link disconnecting (primary) or the heartbeat going
//! stale (secondary, for hung-but-connected workers).
//!
//! [`FaultPlan`]: cc19_dist::FaultPlan

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use cc19_dist::transport::Cluster;
use cc19_dist::{LinkRx, LinkTx};
use crossbeam::channel::RecvTimeoutError;

use crate::cluster::proto::{self, Dispatch};
use crate::metrics::ServeMetrics;
use crate::server::{PendingDiagnosis, Server, ServerCfg};
use crate::sync::Doorbell;
use crate::worker::FrameworkFactory;

/// One worker node's wiring: it serves dispatches from `dispatch_rx`,
/// replies on `reply_tx` and heartbeats rank `id` on `hb`, at least
/// every `tick`. `bell` is rung by `dispatch_rx`'s sender and by the
/// local server. `kill_after` is the fault plan's scheduled silent
/// death: die upon receiving dispatch number `kill_after` (0-based).
pub(crate) struct Node {
    pub(crate) id: usize,
    pub(crate) dispatch_rx: LinkRx<Vec<u8>>,
    pub(crate) reply_tx: LinkTx<Vec<u8>>,
    pub(crate) bell: Arc<Doorbell>,
    pub(crate) hb: Arc<Cluster>,
    pub(crate) tick: Duration,
    pub(crate) kill_after: Option<usize>,
}

/// Spawn `node`'s thread around a local server built from `cfg` and
/// `factory`.
pub(crate) fn spawn_node(
    node: Node,
    cfg: ServerCfg,
    factory: FrameworkFactory,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(format!("cc19-cluster-node-{}", node.id))
        .spawn(move || rayon::serial(|| node_loop(node, cfg, factory)))
}

fn node_loop(node: Node, cfg: ServerCfg, factory: FrameworkFactory) {
    let Node { id, mut dispatch_rx, mut reply_tx, bell, hb, tick, kill_after } = node;
    // Hold the node's own registry so completed requests' span subtrees
    // can be drained (`trace_take`) and shipped home in reply frames.
    let metrics = ServeMetrics::new();
    let reg = Arc::clone(metrics.registry());
    let server = match Server::start_with_doorbell(cfg, factory, metrics, Some(bell.clone())) {
        Ok(s) => s,
        // Could not even start (thread-spawn exhaustion). Dropping the
        // links on return is the death signal; the router re-routes.
        Err(_) => return,
    };
    let client = server.client();
    let mut pendings: VecDeque<(u64, u64, PendingDiagnosis)> = VecDeque::new();
    let mut received = 0usize;
    let mut draining = false;

    'outer: loop {
        hb.beat(id);

        // Pull every dispatch the link can deliver right now.
        while !draining {
            match dispatch_rx.try_recv() {
                Ok(Some(payload)) => match proto::decode_dispatch(&payload) {
                    Ok(Dispatch::Request { req_id, ctx, req }) => {
                        if kill_after == Some(received) {
                            break 'outer; // scheduled crash: no drain, no goodbye
                        }
                        received += 1;
                        match client.submit_traced(req, Some(ctx)) {
                            Ok(p) => pendings.push_back((req_id, ctx.trace_id, p)),
                            Err(why) => {
                                // Rejections mint no trace (admission
                                // failed before span minting), so the
                                // reply carries no span section.
                                reply_tx.send(proto::encode_reply_rejected(req_id, &why));
                            }
                        }
                    }
                    Ok(Dispatch::Shutdown) => draining = true,
                    // CRC-rejected frames never reach us; a frame that
                    // still fails to decode is dropped, not fatal.
                    Err(_) => {}
                },
                Ok(None) => break,
                // Router hung up: serve what we have, then exit.
                Err(_) => draining = true,
            }
        }

        // Forward completed responses, oldest first. Each reply drains
        // the request's local span subtree and ships it home so the
        // router can graft it under its dispatch span.
        while let Some((req_id, trace_id, p)) = pendings.front() {
            let (req_id, trace_id) = (*req_id, *trace_id);
            match p.wait_timeout(Duration::ZERO) {
                Ok(resp) => {
                    let spans = reg.trace_take(trace_id);
                    let bytes = match &resp.result {
                        Ok(d) => proto::encode_reply_ok(req_id, d, &spans),
                        Err(msg) => proto::encode_reply_fail(req_id, msg, &spans),
                    };
                    reply_tx.send(bytes);
                    pendings.pop_front();
                }
                Err(RecvTimeoutError::Timeout) => break,
                // A worker thread that died without answering rings nothing;
                // this is seen on the next wake-up.
                Err(RecvTimeoutError::Disconnected) => {
                    let spans = reg.trace_take(trace_id);
                    reply_tx.send(proto::encode_reply_fail(req_id, "worker thread lost", &spans));
                    pendings.pop_front();
                }
            }
        }

        if draining && pendings.is_empty() {
            break;
        }
        bell.wait(tick);
    }

    // Links first — for a killed node this *is* the crash as the router
    // sees it; for a graceful exit everything owed has been forwarded.
    drop(reply_tx);
    drop(dispatch_rx);
    // Reap the local worker threads. A killed node's queued work may
    // still compute here, but its replies go to dropped receivers and
    // never reach the wire — matching a crashed process's externally
    // observable behavior while keeping the test process leak-free.
    let _ = server.shutdown();
}
