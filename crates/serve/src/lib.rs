//! # cc19-serve
//!
//! The serving subsystem of the ComputeCOVID19+ reproduction: the layer
//! that turns one-volume-at-a-time [`computecovid19::Framework`] calls
//! into a concurrent diagnosis *service* (the paper's headline claim is
//! clinical turnaround — §5, Table 3 — and the ROADMAP north star is
//! heavy multi-user traffic).
//!
//! Architecture (DESIGN.md §10):
//!
//! ```text
//! clients ──▶ broker (bounded admission, stat/urgent/routine classes,
//!         │           EDF within class, typed backpressure)
//!         │      │
//!         │      ▼  a free worker takes what is queued, ≤ max_batch
//!         │   workers × P, each one thread + one Framework replica:
//!         │      for each study: enhance → segment → classify
//!         │      ▼
//!         ◀── replies (exactly once per accepted request) + metrics
//! ```
//!
//! - [`broker`] — bounded admission queue with priority classes and
//!   deadline-aware scheduling; over-capacity submissions get a typed
//!   [`Rejected`] instead of unbounded queue growth.
//! - [`batcher`] — the `max_batch` policy and the pause gate used for
//!   deterministic tests.
//! - [`worker`] — warm pool of `Framework` replicas, one per worker
//!   thread; a worker runs the three stages of each study in turn,
//!   threading one `Scratch` buffer pool through them.
//! - [`server`] — ties the pieces together; in-process [`Client`].
//! - [`wire`] — TCP front end over `std::net::TcpStream`, framed with
//!   the CRC framing reused from [`cc19_dist::framing`].
//! - [`metrics`] — per-stage latency histograms, queue depth, batch-size
//!   distribution, reject counters, p50/p95/p99; dumps CSV under
//!   `results/`.
//!
//! This crate is on the cc19-lint panic-surface path: recoverable
//! failures must surface as typed errors (`Rejected`, failed
//! `ServeResponse`s, `io::Result`), never panics. Unit-test modules opt
//! back into `unwrap` locally.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

pub mod batcher;
pub mod broker;
pub mod cluster;
pub mod metrics;
pub mod request;
pub mod server;
pub(crate) mod sync;
pub mod wire;
pub mod worker;

pub use batcher::BatchPolicy;
pub use broker::{Broker, BrokerCfg, Job};
pub use cluster::{ClusterCfg, ClusterClient, ClusterMetrics, ClusterSnapshot, HashRing, ServeCluster};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use request::{Priority, Rejected, ServeRequest, ServeResponse};
pub use server::{Client, PendingDiagnosis, Server, ServerCfg};
pub use wire::{serve_on, TcpServeClient};
