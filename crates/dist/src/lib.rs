//! # cc19-dist
//!
//! The distributed-training substrate of the ComputeCOVID19+ reproduction.
//! The paper parallelizes Enhancement-AI training with PyTorch
//! `DistributedDataParallel` over gloo on up to 8 single-T4 nodes (§4.1),
//! and studies node-count / batch-size scaling in Table 3.
//!
//! This crate provides:
//!
//! - [`link`] — the one reliable link: sequence-numbered, CRC-framed
//!   point-to-point channels over any [`link::Payload`] (`Vec<f32>`
//!   gradients, `Vec<u8>` serve-cluster RPC bytes) with a retransmit
//!   buffer, a deterministic fault injector ([`fault`]) for chaos
//!   testing, a non-blocking receive for event loops and a blocking one
//!   with jittered-backoff retries;
//! - [`transport`] — the ring and star topologies built from those
//!   links, with heartbeat failure detection and ring rebuild;
//! - [`allreduce`] — a real **ring all-reduce** (reduce-scatter +
//!   all-gather) over the fault-tolerant transport, plus a naive
//!   parameter-server reduce for the ablation bench;
//! - [`trainer`] — a thread-per-node data-parallel DDnet trainer whose
//!   replicas stay bit-identical through deterministic gradient averaging
//!   (the DDP execution model), degrades gracefully when a rank dies, and
//!   checkpoints/resumes full trainer state;
//! - [`cluster`] — a performance model of the paper's cluster (per-step
//!   compute time × communication time from an interconnect model), used
//!   to regenerate Table 3's runtime column at the paper's scale, since
//!   this host cannot physically run 8 GPU nodes (DESIGN.md §2).


pub mod allreduce;
pub mod cluster;
pub mod error;
pub mod fault;
pub mod framing;
pub mod link;
mod obs;
pub mod trainer;
pub mod transport;

pub use allreduce::{
    naive_allreduce, ring_allreduce, ring_allreduce_lockstep, ring_allreduce_resilient,
};
pub use cluster::{ClusterModel, Interconnect};
pub use error::Error;
pub use fault::{FaultConfig, FaultKind, FaultPlan};
pub use framing::WireFrame;
pub use link::{link, LinkRx, LinkTx, Payload};
pub use trainer::{
    train_distributed, train_distributed_ft, CheckpointCfg, DistConfig, DistStats, FtOptions,
};
pub use transport::{RingTransport, StarTransport, TimeoutCfg};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
