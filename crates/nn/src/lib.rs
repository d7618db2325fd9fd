//! # cc19-nn
//!
//! A small define-by-run deep-learning framework: tape-based autograd over
//! `cc19-tensor`, the layer set needed by the ComputeCOVID19+ networks
//! (DDnet, 3D DenseNet-121-lite, CNN segmenter), Adam with exponential LR
//! decay, and the paper's losses — MSE, (MS-)SSIM and binary cross-entropy.
//!
//! The engine is deliberately simple: a `Graph` is rebuilt every forward
//! pass (define-by-run, like the PyTorch code the paper used); parallelism
//! lives inside the tensor kernels, not across graph nodes. Inference
//! skips the tape: the same network code is compiled once per input shape
//! into a [`plan::Plan`] that runs from one arena ([`exec`], [`plan`]).


pub mod checkpoint;
pub mod exec;
pub mod graph;
pub mod init;
pub mod layers;
pub mod losses;
pub mod optim;
pub mod param;
pub mod plan;
pub mod ssim;

pub use cc19_tensor::conv_backend::ConvBackend;
pub use graph::{Graph, Var};
pub use param::{Param, ParamRef, ParamStore};

/// Crate-wide result alias (re-uses the tensor error type).
pub type Result<T> = cc19_tensor::Result<T>;
