//! # cc19-ddnet
//!
//! DDnet — the DenseNet + Deconvolution network for CT image enhancement
//! that is the core of the ComputeCOVID19+ framework (§2.2 of the paper,
//! adapted from Zhang et al., IEEE TMI 2018).
//!
//! Architecture (Table 2): a convolution network of 37 convolution layers
//! — a 7×7 stem plus four dense blocks (4 densely-connected BN → LeakyReLU
//! → 1×1 conv → BN → LeakyReLU → 5×5 conv layers each) with 3×3/stride-2
//! pooling and 1×1 transition convolutions — followed by a deconvolution
//! network of 8 deconvolution layers in four stages, each stage being
//! bilinear un-pooling (×2), concatenation with the encoder feature map of
//! matching resolution (the *global shortcut connections*), a 5×5
//! deconvolution and a 1×1 deconvolution.
//!
//! The network is fully convolutional: any input extent divisible by 16
//! works; the paper's configuration is 512×512 with 16 base channels and
//! growth 16 (dense-block output 80 channels).


pub mod baselines;
pub mod model;
pub mod projection;
mod timed;
pub mod trainer;

pub use model::{Ddnet, DdnetConfig, LayerRow};
pub use timed::KernelTimes;
pub use trainer::{evaluate_pairs, train_enhancement, EnhancementMetrics, EpochStats, TrainConfig};

/// Crate-wide result alias.
pub type Result<T> = cc19_tensor::Result<T>;
