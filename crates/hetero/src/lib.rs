//! # cc19-hetero
//!
//! A performance model for DDnet inference on the paper's six evaluation
//! platforms (Table 4): Nvidia V100 / P100 / T4, AMD Radeon Vega Frontier,
//! Intel Xeon Gold 6128, and the Intel Arria 10 GX 1150 FPGA.
//!
//! We do not have this hardware (see DESIGN.md §2). The paper itself
//! observes that "the performance of our optimized OpenCL kernels across
//! the various platforms tracks with the memory bandwidth of the
//! platforms" (§5.1.3) — i.e., a bandwidth-driven roofline is the paper's
//! own explanatory model. This crate implements that model:
//!
//! - per-kernel-class operation counts are computed exactly from the
//!   Table 2 layer shapes (via `cc19-kernels::count`, validated against
//!   Table 6);
//! - optimized-kernel runtime per class is
//!   `max(flops / (peak_flops · eff), bytes / (bandwidth · eff))`;
//! - the *baseline* (scatter) deconvolution is modeled by device atomic /
//!   read-modify-write throughput, which is what serializes the naive
//!   kernel on real devices;
//! - FPGA compute peaks are built from the paper's own configuration: 2
//!   compute units, ×5 vectorization (deconvolution only), 184 MHz.
//!
//! The measured CPU rows in the generated tables come from running the
//! real network on the kernel ladder (`Ddnet::enhance_timed`) on the
//! host, which grounds the model; the accelerator rows are predictions.


pub mod devices;
pub mod host;
pub mod model;
pub mod reconfig;

pub use devices::{Device, DeviceClass, DEVICES};
pub use host::{derive_cpu_device, host_cpu_device, HostCaps};
pub use model::{ddnet_class_counts, predict_kernel_times, predict_table7_row, ClassCounts, DdnetShape};
pub use reconfig::{reconfiguration_decision, ReconfigDecision};

/// Crate-wide result alias.
pub type Result<T> = cc19_tensor::Result<T>;
