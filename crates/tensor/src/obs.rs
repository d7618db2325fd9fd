//! Cached `cc19-obs` handles for the tensor hot paths.
//!
//! GEMM runs thousands of times per training step, so its handles are
//! `OnceLock`-cached and the timer reads the clock exactly twice per
//! call, on the caller thread (rayon workers never touch the clock —
//! that keeps clock reads causally ordered under the deterministic
//! manual clock). Conv entries are chunky enough that a per-call
//! registry lookup is noise.

use std::sync::{Arc, OnceLock};

use cc19_obs::{Clock, Counter, HistogramHandle, Timer};

/// Handles for [`crate::gemm::sgemm`] instrumentation.
pub(crate) struct GemmObs {
    /// `tensor_gemm_flops_total`: 2·m·n·k per call.
    pub flops: Counter,
    /// `tensor_gemm_seconds` histogram.
    pub seconds: HistogramHandle,
    /// The registry clock, read on the caller thread only.
    pub clock: Arc<dyn Clock>,
}

pub(crate) fn gemm() -> &'static GemmObs {
    static OBS: OnceLock<GemmObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let reg = cc19_obs::global();
        GemmObs {
            flops: reg.counter("tensor_gemm_flops_total"),
            seconds: reg.histogram("tensor_gemm_seconds"),
            clock: reg.clock(),
        }
    })
}

/// Widening product of dimension extents (the MAC count of a conv loop
/// nest), safe against `usize` overflow on large-but-valid shapes.
pub fn macs(dims: &[usize]) -> u64 {
    dims.iter().map(|&x| x as u64).product()
}

/// Count `flops` into `tensor_conv_flops_total{op,pass}` and start a
/// `tensor_conv_seconds{op,pass}` timer; dropping the guard observes the
/// elapsed seconds (two clock reads per call, on the caller thread).
/// Forward passes cost `2·MACs` flops, backward passes `4·MACs` (the
/// input- and weight-gradient loops each re-run the MACs). Public so the
/// kernel-ladder deconvolutions and 3D convolutions `cc19_nn::exec` runs
/// at inference are counted beside the tensor kernels they replace.
pub fn conv_call(op: &'static str, pass: &'static str, flops: u64) -> Timer {
    let reg = cc19_obs::global();
    let labels = [("op", op), ("pass", pass)];
    reg.counter_with("tensor_conv_flops_total", &labels).add(flops);
    reg.timer_with("tensor_conv_seconds", &labels)
}
