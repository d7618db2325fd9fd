//! Cached `cc19-obs` handles for the tensor hot paths.
//!
//! GEMM runs thousands of times per training step and a warm
//! `diagnose` makes over a hundred convolution calls, so both keep their
//! handles in statics: a registry lookup sorts and renders the label set
//! and takes the registry lock, a few dozen allocation events per call.
//! Timers read the clock exactly twice per call, on the caller thread
//! (rayon workers never touch the clock — that keeps clock reads
//! causally ordered under the deterministic manual clock).

use std::sync::{Arc, Mutex, OnceLock};

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

/// The cached handles of one `(op, pass)` pair of [`conv_call`].
struct ConvObs {
    op: &'static str,
    pass: &'static str,
    flops: Counter,
    seconds: HistogramHandle,
}

/// Count `flops` into `tensor_conv_flops_total{op,pass}` and start a
/// `tensor_conv_seconds{op,pass}` timer; dropping the guard observes the
/// elapsed seconds (two clock reads per call, on the caller thread).
/// Forward passes cost `2·MACs` flops, backward passes `4·MACs` (the
/// input- and weight-gradient loops each re-run the MACs). Public so the
/// kernel-ladder deconvolutions and 3D convolutions `cc19_nn::exec` runs
/// at inference are counted beside the tensor kernels they replace.
/// Each pair registers once per process; later calls allocate nothing.
pub fn conv_call(op: &'static str, pass: &'static str, flops: u64) -> Timer {
    static CACHE: Mutex<Vec<ConvObs>> = Mutex::new(Vec::new());
    let reg = cc19_obs::global();
    let mut cache = cc19_obs::lock(&CACHE);
    let i = match cache.iter().position(|h| h.op == op && h.pass == pass) {
        Some(i) => i,
        None => {
            let labels = [("op", op), ("pass", pass)];
            cache.push(ConvObs {
                op,
                pass,
                flops: reg.counter_with("tensor_conv_flops_total", &labels),
                seconds: reg.histogram_with("tensor_conv_seconds", &labels),
            });
            cache.len() - 1
        }
    };
    cache[i].flops.add(flops);
    // HistogramHandle is an Arc: the clone bumps a reference count.
    let seconds = cache[i].seconds.clone();
    drop(cache);
    Timer::start(reg.clock(), seconds)
}
