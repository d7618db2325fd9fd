//! # cc19-obs
//!
//! The observability substrate of the ComputeCOVID19+ reproduction
//! (DESIGN.md §12). Dependency-free, three layers:
//!
//! * [`registry`] — thread-safe counters, gauges, and exact-sample
//!   histograms (nearest-rank quantiles, the workspace's single
//!   quantile implementation) addressed by static name + label set;
//! * [`trace`] — request-scoped distributed tracing, the one span
//!   system: a [`TraceCtx`] minted at admission and carried explicitly
//!   across thread and wire hops, a pre-sized span-record ring,
//!   sorted-key JSONL tree export, and the critical-path latency
//!   analyzer (DESIGN.md §17);
//! * [`export`] — Prometheus text exposition and a JSON registry dump,
//!   both sorted-key deterministic.
//!
//! Every timestamp flows through the injectable [`clock::Clock`] trait:
//! binaries read a real [`clock::MonotonicClock`] (the one allowlisted
//! `Instant::now` in the determinism-linted crates), tests and the
//! reproducible bench inject a [`clock::ManualClock`]. Setting
//! `CC19_OBS_DETERMINISTIC=1` makes [`global`] (and every
//! `Registry::new`) auto-tick 1 µs per clock read, so
//! `results/bench_obs.json` is byte-identical across runs.
//!
//! Metric names are `snake_case` with the registering crate's prefix
//! (`tensor_gemm_flops_total`, `ddnet_step_seconds`, …) — enforced by
//! the `metric-naming` rule in `cc19-lint`.

use std::sync::{Arc, OnceLock};

pub mod clock;
pub mod export;
pub mod histogram;
mod lock;
pub mod registry;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use histogram::Histogram;
pub use lock::lock;
pub use registry::{Counter, Entry, Gauge, HistogramHandle, Registry, Snapshot, Timer};
pub use trace::{SpanRecord, SpanStatus, TraceCtx};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry, created on first use with the
/// environment-selected default clock (see [`clock::default_clock`]).
pub fn global() -> &'static Registry {
    global_arc_ref()
}

fn global_arc_ref() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// The global registry as a shareable `Arc` (what injected subsystems
/// hold).
pub fn global_arc() -> Arc<Registry> {
    Arc::clone(global_arc_ref())
}

/// The global registry's clock — the workspace-wide timing source for
/// instrumented code outside an explicitly injected registry.
pub fn global_clock() -> Arc<dyn Clock> {
    global().clock()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs_global_probe_total").inc();
        assert!(global_arc()
            .snapshot()
            .counters
            .iter()
            .any(|e| e.name == "obs_global_probe_total" && e.value >= 1));
    }
}
