//! Allocation bound of a warm `Ddnet::enhance` at 512²: under a counting
//! allocator, the second call on the same slice shape — its plan compiled
//! and its arena sized by the first — allocates its 1 MiB output and
//! the GEMM convolutions' panel workspace (im2col panel, panel product,
//! packed weight, packing buffer; at most `PANEL_BYTES` = 256 KiB each),
//! and nothing else: no activation, no concatenation, no pooling argmax.
//!
//! This file holds exactly one `#[test]`: the counting gate is a
//! process-global, so a second concurrent test in the same binary would
//! pollute the record. The case runs in the release-build stage of
//! `scripts/tier1.sh` (debug-build cases stay at 128² or smaller).
// cc19-lint: allow(unsafe, "#[global_allocator] requires implementing GlobalAlloc, an unsafe trait; the shim delegates every call to std's System allocator unchanged and only bumps atomic counters")
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_tensor::rng::Xorshift;

/// Delegates to [`System`], recording while the gate is up: the number
/// and bytes of requests above the panel budget, and the number below.
struct CountingAlloc;

const PANEL_BYTES: usize = 256 << 10;

static RECORDING: AtomicBool = AtomicBool::new(false);
static LARGE: AtomicUsize = AtomicUsize::new(0);
static LARGE_BYTES: AtomicUsize = AtomicUsize::new(0);
static SMALL: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if RECORDING.load(Ordering::Relaxed) {
        if size > PANEL_BYTES {
            LARGE.fetch_add(1, Ordering::Relaxed);
            LARGE_BYTES.fetch_add(size, Ordering::Relaxed);
        } else {
            SMALL.fetch_add(1, Ordering::Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
#[cfg_attr(debug_assertions, ignore = "the 512² slice runs in the release-build stage of scripts/tier1.sh")]
fn a_warm_512_enhance_allocates_its_output_and_panel_workspace_only() {
    let net = Ddnet::new(DdnetConfig::tiny(), 3);
    let slice = Xorshift::new(512).uniform_tensor([512, 512], 0.0, 1.0);
    let cold = net.enhance(&slice).expect("first call compiles the plan");

    RECORDING.store(true, Ordering::SeqCst);
    let warm = net.enhance(&slice);
    RECORDING.store(false, Ordering::SeqCst);
    let warm = warm.expect("warm call");

    assert_eq!(warm.data(), cold.data(), "the warm call must be bit-identical");
    let (large, large_bytes, small) =
        (LARGE.load(Ordering::SeqCst), LARGE_BYTES.load(Ordering::SeqCst), SMALL.load(Ordering::SeqCst));
    assert_eq!((large, large_bytes), (1, 1 << 20), "only the 1 MiB output may exceed a GEMM panel");
    // Nine GEMM convolutions (the stem and eight 5×5s) allocate four
    // panel buffers each; the rest is the output's shape and the metric
    // histograms' sample growth. Measured: 42.
    assert!(small <= 48, "{small} allocations below the panel budget: an op allocates again");
}
