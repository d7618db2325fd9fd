//! Workspace bound of the forward GEMM convolution: under a counting
//! allocator, no single allocation `conv2d_gemm` makes for the DDnet stem
//! at 512² — `(1, 1, 512, 512)` by `(4, 1, 7, 7)` at padding 3 — may
//! exceed its 4 MiB output. Lowering the whole plane at once allocated a
//! 49 MiB im2col matrix here; the panelled lowering's largest block is
//! the output itself.
//!
//! This file holds exactly one `#[test]`: the counting gate is a
//! process-global, so a second concurrent test in the same binary would
//! pollute the record. The case runs in the release-build stage of
//! `scripts/tier1.sh` (debug-build cases stay at 128² or smaller).
// cc19-lint: allow(unsafe, "#[global_allocator] requires implementing GlobalAlloc, an unsafe trait; the shim delegates every call to std's System allocator unchanged and only records the largest request")
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::gemm_conv::conv2d_gemm;
use cc19_tensor::Tensor;

/// Delegates to [`System`], recording the largest alloc / realloc /
/// alloc_zeroed request while the gate is up.
struct LargestAlloc;

static RECORDING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn record(size: usize) {
    if RECORDING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for LargestAlloc {
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
static GLOBAL: LargestAlloc = LargestAlloc;

#[test]
#[cfg_attr(debug_assertions, ignore = "the 512² stem runs in the release-build stage of scripts/tier1.sh")]
fn no_allocation_exceeds_the_output_at_512() {
    let (h, w, cout, k) = (512, 512, 4, 7);
    let x = Tensor::from_vec(vec![1, 1, h, w], (0..h * w).map(|i| (i % 251) as f32 / 251.0).collect()).unwrap();
    let wt = Tensor::from_vec(vec![cout, 1, k, k], (0..cout * k * k).map(|i| i as f32 / 196.0 - 0.5).collect()).unwrap();
    let b = Tensor::from_vec(vec![cout], vec![0.25, -0.5, 0.0, 1.0]).unwrap();
    let spec = Conv2dSpec { stride: 1, padding: 3 };

    LARGEST.store(0, Ordering::SeqCst);
    RECORDING.store(true, Ordering::SeqCst);
    let out = conv2d_gemm(&x, &wt, Some(&b), spec);
    RECORDING.store(false, Ordering::SeqCst);
    let out = out.unwrap();

    let output_bytes = out.numel() * std::mem::size_of::<f32>();
    assert_eq!(output_bytes, 4 << 20);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(
        largest <= output_bytes,
        "conv2d_gemm made a {largest}-byte allocation, above its {output_bytes}-byte output"
    );
}
