//! `Ddnet::enhance_timed` keeps its plan: under a counting allocator, a
//! repeated call at the same slice shape and kernel level allocates no
//! arena — nothing larger than its output, where the first call's
//! largest allocation, the arena it compiled, is 16 times that — and a
//! new level compiles again.
//!
//! This file holds exactly one `#[test]`: the counting gate is a
//! process-global, so a second concurrent test in the same binary would
//! pollute the record.
// cc19-lint: allow(unsafe, "#[global_allocator] requires implementing GlobalAlloc, an unsafe trait; the shim delegates every call to std's System allocator unchanged and only records the largest request")
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

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

/// The largest allocation `f` makes.
fn largest(f: impl FnOnce()) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    RECORDING.store(true, Ordering::SeqCst);
    f();
    RECORDING.store(false, Ordering::SeqCst);
    LARGEST.load(Ordering::SeqCst)
}

#[test]
fn a_repeated_timed_call_allocates_no_arena() {
    let net = Ddnet::new(DdnetConfig::tiny(), 3);
    let slice = Xorshift::new(5).uniform_tensor([64, 64], 0.0, 1.0);
    let output_bytes = 64 * 64 * std::mem::size_of::<f32>();
    let timed = |level| {
        let (out, _) = net.enhance_timed(&slice, level).expect("enhance_timed");
        out.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
    };
    let (mut first, mut again) = (Vec::new(), Vec::new());
    let cold = largest(|| first = timed(OptLevel::RefactoredPrefetchUnrolled));
    let warm = largest(|| again = timed(OptLevel::RefactoredPrefetchUnrolled));
    assert_eq!(first, again, "the cached plan must give the same bits");
    assert!(cold >= 4 * output_bytes, "the first call compiles an arena ({cold} bytes at most)");
    assert!(warm <= output_bytes, "a warm call allocated {warm} bytes at once; its arena is {cold}");
    let other = largest(|| drop(timed(OptLevel::Baseline)));
    assert!(other >= 4 * output_bytes, "a new level compiles its own plan ({other} bytes at most)");
}
