//! # cc19-kernels
//!
//! Hand-written CPU inference kernels for DDnet, mirroring the paper's
//! OpenCL kernels (§4.2) and their optimization stages:
//!
//! - **Baseline** — the naive kernel translation. Deconvolution is the
//!   *scatter* formulation: every input element multiplies the whole
//!   filter and accumulates into the output with recurring global
//!   loads/stores (the memory-traffic pathology §4.2.1 describes).
//! - **+REF (refactoring)** — deconvolution rewritten in the *gather* form
//!   via inverse coefficient mapping: each output element determines the
//!   input block that affects it and multiply-adds once before a single
//!   store.
//! - **+PF (prefetching)** — loop bounds and filter rows hoisted into
//!   locals outside the inner loops (the OpenCL kernels prefetch sizes
//!   into private memory; on the CPU this corresponds to hoisting
//!   bounds-checks and slices out of the hot loop).
//! - **+LU (loop unrolling)** — the multiply-add loop over the 5-wide
//!   filter row fully unrolled (factor 5, matching §4.2.2); a *dedicated
//!   kernel* specialized to the 5×5 filter, like the paper's
//!   FPGA-dedicated kernels.
//!
//! The ladder covers the two kernels Table 7 optimizes: convolution and
//! deconvolution. Table 6's op counts for all six kernel types are the
//! analytic formulas in [`count`], validated against an instrumented loop
//! in its tests. The whole network runs on the ladder through
//! `cc19_ddnet`'s `Ddnet::enhance_timed`, which times each kernel class.
//!
//! ## The SIMD twin ladder
//!
//! Every stage also has an explicit AVX2+FMA twin (8-lane f32
//! microkernels in `microkernel`, DESIGN.md §13), selected at runtime by
//! [`simd::active`] — hardware detection narrowed by the `CC19_SIMD` env
//! override. The stage → concrete-kernel mapping is *data*, not buried
//! control flow: [`OptLevel::conv_kernel`] / [`OptLevel::deconv_kernel`]
//! return the [`ConvKernel`] / [`DeconvKernel`] a `(stage, dispatch)`
//! pair runs, and a unit test pins the full table so a future stage
//! cannot silently alias an existing kernel unnoticed.

pub mod conv;
pub mod count;
pub mod deconv;
#[cfg(target_arch = "x86_64")]
mod microkernel;
pub mod simd;

pub use count::{KernelCounts, OpCounts};

/// The paper's cumulative optimization stages (Table 7 columns).
///
/// A stage names a *set of optimizations*, not one function: each stage
/// maps to a concrete kernel per operation × dispatch level via
/// [`OptLevel::conv_kernel`] / [`OptLevel::deconv_kernel`]. Two mappings
/// are intentionally non-obvious and are part of the stage semantics:
///
/// - **REF changes only the deconvolution** (scatter → gather, §4.2.1);
///   the `Refactored` *conv* runs the same kernel as `Baseline`.
/// - **The scatter deconvolution has no vector twin**: its atomic
///   read-modify-write scatter is the memory-traffic pathology the
///   ladder exists to remove, so `Baseline` deconv stays scalar even
///   under AVX2 dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Naive kernels; scatter deconvolution.
    Baseline,
    /// + refactored (gather) deconvolution. Conv is unchanged at this
    ///   stage — REF is a deconvolution-only optimization.
    Refactored,
    /// + bounds/filter prefetching (scalar: hoisted bounds/slices; AVX2:
    ///   `_mm_prefetch` software prefetch).
    RefactoredPrefetch,
    /// + 5× loop unrolling (scalar: dedicated 5-wide expression; AVX2:
    ///   ×5 column register blocking + dedicated 3×3/5×5 kernels).
    RefactoredPrefetchUnrolled,
}

/// The concrete convolution implementation a `(stage, dispatch)` pair
/// selects — see [`OptLevel::conv_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConvKernel {
    /// Naive translation, bounds checked per tap (`conv_baseline`).
    ScalarNaive,
    /// Hoisted bounds + sliced filter rows (`conv_prefetch`).
    ScalarHoisted,
    /// Hoisted + dedicated ×5-unrolled 5-wide row expression.
    ScalarHoistedUnrolled,
    /// AVX2+FMA 8-lane vector kernel, no prefetch/unroll.
    Avx2,
    /// + `_mm_prefetch` of the next column block / filter row.
    Avx2Prefetch,
    /// + ×5 column register blocking and dedicated 3×3/5×5 kernels.
    Avx2PrefetchUnrolled,
}

/// The concrete deconvolution implementation a `(stage, dispatch)` pair
/// selects — see [`OptLevel::deconv_kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeconvKernel {
    /// Atomic scatter — the baseline pathology; never vectorized.
    ScalarScatter,
    /// Gather via inverse coefficient mapping, bounds per tap.
    ScalarGather,
    /// Gather with hoisted tap ranges + sliced rows.
    ScalarGatherHoisted,
    /// Hoisted gather + dedicated ×5-unrolled 5-wide expression.
    ScalarGatherHoistedUnrolled,
    /// AVX2+FMA 8-lane gather, no prefetch/unroll.
    Avx2Gather,
    /// + software prefetch.
    Avx2GatherPrefetch,
    /// + ×5 register blocking and dedicated 3×3/5×5 kernels.
    Avx2GatherPrefetchUnrolled,
}

impl OptLevel {
    /// All stages in Table 7 order.
    pub const ALL: [OptLevel; 4] = [
        OptLevel::Baseline,
        OptLevel::Refactored,
        OptLevel::RefactoredPrefetch,
        OptLevel::RefactoredPrefetchUnrolled,
    ];

    /// Column header as in Table 7.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::Baseline => "Baseline",
            OptLevel::Refactored => "Baseline + REF",
            OptLevel::RefactoredPrefetch => "Baseline + REF + PF",
            OptLevel::RefactoredPrefetchUnrolled => "Baseline + REF + PF + LU",
        }
    }

    /// Short lowercase stage tag for CSV columns / metric labels.
    pub fn tag(&self) -> &'static str {
        match self {
            OptLevel::Baseline => "base",
            OptLevel::Refactored => "ref",
            OptLevel::RefactoredPrefetch => "pf",
            OptLevel::RefactoredPrefetchUnrolled => "lu",
        }
    }

    /// The convolution kernel this stage runs at a dispatch level. REF
    /// intentionally aliases the Baseline conv — refactoring is a
    /// deconvolution-only optimization (see the type-level docs).
    pub fn conv_kernel(&self, simd: simd::SimdLevel) -> ConvKernel {
        use simd::SimdLevel::*;
        match (simd, self) {
            (Scalar, OptLevel::Baseline | OptLevel::Refactored) => ConvKernel::ScalarNaive,
            (Scalar, OptLevel::RefactoredPrefetch) => ConvKernel::ScalarHoisted,
            (Scalar, OptLevel::RefactoredPrefetchUnrolled) => ConvKernel::ScalarHoistedUnrolled,
            (Avx2, OptLevel::Baseline | OptLevel::Refactored) => ConvKernel::Avx2,
            (Avx2, OptLevel::RefactoredPrefetch) => ConvKernel::Avx2Prefetch,
            (Avx2, OptLevel::RefactoredPrefetchUnrolled) => ConvKernel::Avx2PrefetchUnrolled,
        }
    }

    /// The deconvolution kernel this stage runs at a dispatch level. The
    /// Baseline scatter intentionally stays scalar under AVX2 dispatch —
    /// the atomic scatter *is* the baseline being measured (see the
    /// type-level docs).
    pub fn deconv_kernel(&self, simd: simd::SimdLevel) -> DeconvKernel {
        use simd::SimdLevel::*;
        match (simd, self) {
            (_, OptLevel::Baseline) => DeconvKernel::ScalarScatter,
            (Scalar, OptLevel::Refactored) => DeconvKernel::ScalarGather,
            (Scalar, OptLevel::RefactoredPrefetch) => DeconvKernel::ScalarGatherHoisted,
            (Scalar, OptLevel::RefactoredPrefetchUnrolled) => {
                DeconvKernel::ScalarGatherHoistedUnrolled
            }
            (Avx2, OptLevel::Refactored) => DeconvKernel::Avx2Gather,
            (Avx2, OptLevel::RefactoredPrefetch) => DeconvKernel::Avx2GatherPrefetch,
            (Avx2, OptLevel::RefactoredPrefetchUnrolled) => DeconvKernel::Avx2GatherPrefetchUnrolled,
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = cc19_tensor::Result<T>;

#[cfg(test)]
mod tests {
    use super::simd::SimdLevel;
    use super::*;

    #[test]
    fn stage_to_kernel_mapping_is_pinned() {
        // The full Table-7 stage → kernel table, pinned so a new stage
        // (or a refactor of the dispatch match) cannot silently alias an
        // existing kernel the way `Refactored` conv once did with only a
        // comment to mark the intent.
        use {ConvKernel as C, DeconvKernel as D, OptLevel as O};
        let expect: [(O, C, C, D, D); 4] = [
            (O::Baseline, C::ScalarNaive, C::Avx2, D::ScalarScatter, D::ScalarScatter),
            // REF changes only the deconvolution: conv aliases Baseline.
            (O::Refactored, C::ScalarNaive, C::Avx2, D::ScalarGather, D::Avx2Gather),
            (
                O::RefactoredPrefetch,
                C::ScalarHoisted,
                C::Avx2Prefetch,
                D::ScalarGatherHoisted,
                D::Avx2GatherPrefetch,
            ),
            (
                O::RefactoredPrefetchUnrolled,
                C::ScalarHoistedUnrolled,
                C::Avx2PrefetchUnrolled,
                D::ScalarGatherHoistedUnrolled,
                D::Avx2GatherPrefetchUnrolled,
            ),
        ];
        assert_eq!(expect.len(), OptLevel::ALL.len(), "pin every stage");
        for (i, (level, conv_s, conv_v, deconv_s, deconv_v)) in expect.into_iter().enumerate() {
            assert_eq!(level, OptLevel::ALL[i], "table must follow ALL order");
            assert_eq!(level.conv_kernel(SimdLevel::Scalar), conv_s, "{level:?} scalar conv");
            assert_eq!(level.conv_kernel(SimdLevel::Avx2), conv_v, "{level:?} avx2 conv");
            assert_eq!(level.deconv_kernel(SimdLevel::Scalar), deconv_s, "{level:?} scalar deconv");
            assert_eq!(level.deconv_kernel(SimdLevel::Avx2), deconv_v, "{level:?} avx2 deconv");
        }
    }

    #[test]
    fn stage_tags_are_unique_and_snake() {
        let tags: Vec<&str> = OptLevel::ALL.iter().map(|l| l.tag()).collect();
        assert_eq!(tags, ["base", "ref", "pf", "lu"]);
    }
}
