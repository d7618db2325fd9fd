//! Blocked, packed SGEMM engine.
//!
//! This is a BLIS-style three-level cache-blocked matrix multiply:
//!
//! ```text
//! for jc in 0..n step NC            // C column panels      (per task)
//!   for pc in 0..k step KC          // rank-KC updates
//!     pack B[pc..pc+KC, jc..jc+NC]  // -> bp, NR-interleaved panels (L2/L3)
//!     for ic in 0..m step MC        // C row blocks         (parallel)
//!       pack A[ic..ic+MC, pc..pc+KC]// -> ap, MR-interleaved panels (L2)
//!       for jr, ir:                 // MR x NR register macro-tiles
//!         microkernel: acc[MR][NR] += ap-panel * bp-panel  (registers)
//! ```
//!
//! Key properties:
//!
//! * **Packing**: before any arithmetic, the A block and B panel are
//!   copied into contiguous scratch with the microkernel's access order
//!   (`MR`/`NR`-interleaved), so the innermost loop reads both operands
//!   with unit stride regardless of the logical layout. Transposed
//!   operands (`trans_a` / `trans_b`) are handled *here* — packing reads
//!   strided, the kernel never knows — which is how [`matmul_tn`] /
//!   [`matmul_nt`] avoid materializing transposes.
//! * **Register tiling**: the microkernel keeps an `MR x NR` (8x8) f32
//!   accumulator array live across the whole KC loop. The inner loop has
//!   a fixed trip count over `NR`, no branches, and unit-stride loads,
//!   so LLVM auto-vectorizes it to FMA-width SIMD and keeps the
//!   accumulators in vector registers.
//! * **Branchless inner loop**: unlike the old `ops::matmul`, there is no
//!   `a == 0.0` skip. A data-dependent branch in the innermost loop
//!   defeats vectorization (the compiler must preserve the skip) and is
//!   mispredicted on dense data; multiplying by zero costs nothing once
//!   the loop is SIMD. Sparse inputs should use a sparse format, not a
//!   dense kernel with a branch.
//! * **Ragged tails**: packing zero-pads partial `MR`/`NR` panels, so the
//!   microkernel always runs full tiles; only the write-back clips to the
//!   real matrix bounds.
//! * **Parallelism**: C's rows are split into one `MC`-aligned run per
//!   rayon thread (`par_chunks_mut`), disjoint contiguous slices — no
//!   synchronization, no false sharing. B is packed once per product
//!   ([`PackedB`], every `(pc, jc)` block) and shared by all tasks; each
//!   task packs its A blocks into one `min(k, KC)`-deep buffer reused
//!   across its `MC` blocks. A panelled convolution packs its weight
//!   once per call and shares it across its panels and threads, each
//!   thread packing A into its own workspace.
//!
//! Small products (all of `m*n*k` below [`SMALL_THRESHOLD`]) skip packing
//! entirely and run a simple ikj loop — for tiny operands the packing
//! traffic would dominate. Each element of C depends only on its row of
//! A, its column of B, `k` and the path, never on `m` or `n`, so a caller
//! may split one product into row panels and get the same bits, provided
//! every panel runs the whole product's [`GemmPath`] (the two paths
//! round differently once `k > KC`).

use rayon::prelude::*;

use crate::{Result, Tensor, TensorError};

/// Microkernel tile rows (register blocking in m).
pub const MR: usize = 8;
/// Microkernel tile columns (register blocking in n); the unit of SIMD
/// vectorization in the inner loop.
pub const NR: usize = 8;
/// Rows of A packed per block (L2-resident: `MC*KC` floats = 64 KiB).
pub const MC: usize = 64;
/// Depth of one rank-update block (shared by the A block and B panel).
pub const KC: usize = 256;
/// Columns of B packed per panel (`KC*NC` floats = 512 KiB scratch).
pub const NC: usize = 512;

/// Below this `m*n*k`, use the unpacked ikj fallback.
const SMALL_THRESHOLD: usize = 32 * 32 * 32;

#[inline]
fn ceil_mul(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// Logical element `A[i, p]` of the `(m, k)` operand, honoring `trans_a`
/// (stored `(k, m)` when set). Used only by packing and the small path.
#[inline(always)]
fn a_at(a: &[f32], i: usize, p: usize, m: usize, k: usize, trans_a: bool) -> f32 {
    debug_assert!(i < m && p < k);
    if trans_a {
        a[p * m + i]
    } else {
        a[i * k + p]
    }
}

/// Logical element `B[p, j]` of the `(k, n)` operand, honoring `trans_b`
/// (stored `(n, k)` when set). Only the test reference reads B this way;
/// the engine always goes through packing.
#[cfg(test)]
#[inline(always)]
fn b_at(b: &[f32], p: usize, j: usize, k: usize, n: usize, trans_b: bool) -> f32 {
    debug_assert!(p < k && j < n);
    if trans_b {
        b[j * k + p]
    } else {
        b[p * n + j]
    }
}

/// Pack `A[rows, deps]` into `ap` as `ceil(mc/MR)` panels `kcs` deep,
/// each laid out `[p * MR + r]` (the microkernel's read order). Rows past
/// the block are zero-filled so the kernel can always run full
/// `MR`-tiles: every slot the kernel reads is written, whatever `ap` held.
fn pack_a(
    a: &[f32],
    ap: &mut [f32],
    kcs: usize,
    rows: std::ops::Range<usize>,
    deps: std::ops::Range<usize>,
    m: usize,
    k: usize,
    trans_a: bool,
) {
    let (i0, mc) = (rows.start, rows.len());
    let (p0, kc) = (deps.start, deps.len());
    let panels = mc.div_ceil(MR);
    for ir in 0..panels {
        let panel = &mut ap[ir * kcs * MR..ir * kcs * MR + kc * MR];
        let rows = (mc - ir * MR).min(MR);
        if !trans_a {
            for r in 0..rows {
                let src = &a[(i0 + ir * MR + r) * k + p0..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * MR + r] = v;
                }
            }
        } else {
            for (p, chunk) in panel.chunks_exact_mut(MR).enumerate() {
                let src = &a[(p0 + p) * m + i0 + ir * MR..][..rows];
                chunk[..rows].copy_from_slice(src);
            }
        }
        if rows < MR {
            for p in 0..kc {
                for r in rows..MR {
                    panel[p * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Pack `B[deps, cols]` into `bp` as `ceil(nc/NR)` panels `kcs` deep,
/// each laid out `[p * NR + c]`. Columns past the block are zero-filled.
fn pack_b(
    b: &[f32],
    bp: &mut [f32],
    kcs: usize,
    deps: std::ops::Range<usize>,
    cols: std::ops::Range<usize>,
    k: usize,
    n: usize,
    trans_b: bool,
) {
    let (p0, kc) = (deps.start, deps.len());
    let (j0, nc) = (cols.start, cols.len());
    let panels = nc.div_ceil(NR);
    for jr in 0..panels {
        let panel = &mut bp[jr * kcs * NR..jr * kcs * NR + kc * NR];
        let cols = (nc - jr * NR).min(NR);
        if !trans_b {
            for (p, chunk) in panel.chunks_exact_mut(NR).enumerate() {
                let src = &b[(p0 + p) * n + j0 + jr * NR..][..cols];
                chunk[..cols].copy_from_slice(src);
                chunk[cols..NR].fill(0.0);
            }
        } else {
            for c in 0..cols {
                let src = &b[(j0 + jr * NR + c) * k + p0..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * NR + c] = v;
                }
            }
            if cols < NR {
                for p in 0..kc {
                    for c in cols..NR {
                        panel[p * NR + c] = 0.0;
                    }
                }
            }
        }
    }
}

/// `MR x NR` register-tiled rank-`kc` update. `ap`/`bp` are one packed
/// panel each; `acc` accumulates in registers. The body is branch-free
/// with fixed trip counts so it auto-vectorizes.
#[inline(always)]
fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for p in 0..kc {
        let av: &[f32; MR] = ap[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[f32; NR] = bp[p * NR..p * NR + NR].try_into().unwrap();
        for r in 0..MR {
            let ar = av[r];
            for c in 0..NR {
                acc[r][c] += ar * bv[c];
            }
        }
    }
}

/// Macro-kernel: multiply one packed A block (`mc x kc`) by one packed B
/// panel (`kc x nc`), both packed `kcs` deep, accumulating into the C
/// row-block slice (`mc` rows of full width `n`, starting at column `j0`).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    ap: &[f32],
    bp: &[f32],
    kcs: usize,
    c: &mut [f32],
    mc: usize,
    nc: usize,
    kc: usize,
    j0: usize,
    n: usize,
) {
    for ir in 0..mc.div_ceil(MR) {
        let a_panel = &ap[ir * kcs * MR..ir * kcs * MR + kc * MR];
        let rows = (mc - ir * MR).min(MR);
        for jr in 0..nc.div_ceil(NR) {
            let b_panel = &bp[jr * kcs * NR..jr * kcs * NR + kc * NR];
            let cols = (nc - jr * NR).min(NR);
            let mut acc = [[0.0f32; NR]; MR];
            microkernel(kc, a_panel, b_panel, &mut acc);
            for r in 0..rows {
                let row = &mut c[(ir * MR + r) * n + j0 + jr * NR..][..cols];
                for (o, v) in row.iter_mut().zip(acc[r]) {
                    *o += v;
                }
            }
        }
    }
}

/// Which loop a product runs on, chosen once per logical product by
/// [`GemmPath::of`]. A caller that splits one product into row panels
/// passes every panel the whole product's path (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum GemmPath {
    /// The unpacked ikj / dot-product loop of [`sgemm_small`].
    Small,
    /// The blocked, packed core of [`sgemm_packed`].
    Packed,
}

impl GemmPath {
    /// The path [`sgemm`] takes for an `(m, k) x (k, n)` product.
    pub(crate) fn of(m: usize, n: usize, k: usize) -> GemmPath {
        if m * n * k <= SMALL_THRESHOLD {
            GemmPath::Small
        } else {
            GemmPath::Packed
        }
    }
}

/// Core SGEMM: `C = op(A) * op(B)` where `op` is transpose when the flag
/// is set. `C` is `(m, n)` row-major and must be zero-initialized (the
/// kernel accumulates). `A` holds `m*k` elements (stored `(k, m)` if
/// `trans_a`), `B` holds `k*n` (stored `(n, k)` if `trans_b`).
pub fn sgemm(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A size mismatch");
    assert_eq!(b.len(), k * n, "B size mismatch");
    assert_eq!(c.len(), m * n, "C size mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    observed(2 * m as u64 * n as u64 * k as u64, || {
        sgemm_on(GemmPath::of(m, n, k), trans_a, trans_b, m, n, k, a, b, c)
    });
}

/// Count `flops` into `tensor_gemm_flops_total` and time `product` into
/// one `tensor_gemm_seconds` sample. Flop accounting and wall time stay
/// on the caller thread: rayon workers must never read the (possibly
/// manual) clock, or the deterministic bench would depend on scheduling
/// order.
pub(crate) fn observed(flops: u64, product: impl FnOnce()) {
    let obs = crate::obs::gemm();
    obs.flops.add(flops);
    let t0 = obs.clock.now_ns();
    product();
    let dt = obs.clock.now_ns().saturating_sub(t0);
    obs.seconds.observe(dt as f64 / 1e9);
}

/// [`sgemm`]'s arithmetic on a given path, neither checked nor observed:
/// the caller has checked the lengths and counts the product this call
/// is a part of.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sgemm_on(
    path: GemmPath,
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    match path {
        GemmPath::Small => sgemm_small(trans_a, trans_b, m, n, k, a, b, c),
        GemmPath::Packed => sgemm_packed(trans_a, trans_b, m, n, k, a, b, c),
    }
}

/// The blocked, packed core (module docs) for `m, n, k > 0`: B packed
/// once, then every row block of C against it.
fn sgemm_packed(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    sgemm_split(trans_a, m, a, &PackedB::new(b, k, n, trans_b), c);
}

/// `op(B)` packed once for a whole product: one `min(k, KC)`-deep block
/// of `NR`-interleaved panels per `(pc, jc)` pair, shared by every `MC`
/// row block of C — and by every row panel of a panelled convolution.
pub(crate) struct PackedB {
    n: usize,
    k: usize,
    kcs: usize,
    /// Floats per `(pc, jc)` block.
    stride: usize,
    data: Vec<f32>,
}

impl PackedB {
    /// Pack the `(k, n)` operand `b` (stored `(n, k)` when `trans_b`).
    pub(crate) fn new(b: &[f32], k: usize, n: usize, trans_b: bool) -> PackedB {
        let kcs = k.min(KC);
        let stride = kcs * ceil_mul(NC.min(n), NR);
        let mut data = vec![0.0f32; stride * k.div_ceil(KC) * n.div_ceil(NC)];
        let mut at = 0;
        for p0 in (0..k).step_by(KC) {
            for j0 in (0..n).step_by(NC) {
                let bp = &mut data[at..at + stride];
                pack_b(b, bp, kcs, p0..p0 + (k - p0).min(KC), j0..j0 + (n - j0).min(NC), k, n, trans_b);
                at += stride;
            }
        }
        PackedB { n, k, kcs, stride, data }
    }

    /// The packed block of depths `p0..` and columns `j0..`.
    fn block(&self, p0: usize, j0: usize) -> &[f32] {
        let at = ((p0 / KC) * self.n.div_ceil(NC) + j0 / NC) * self.stride;
        &self.data[at..at + self.stride]
    }
}

/// `C += op(A) · B` for an `(m, k)` operand A against a [`PackedB`], on
/// the packed path. Parallel over one `MC`-aligned run of C's rows per
/// rayon thread, each packing its A blocks into a buffer of its own.
fn sgemm_split(trans_a: bool, m: usize, a: &[f32], b: &PackedB, c: &mut [f32]) {
    let task_rows = ceil_mul(m.div_ceil(rayon::current_num_threads()), MC);
    c.par_chunks_mut(task_rows * b.n).enumerate().for_each(|(task, c_task)| {
        let ap = &mut vec![0.0; apack_len(c_task.len() / b.n, b.k)];
        sgemm_prepacked(trans_a, m, task * task_rows, a, b, c_task, ap);
    });
}

/// Floats of A-packing buffer an `m`-row, depth-`k` product needs.
pub(crate) fn apack_len(m: usize, k: usize) -> usize {
    ceil_mul(MC.min(m), MR) * k.min(KC)
}

/// Rows `i0..` of the `m`-row product `op(A) · B` added into `c`
/// (`c.len() / n` rows) on this thread alone, packing A into `ap`
/// ([`apack_len`] floats at least): one task of [`sgemm_split`], or the
/// rows of one convolution panel.
pub(crate) fn sgemm_prepacked(trans_a: bool, m: usize, i0: usize, a: &[f32], b: &PackedB, c: &mut [f32], ap: &mut [f32]) {
    let (n, k, kcs) = (b.n, b.k, b.kcs);
    for (blk, c_chunk) in c.chunks_mut(MC * n).enumerate() {
        let i = i0 + blk * MC;
        let mc = c_chunk.len() / n;
        for p0 in (0..k).step_by(KC) {
            let kc = (k - p0).min(KC);
            pack_a(a, ap, kcs, i..i + mc, p0..p0 + kc, m, k, trans_a);
            for j0 in (0..n).step_by(NC) {
                let nc = (n - j0).min(NC);
                macro_kernel(ap, b.block(p0, j0), kcs, c_chunk, mc, nc, kc, j0, n);
            }
        }
    }
}

/// Unpacked ikj fallback for tiny products (packing would dominate).
/// Still branchless in the inner loop — see the module docs.
fn sgemm_small(
    trans_a: bool,
    trans_b: bool,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    if !trans_b {
        for i in 0..m {
            let row = &mut c[i * n..(i + 1) * n];
            for p in 0..k {
                let av = a_at(a, i, p, m, k, trans_a);
                let brow = &b[p * n..p * n + n];
                for (o, &bv) in row.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    } else {
        // B stored (n, k): dot-product form keeps both reads contiguous.
        for i in 0..m {
            for j in 0..n {
                let brow = &b[j * k..j * k + k];
                let mut s = 0.0f32;
                for (p, &bv) in brow.iter().enumerate() {
                    s += a_at(a, i, p, m, k, trans_a) * bv;
                }
                c[i * n + j] = s;
            }
        }
    }
}

fn check_matmul_dims(
    a: &Tensor,
    b: &Tensor,
    trans_a: bool,
    trans_b: bool,
) -> Result<(usize, usize, usize)> {
    a.shape().expect_rank(2)?;
    b.shape().expect_rank(2)?;
    let (m, k) = if trans_a {
        (a.dims()[1], a.dims()[0])
    } else {
        (a.dims()[0], a.dims()[1])
    };
    let (k2, n) = if trans_b {
        (b.dims()[1], b.dims()[0])
    } else {
        (b.dims()[0], b.dims()[1])
    };
    if k != k2 {
        return Err(TensorError::Incompatible(format!(
            "matmul inner dims differ: ({m},{k}) x ({k2},{n}) [trans_a={trans_a}, trans_b={trans_b}]"
        )));
    }
    Ok((m, n, k))
}

/// `A * B` for rank-2 tensors via the blocked engine.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n, k) = check_matmul_dims(a, b, false, false)?;
    let mut out = Tensor::zeros([m, n]);
    sgemm(false, false, m, n, k, a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// `A^T * B` without materializing the transpose (`A` is `(k, m)`).
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n, k) = check_matmul_dims(a, b, true, false)?;
    let mut out = Tensor::zeros([m, n]);
    sgemm(true, false, m, n, k, a.data(), b.data(), out.data_mut());
    Ok(out)
}

/// `A * B^T` without materializing the transpose (`B` is `(n, k)`).
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, n, k) = check_matmul_dims(a, b, false, true)?;
    let mut out = Tensor::zeros([m, n]);
    sgemm(false, true, m, n, k, a.data(), b.data(), out.data_mut());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xorshift;

    /// Triple-loop reference with explicit index math.
    fn reference(
        trans_a: bool,
        trans_b: bool,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        b: &[f32],
    ) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a_at(a, i, p, m, k, trans_a) * b_at(b, p, j, k, n, trans_b);
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn rand_vec(rng: &mut Xorshift, len: usize) -> Vec<f32> {
        (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect()
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32) {
        assert_eq!(got.len(), want.len());
        let worst = got
            .iter()
            .zip(want)
            .map(|(g, w)| (g - w).abs())
            .fold(0.0f32, f32::max);
        assert!(worst <= tol, "max abs diff {worst} > {tol}");
    }

    #[test]
    fn matches_reference_over_shapes_and_transposes() {
        let mut rng = Xorshift::new(42);
        // Ragged shapes straddling the MR/NR/MC/KC/NC boundaries, plus
        // degenerate single-row/col cases.
        let shapes = [
            (1, 1, 1),
            (3, 5, 7),
            (8, 8, 8),
            (9, 7, 13),
            (17, 19, 23),
            (MR, NR, KC + 3),
            (MC + 5, NR + 1, 31),
            (65, 70, 33),
            (1, 64, 300),
            (64, 1, 300),
            (130, 140, 70),
        ];
        for &(m, n, k) in &shapes {
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                let want = reference(ta, tb, m, n, k, &a, &b);
                let mut got = vec![0.0f32; m * n];
                sgemm(ta, tb, m, n, k, &a, &b, &mut got);
                let tol = 1e-4 * k as f32;
                assert_close(&got, &want, tol);
            }
        }
    }

    #[test]
    fn packing_writes_every_slot_the_kernel_reads() {
        // The packing pair is allocated once per task and never cleared
        // between blocks, so pack_a / pack_b must write every slot the
        // microkernel reads: the first kc steps of every MR / NR panel,
        // zero pads included. Poison both buffers with NaN, pack, and
        // check those slots and C. Blocks start off the matrix origin, are
        // ragged against MR / NR, and are shallower than the buffers'
        // depth (kc < kcs), under every transpose.
        let mut rng = Xorshift::new(5);
        for &(mc, nc, kc, kcs) in &[(MC, 3 * NR, KC, KC), (13, 11, 7, 9), (MC - 3, 5, 100, KC), (1, 1, 1, 1)] {
            let (i0, p0, j0) = (3, 5, 2);
            let (m, n, k) = (i0 + mc + 1, j0 + nc + 4, p0 + kc + 2);
            let a = rand_vec(&mut rng, m * k);
            let b = rand_vec(&mut rng, k * n);
            for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
                let mut ap = vec![f32::NAN; ceil_mul(mc, MR) * kcs];
                let mut bp = vec![f32::NAN; kcs * ceil_mul(nc, NR)];
                pack_a(&a, &mut ap, kcs, i0..i0 + mc, p0..p0 + kc, m, k, ta);
                pack_b(&b, &mut bp, kcs, p0..p0 + kc, j0..j0 + nc, k, n, tb);
                let read = |buf: &[f32], lanes: usize, panels: usize| {
                    (0..panels).all(|q| buf[q * kcs * lanes..][..kc * lanes].iter().all(|v| !v.is_nan()))
                };
                assert!(read(&ap, MR, mc.div_ceil(MR)), "pack_a left a slot unwritten: {mc}x{kc} in {kcs}");
                assert!(read(&bp, NR, nc.div_ceil(NR)), "pack_b left a slot unwritten: {nc}x{kc} in {kcs}");
                let mut got = vec![0.0f32; mc * n];
                macro_kernel(&ap, &bp, kcs, &mut got, mc, nc, kc, j0, n);
                let mut want = vec![0.0f32; mc * n];
                for i in 0..mc {
                    for j in 0..nc {
                        want[i * n + j0 + j] = (p0..p0 + kc)
                            .map(|p| a_at(&a, i0 + i, p, m, k, ta) * b_at(&b, p, j0 + j, k, n, tb))
                            .sum();
                    }
                }
                assert!(got.iter().all(|v| v.is_finite()), "a poisoned slot reached C: {mc}x{nc}x{kc} in {kcs}");
                assert_close(&got, &want, 1e-4 * kc as f32);
            }
        }
    }

    #[test]
    fn large_blocked_path_matches_reference() {
        // Big enough to exercise multiple MC row blocks, KC depth blocks
        // and an NC column split, with ragged tails on every level.
        let (m, n, k) = (2 * MC + 11, NC + 17, 2 * KC + 7);
        let mut rng = Xorshift::new(7);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let want = reference(false, false, m, n, k, &a, &b);
        let mut got = vec![0.0f32; m * n];
        sgemm(false, false, m, n, k, &a, &b, &mut got);
        assert_close(&got, &want, 1e-4 * k as f32);
    }

    #[test]
    fn tensor_wrappers_agree() {
        let mut rng = Xorshift::new(3);
        let a = Tensor::from_vec(vec![37, 21], rand_vec(&mut rng, 37 * 21)).unwrap();
        let b = Tensor::from_vec(vec![21, 45], rand_vec(&mut rng, 21 * 45)).unwrap();
        let base = matmul(&a, &b).unwrap();

        let at = crate::ops::transpose2(&a).unwrap();
        let bt = crate::ops::transpose2(&b).unwrap();
        let tn = matmul_tn(&at, &b).unwrap();
        let nt = matmul_nt(&a, &bt).unwrap();
        assert!(base.all_close(&tn, 1e-3));
        assert!(base.all_close(&nt, 1e-3));
    }

    #[test]
    fn shape_errors() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([4, 2]);
        assert!(matmul(&a, &b).is_err());
        // a^T is (3,2): incompatible with (4,2) b.
        assert!(matmul_tn(&a, &b).is_err());
        // b^T is (2,4): needs a's cols == 2, but a is (2,3).
        assert!(matmul_nt(&a, &b).is_err());
        // (2,3) * ((4,3))^T works: inner dim 3 matches.
        assert!(matmul_nt(&a, &Tensor::zeros([4, 3])).is_ok());
    }

    #[test]
    fn zeros_do_not_shortcut() {
        // Regression guard for the removed `a == 0.0` branch: a matrix
        // with many zeros must produce identical results to the
        // reference (the branch was a perf hazard, never a semantics
        // one — this just pins the dense path on sparse-ish data).
        let mut rng = Xorshift::new(11);
        let (m, n, k) = (40, 40, 40);
        let mut a = rand_vec(&mut rng, m * k);
        for (i, v) in a.iter_mut().enumerate() {
            if i % 3 != 0 {
                *v = 0.0;
            }
        }
        let b = rand_vec(&mut rng, k * n);
        let want = reference(false, false, m, n, k, &a, &b);
        let mut got = vec![0.0f32; m * n];
        sgemm(false, false, m, n, k, &a, &b, &mut got);
        assert_close(&got, &want, 1e-4 * k as f32);
    }
}
