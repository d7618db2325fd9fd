//! Old row-parallel ikj matmul vs the blocked/packed SGEMM engine
//! (`cc19_tensor::gemm`) on the shapes the DDnet training loop actually
//! produces: the square 1024³ reference point and the tall-skinny
//! im2col GEMMs of the 5×5 conv layers at 512² resolution.
//!
//! The PR-1 acceptance bar is new ≥ 2× old at 1024³ f32; run with
//! `cargo bench --bench matmul` and record the `bench:` lines in
//! `results/matmul_bench.md`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use cc19_tensor::gemm;
use cc19_tensor::rng::Xorshift;
use cc19_tensor::Tensor;

/// The pre-GEMM `ops::matmul` inner loop, preserved verbatim as the
/// baseline: row-parallel ikj with the `aik == 0.0` skip branch that the
/// engine PR removed (see `cc19_tensor::gemm` module docs for why the
/// branch hurts on dense data).
fn old_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    use rayon::prelude::*;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros([m, n]);
    let ad = a.data();
    let bd = b.data();
    out.data_mut().par_chunks_mut(n).enumerate().for_each(|(i, row)| {
        for kk in 0..k {
            let aik = ad[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let brow = &bd[kk * n..kk * n + n];
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o += aik * bv;
            }
        }
    });
    out
}

fn flops(m: usize, n: usize, k: usize) -> u64 {
    2 * (m as u64) * (n as u64) * (k as u64)
}

fn bench_square_1024(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_1024");
    let dim = 1024usize;
    let mut rng = Xorshift::new(1);
    let a = rng.uniform_tensor([dim, dim], -1.0, 1.0);
    let b = rng.uniform_tensor([dim, dim], -1.0, 1.0);
    group.throughput(Throughput::Elements(flops(dim, dim, dim)));
    group.bench_function("old_ikj", |bch| bch.iter(|| old_matmul(&a, &b)));
    group.bench_function("gemm", |bch| bch.iter(|| gemm::matmul(&a, &b).unwrap()));
    group.finish();
}

/// The im2col GEMM of a stride-1 5×5 DDnet conv layer at 512²:
/// `cols (N*OH*OW, Cin*25) × wmat (Cout, Cin*25)ᵀ`, the product
/// `gemm_conv::conv2d_gemm` computes, here as one call rather than the
/// cache-sized row panels it issues. 16/64/80 channels cover the first
/// conv, the dense-block interior and the block output.
fn bench_im2col_512(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_im2col_512");
    group.sample_size(3);
    let rows = 512 * 512;
    for ch in [16usize, 64, 80] {
        let k = ch * 25;
        let mut rng = Xorshift::new(ch as u64);
        let cols = rng.uniform_tensor([rows, k], -1.0, 1.0);
        let wmat = rng.uniform_tensor([ch, k], -0.5, 0.5);
        group.throughput(Throughput::Elements(flops(rows, ch, k)));
        group.bench_with_input(BenchmarkId::new("gemm_nt", ch), &ch, |bch, _| {
            bch.iter(|| gemm::matmul_nt(&cols, &wmat).unwrap())
        });
        // Old-path comparison only at the narrowest layer: the ikj loop
        // needs an explicit wmatᵀ and runs 10-20 s/iter at 64/80 channels;
        // the old-vs-new ratio is already pinned by the 1024³ group.
        if ch == 16 {
            let wt = cc19_tensor::ops::transpose2(&wmat).unwrap();
            group.bench_with_input(BenchmarkId::new("old_ikj", ch), &ch, |bch, _| {
                bch.iter(|| old_matmul(&cols, &wt))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(5);
    targets = bench_square_1024, bench_im2col_512
}
criterion_main!(benches);
