//! Whole-DDnet inference: the paper network on the kernel ladder (per
//! optimization stage, `Ddnet::enhance_timed`) and on the served
//! inference plan (`Ddnet::enhance`, whose convolutions take the tensor
//! backend dispatch — the "framework"/PyTorch analogue of Table 4's two
//! columns).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

fn bench_ddnet(c: &mut Criterion) {
    let n = 128usize;
    let net = Ddnet::new(DdnetConfig::paper(), 1);
    let img = Xorshift::new(3).uniform_tensor([n, n], 0.0, 1.0);

    let mut group = c.benchmark_group("ddnet_inference_128");
    for level in [OptLevel::Refactored, OptLevel::RefactoredPrefetchUnrolled] {
        group.bench_with_input(
            BenchmarkId::new("hand_kernels", level.label()),
            &level,
            |b, &level| {
                b.iter(|| net.enhance_timed(&img, level).unwrap());
            },
        );
    }

    // the framework path (backend-dispatched convolutions, like the paper's PyTorch column)
    group.bench_function("framework_graph", |b| {
        b.iter(|| net.enhance(&img).unwrap());
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ddnet
}
criterion_main!(benches);
