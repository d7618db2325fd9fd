//! The analytic DDnet model behind Tables 4–7 (`cc19_hetero::DdnetShape`
//! and its count walk) describes the network the tables time
//! (`Ddnet::enhance_timed`). Its own process, so the `cc19-obs`
//! counters below see one call and nothing else.

use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_hetero::{ddnet_class_counts, DdnetShape};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

#[test]
fn the_paper_shape_is_the_paper_network() {
    let (shape, cfg) = (DdnetShape::paper(), DdnetConfig::paper());
    assert_eq!((shape.base, shape.growth, shape.per_block), (cfg.base, cfg.growth, cfg.per_block));
}

#[test]
fn the_count_walk_runs_the_flops_of_one_timed_call() {
    let flops = |op: &str| {
        cc19_obs::global().counter_with("tensor_conv_flops_total", &[("op", op), ("pass", "fwd")]).get()
    };
    let n = 64;
    let net = Ddnet::new(DdnetConfig::paper(), 1);
    let img = Xorshift::new(2).uniform_tensor([n, n], 0.0, 1.0);
    let before = (flops("conv2d_ladder"), flops("deconv2d_gather"));
    net.enhance_timed(&img, OptLevel::RefactoredPrefetchUnrolled).unwrap();
    let ran = (flops("conv2d_ladder") - before.0, flops("deconv2d_gather") - before.1);
    let counts = ddnet_class_counts(DdnetShape::reduced(n));
    assert_eq!(ran, (counts.conv.flops, counts.deconv.flops));
}
