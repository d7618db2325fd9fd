//! `slice_512`: closed loop, one caller, `Ddnet::enhance` on one 512×512
//! slice, the unit of the paper's Tables 4 to 7, with the network
//! configuration the `Framework` serves with.

use std::time::Instant;

use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_tensor::Tensor;

use super::{alternate_traced, ops_within, set_trace_overhead, timed_setups, EndToEnd};
use crate::inputs::unit_slice;
use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::spans::Recorder;
use crate::stats::{median, Sample};

/// In-plane extent: 1 MiB per channel plane, 12 MiB at the 12-channel
/// concatenation, beyond the 4 MiB L2.
pub const EXTENT: usize = 512;
/// Seed of the network's weights.
const NET_SEED: u64 = 3;

struct Ctx {
    net: Ddnet,
    slice: Tensor,
    /// Output of the warm-up call; every later call must repeat it bit
    /// for bit.
    reference: Tensor,
}

/// Model build, slice synthesis and one warm-up call.
fn setup(seed: u64) -> Ctx {
    let net = Ddnet::new(DdnetConfig::tiny(), NET_SEED);
    let slice = unit_slice(seed, EXTENT);
    let reference = net.enhance(&slice).expect("warm-up enhance");
    Ctx {
        net,
        slice,
        reference,
    }
}

/// Finite, and bit-identical to the warm-up's output.
fn repeats_reference(ctx: &Ctx, out: &Tensor) -> bool {
    !out.has_non_finite()
        && out
            .data()
            .iter()
            .zip(ctx.reference.data())
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

fn enhance_ok(ctx: &Ctx) -> bool {
    ctx.net
        .enhance(&ctx.slice)
        .is_ok_and(|out| repeats_reference(ctx, &out))
}

/// Enhance the slice again and again for `seconds`.
pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let (ctx, setup_s) = timed_setups(|| setup(seed), drop);
    let mut outcome = Outcome::default();
    let mut latency = Vec::with_capacity(256);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = ctx.net.enhance(&ctx.slice);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        // Comparing 256 Ki values is not part of the operation.
        let ok = out.is_ok_and(|out| repeats_reference(&ctx, &out));
        outcome.count(ok);
        if ok {
            let at_s = start.elapsed().as_secs_f64();
            latency.push(Sample { at_s, ms });
        }
    }
    EndToEnd {
        setup_s,
        throughput: latency.clone(),
        latency,
        outcome,
    }
}

/// Alternate bare and spanned `enhance` calls, then replay the
/// network's conv and deconv calls at 512² and run the fixed probes.
pub fn traced(seed: u64, seconds: f64, rec: &mut Recorder, layers: &mut Metrics) -> Outcome {
    let ctx = setup(seed);
    let mut outcome = Outcome::default();
    let t = Instant::now();
    outcome.count(enhance_ok(&ctx));
    let pairs = ops_within(0.35 * seconds, t.elapsed().as_secs_f64(), 2, 50);

    let (bare, spanned) = alternate_traced(pairs, "ddnet.enhance", rec, &mut outcome, |_, _| {
        enhance_ok(&ctx)
    });
    set_trace_overhead(layers, &bare, &spanned);
    if let Some(ms) = median(&spanned) {
        layers::ddnet_split(layers, &ctx.net.cfg, EXTENT, ms / 1e3, 2);
        layers.set("ddnet.enhance_slice_ms", ms, spanned.len());
    }
    layers::fixed_probes(layers, &mut outcome);
    outcome
}
