//! `direct_study`: closed loop, one caller, warm `Framework::diagnose`
//! on an idle machine. No serve or cluster code runs.

use std::time::Instant;

use computecovid19::framework::Scratch;
use computecovid19::Framework;

use super::{alternate_traced, ops_within, set_trace_overhead, timed_setups, EndToEnd};
use crate::inputs::{framework, Pool, POOL};
use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::schedule::Rng;
use crate::spans::Recorder;
use crate::stats::Sample;

/// Slices per study.
pub const SLICES: usize = 4;
/// In-plane extent: 112² f32 planes are 49 KiB, cache resident.
pub const EXTENT: usize = 112;

struct Ctx {
    fw: Framework,
    pool: Pool,
}

/// Model build, pool synthesis, and the expected answers, whose eight
/// direct calls are the warm-up.
fn setup(seed: u64) -> Ctx {
    let fw = framework();
    let pool = Pool::build(&fw, seed, SLICES, EXTENT);
    Ctx { fw, pool }
}

fn diagnose_ok(ctx: &Ctx, study: usize) -> bool {
    matches!(
        ctx.fw.diagnose(&ctx.pool.studies[study], 0.5),
        Ok(d) if d.probability.to_bits() == ctx.pool.expected[study]
    )
}

/// Diagnose seeded draws from the pool, one after the other, for
/// `seconds`.
pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let (ctx, setup_s) = timed_setups(|| setup(seed), drop);
    let mut rng = Rng::new(seed ^ 0xD1EC7);
    let mut outcome = Outcome::default();
    let mut latency = Vec::with_capacity(4096);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let study = rng.below(POOL);
        let t = Instant::now();
        let ok = diagnose_ok(&ctx, study);
        let ms = t.elapsed().as_secs_f64() * 1e3;
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

/// Half the time alternates `diagnose` with the same study run stage by
/// stage under spans; the rest goes to the `analysis`, `ddnet` and fixed
/// probes.
pub fn traced(seed: u64, seconds: f64, rec: &mut Recorder, layers: &mut Metrics) -> Outcome {
    let ctx = setup(seed);
    let mut outcome = Outcome::default();
    let t = Instant::now();
    outcome.count(diagnose_ok(&ctx, 0));
    let pairs = ops_within(0.25 * seconds, t.elapsed().as_secs_f64(), 3, 200);

    // Both calls of a pair get the same study, and the staged call a
    // fresh `Scratch` as `diagnose` makes one, so that the spans are the
    // only difference between them.
    let mut rng = Rng::new(seed ^ 0xD1EC7);
    let order: Vec<usize> = (0..pairs).map(|_| rng.below(POOL)).collect();
    let (bare, staged) = alternate_traced(pairs, layers::STUDY, rec, &mut outcome, |k, span| {
        let study = order[k];
        match span {
            None => diagnose_ok(&ctx, study),
            Some((rec, root)) => {
                let vol = &ctx.pool.studies[study];
                layers::staged_study(rec, root, &ctx.fw, &mut Scratch::new(), vol)
                    == Some(ctx.pool.expected[study])
            }
        }
    });
    set_trace_overhead(layers, &bare, &staged);
    layers::study_shape_probes(layers, &mut outcome, rec, &ctx.fw, &ctx.pool.studies[0], 10);
    outcome
}
