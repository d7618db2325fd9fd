//! Seeded inputs: chest-phantom study pools with their expected answers,
//! and the 512×512 slice. The program under test only ever sees these.

use cc19_ctsim::phantom::Severity;
use cc19_data::sources::Modality;
use cc19_data::{CtVolume, DataSource, ScanMeta};
use cc19_tensor::Tensor;
use computecovid19::Framework;

/// Studies per pool.
pub const POOL: usize = 8;

/// One replica of the model every workload diagnoses with, direct or
/// served: same seed, so same weights and same answers.
pub fn framework() -> Framework {
    Framework::untrained_reduced(31)
}

/// A pool of studies of one shape and the diagnosis each must get.
pub struct Pool {
    /// `(slices, n, n)` HU volumes.
    pub studies: Vec<Tensor>,
    /// `probability.to_bits()` of a direct `diagnose` of each study.
    pub expected: Vec<u64>,
}

/// Phantom id of study `i` of the pool for `seed`; any `--seed` is taken.
fn study_id(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i)
}

/// One seeded chest phantom: even ids are COVID-positive with a
/// severity that cycles, odd ids are healthy.
fn study(id: u64, slices: usize, n: usize) -> Tensor {
    let positive = id.is_multiple_of(2);
    let severity = [Severity::Mild, Severity::Moderate, Severity::Severe][(id / 2 % 3) as usize];
    let meta = ScanMeta {
        id,
        source: DataSource::Midrc,
        modality: Modality::Ct,
        positive,
        severity: positive.then_some(severity),
        slices,
        circular_artifact: false,
        has_projections: false,
    };
    CtVolume::synthesize(&meta, n, slices)
        .expect("a CT study synthesizes")
        .hu
}

impl Pool {
    /// Synthesize [`POOL`] studies for `seed` and diagnose each directly.
    /// The direct calls double as the warm-up of `fw`.
    pub fn build(fw: &Framework, seed: u64, slices: usize, n: usize) -> Pool {
        let studies: Vec<Tensor> = (0..POOL as u64)
            .map(|i| study(study_id(seed, i), slices, n))
            .collect();
        let expected = studies
            .iter()
            .map(|v| {
                fw.diagnose(v, 0.5)
                    .expect("direct diagnose")
                    .probability
                    .to_bits()
            })
            .collect();
        Pool { studies, expected }
    }
}

/// The first slice of a study in the enhancer's `[0, 1]` input space (the
/// lung window −1000…400 HU mapped linearly and clamped).
pub fn first_slice_unit(vol: &Tensor) -> Tensor {
    let n = vol.dims()[1];
    let unit = vol.data()[..n * n]
        .iter()
        .map(|&v| ((v + 1000.0) / 1400.0).clamp(0.0, 1.0))
        .collect();
    Tensor::from_vec([n, n], unit).expect("one slice of n*n values")
}

/// One seeded `n`×`n` slice in the enhancer's input space.
pub fn unit_slice(seed: u64, n: usize) -> Tensor {
    first_slice_unit(&study(study_id(seed, 2), 1, n))
}
