//! Property-based coverage of the content-addressed study cache:
//! digest-key injectivity on phantom volumes, cache-hit bit-identity
//! with recomputation, and eviction/weight-change safety — a stale
//! entry must never be served after the model weights change.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use cc19_ctsim::phantom::Severity;
use cc19_data::progression::{progression_volume, ProgressionCourse};
use cc19_data::volume::CtVolume;
use cc19_monitor::digest::{volume_digest, StudyKey};
use cc19_monitor::{PatientSeries, Provenance, StudyCache};
use cc19_obs::Registry;
use cc19_tensor::Tensor;
use computecovid19::framework::{Diagnosis, Framework, Scratch};

fn scan(patient: u64, t: usize) -> CtVolume {
    let course = ProgressionCourse::worsening(4);
    progression_volume(patient, t, &course, 32, 4, Severity::Moderate)
        .expect("progression synthesis")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Distinct (seed, timestep) phantom volumes never collide: no
    /// false cache hits across patients or scans of one patient.
    #[test]
    fn digests_are_injective_across_seeds_and_timesteps(base in 0u64..5_000) {
        let mut seen: HashMap<u64, (u64, usize)> = HashMap::new();
        for patient in [base, base + 1, base + 2] {
            for t in 0..4usize {
                let d = volume_digest(&scan(patient, t).hu);
                if let Some(prior) = seen.insert(d, (patient, t)) {
                    prop_assert!(
                        false,
                        "digest collision: ({patient}, {t}) vs {prior:?} -> {d:#x}"
                    );
                }
            }
        }
    }

    /// A single flipped voxel bit flips the volume digest.
    #[test]
    fn digest_sees_single_voxel_changes(idx in 0usize..(4 * 32 * 32), nudge in 1u32..1000) {
        let mut vol = scan(9, 1).hu;
        let before = volume_digest(&vol);
        let bits = vol.data()[idx].to_bits();
        vol.data_mut()[idx] = f32::from_bits(bits ^ nudge);
        prop_assert!(before != volume_digest(&vol), "flipped voxel bit left digest unchanged");
    }
}

/// Helper: diagnosis with fixed probability for cache-level tests.
fn diag(p: f64) -> Diagnosis {
    use std::time::Duration;
    Diagnosis { probability: p, positive: p >= 0.5, t_queue: Duration::ZERO }
}

#[test]
fn cache_hits_are_bit_identical_to_recomputation() {
    let fw = Framework::untrained_reduced(0xBEE);
    let vol = scan(0xBEE, 2);

    // ground truth: run the capture pipeline twice without a cache
    let compute = || {
        let mut scratch = Scratch::new();
        let enh = fw.run_enhance(&vol.hu, &mut scratch).expect("enhance");
        let (seg, cap) = fw.run_segment_capturing(enh, &mut scratch).expect("segment");
        let d = fw.run_classify(seg, 0.5, &mut scratch).expect("classify");
        (cap.enhanced_hu, cap.mask, d)
    };
    let (hu_a, mask_a, d_a) = compute();

    // cached replay
    let mut cache = StudyCache::with_registry(64 << 20, Arc::new(Registry::new()));
    let key = StudyKey::for_study(&fw, &vol.hu, 0.5);
    cache.insert(key, &hu_a, &mask_a, d_a.clone()).expect("insert");
    let hit = cache.get(&key).expect("hit");

    let (hu_b, mask_b, d_b) = compute();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&hit.enhanced_hu), bits(&hu_b), "cached enhanced volume differs");
    assert_eq!(bits(&hit.mask), bits(&mask_b), "cached mask differs");
    assert_eq!(hit.diagnosis.probability.to_bits(), d_b.probability.to_bits());
    assert_eq!(hit.diagnosis.positive, d_b.positive);
    // the cache returns the original computation's Diagnosis verbatim,
    // wall-clock timings included
    assert_eq!(hit.diagnosis, d_a, "cached Diagnosis must be bit-identical");
}

#[test]
fn eviction_under_a_small_budget_never_serves_stale_weights() {
    // budget fits roughly one 3×32×32 study (2 buffers × 3072 × 4 B)
    let registry = Arc::new(Registry::new());
    let mut cache = StudyCache::with_registry(25_000, Arc::clone(&registry));

    let fw_v1 = Framework::untrained_reduced(1);
    let fw_v2 = Framework::untrained_reduced(2); // "retrained" weights
    let vol = scan(0xA, 0);
    let hu = Tensor::full([3, 32, 32], -700.0);
    let mask = Tensor::full([3, 32, 32], 1.0);

    let key_v1 = StudyKey::for_study(&fw_v1, &vol.hu, 0.5);
    let key_v2 = StudyKey::for_study(&fw_v2, &vol.hu, 0.5);
    assert_ne!(key_v1, key_v2, "a weight change must re-address the study");

    cache.insert(key_v1, &hu, &mask, diag(0.9)).expect("insert v1");
    // same scan under the new weights: MISS — the stale v1 entry is
    // unreachable by construction
    assert!(cache.get(&key_v2).is_none());

    // churn the tiny cache until v1 evicts; stale entries age out
    for i in 0..4u64 {
        let k = StudyKey { volume: i.wrapping_mul(0x9E37), ..key_v2 };
        cache.insert(k, &hu, &mask, diag(0.5)).expect("churn insert");
    }
    assert!(cache.get(&key_v1).is_none(), "evicted v1 entry must not resurface");
    let (_, _, evictions) = cache.stats();
    assert!(evictions > 0, "small budget must have evicted");
    assert!(cache.bytes() <= cache.byte_budget());
}

#[test]
fn series_replays_from_cache_after_unrelated_churn() {
    // Budget sized for ~2 studies: day-0 survives one interleaved scan
    // but the timeline still answers every submission correctly.
    let registry = Arc::new(Registry::new());
    let fw = Framework::untrained_reduced(0xCAFE);
    let mut s = PatientSeries::with_registry(fw, 0.5, 70_000, registry);

    let r0 = s.add_scan("day 0", &scan(0xCAFE, 0)).expect("day 0");
    let r1 = s.add_scan("day 5", &scan(0xCAFE, 1)).expect("day 5");
    assert_eq!(r0.provenance, Provenance::Computed);
    assert_eq!(r1.provenance, Provenance::Computed);

    let replay = s.add_scan("day 0 re-read", &scan(0xCAFE, 0)).expect("replay");
    assert_eq!(replay.provenance, Provenance::CacheHit);
    assert_eq!(replay.probability.to_bits(), r0.probability.to_bits());
    assert_eq!(replay.burden.lesion_ml.to_bits(), r0.burden.lesion_ml.to_bits());
}
