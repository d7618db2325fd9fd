//! Output digests pinned bit for bit: `Ddnet::enhance` (tiny config,
//! seed 3) on a seeded slice at five extents, and the probability of a
//! warm `Framework::diagnose` at four; then the paper configuration
//! (running-statistics batch norm, no residual add), the global-shortcut
//! ablation (no decoder concatenation), a non-square 48×80 slice and the
//! reduced classifier's probability. A change that moves a single bit
//! of either network's inference, such as a re-blocked GEMM or a
//! re-ordered convolution lowering, fails here. The pins were computed
//! before the forward GEMM convolution was panelled, so they also record
//! that panelling moved nothing. The 512² slice runs in the release-build
//! stage of `scripts/tier1.sh`.

use cc19_analysis::classifier::{ClassifierConfig, DenseNet3d};
use cc19_data::dataset::ClassificationDataset;
use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_tensor::rng::Xorshift;
use cc19_tensor::Tensor;
use computecovid19::framework::Framework;

/// FNV-1a over the little-endian bytes of each value's bit pattern.
fn fnv1a(bits: impl Iterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits.flat_map(u64::to_le_bytes) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of `Ddnet::enhance` on an `extent²` slice of uniform `[0, 1)`
/// noise.
fn enhance_digest(extent: usize) -> u64 {
    let mut rng = Xorshift::new(extent as u64);
    let slice: Vec<f32> = (0..extent * extent).map(|_| rng.uniform(0.0, 1.0)).collect();
    let slice = Tensor::from_vec(vec![extent, extent], slice).expect("slice");
    let out = Ddnet::new(DdnetConfig::tiny(), 3).enhance(&slice).expect("enhance");
    fnv1a(out.data().iter().map(|v| u64::from(v.to_bits())))
}

#[test]
fn enhance_digests_are_pinned() {
    for (extent, want) in [
        (16, 2957158904489386699),
        (32, 3469082010653548507),
        (64, 8733821262090047756),
        (112, 12336680391813873341),
    ] {
        assert_eq!(enhance_digest(extent), want, "enhance digest at {extent}²");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "the 512² slice runs in the release-build stage of scripts/tier1.sh")]
fn enhance_digest_at_512_is_pinned() {
    assert_eq!(enhance_digest(512), 4718472227528418061);
}

#[test]
fn diagnose_probability_bits_are_pinned() {
    let fw = Framework::untrained_reduced(31);
    for (extent, want) in [
        (16, 17027082662281185481),
        (32, 11559416044468360107),
        (64, 6694112407070192298),
        (112, 5074881730260995113),
    ] {
        let ds = ClassificationDataset::generate(1, 1, extent, 4).expect("dataset");
        let p = fw.diagnose(&ds.test[0].volume.hu, 0.5).expect("diagnose").probability;
        assert_eq!(fnv1a(std::iter::once(p.to_bits())), want, "diagnose at 4×{extent}² (p = {p})");
    }
}

/// Digest of `net.enhance` on an `h×w` slice of uniform `[0, 1)` noise
/// drawn from `seed`.
fn net_digest(net: &Ddnet, h: usize, w: usize, seed: u64) -> u64 {
    let slice = Xorshift::new(seed).uniform_tensor([h, w], 0.0, 1.0);
    let out = net.enhance(&slice).expect("enhance");
    assert!(!out.all_close(&slice, 1e-3), "the network must not be the identity");
    fnv1a(out.data().iter().map(|v| u64::from(v.to_bits())))
}

/// `cfg` at seed 3 with every weight nudged by +0.01: an untrained tiny
/// net's zero-initialised last layer makes it the identity otherwise.
fn nudged(cfg: DdnetConfig) -> Ddnet {
    let net = Ddnet::new(cfg, 3);
    for p in net.store.params() {
        for v in p.borrow_mut().value.data_mut() {
            *v += 0.01;
        }
    }
    net
}

#[test]
fn paper_config_digest_is_pinned() {
    // running-statistics batch norm, no residual add
    assert_eq!(net_digest(&Ddnet::new(DdnetConfig::paper(), 3), 32, 32, 7), 13389800334580596921);
}

#[test]
fn shortcut_ablation_digest_is_pinned() {
    // no decoder concatenation at all
    let mut cfg = DdnetConfig::tiny();
    cfg.no_global_shortcuts = true;
    assert_eq!(net_digest(&nudged(cfg), 32, 32, 8), 16363003001299970698);
}

#[test]
fn non_square_slice_digest_is_pinned() {
    assert_eq!(net_digest(&nudged(DdnetConfig::tiny()), 48, 80, 9), 1269881782421085438);
}

#[test]
fn reduced_classifier_probability_bits_are_pinned() {
    let net = DenseNet3d::new(ClassifierConfig::reduced(), 5);
    let vol = Xorshift::new(10).uniform_tensor([8, 32, 32], 0.0, 1.0);
    let p = net.predict_proba(&vol).expect("predict_proba");
    assert_eq!(fnv1a(std::iter::once(p.to_bits())), 5047856437950149752, "p = {p}");
}
