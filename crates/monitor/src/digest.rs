//! Content-addressed study identity.
//!
//! A cached result is only reusable while *all three* inputs that
//! produced it are unchanged: the scan itself, the model weights, and
//! the pipeline configuration. [`StudyKey`] digests each independently
//! — 64-bit FNV-1a over the raw bytes, finalized through a splitmix64
//! avalanche so single-bit input differences flip about half the key
//! bits. A weight update or a config change therefore changes the key,
//! and stale entries simply stop being addressable (they age out of
//! the LRU); no invalidation pass is needed.

use cc19_analysis::segmentation::LungSegmenter;
use cc19_data::prep::PrepConfig;
use cc19_tensor::Tensor;
use computecovid19::framework::Framework;

/// 64-bit FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Streaming FNV-1a hasher with a splitmix64 finalizer.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb raw bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Absorb an `f32` slice as little-endian bytes (bit-exact: two
    /// slices digest equal iff their float *bits* are equal — `-0.0`
    /// and `0.0` differ, NaN payloads count).
    pub fn update_f32s(&mut self, vals: &[f32]) {
        let mut h = self.0;
        for v in vals {
            for b in v.to_bits().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
        }
        self.0 = h;
    }

    /// Absorb a `u64`.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Finalize through splitmix64 (avalanches FNV's weak low bits).
    pub fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Digest of one tensor: dims then data bits.
fn tensor_digest(t: &Tensor) -> u64 {
    let mut h = Fnv1a::new();
    h.update_u64(t.dims().len() as u64);
    for &d in t.dims() {
        h.update_u64(d as u64);
    }
    h.update_f32s(t.data());
    h.finish()
}

/// The content address of one study submission: any difference in the
/// scan, the weights, or the config yields a different key, so a cache
/// lookup can only hit on a byte-equivalent computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StudyKey {
    /// Digest of the HU volume (dims + data bits).
    pub volume: u64,
    /// Digest of the model weights (serialized checkpoints of the
    /// enhancer and classifier).
    pub weights: u64,
    /// Digest of the pipeline configuration (prep window, segmenter
    /// parameters, decision threshold, enhancer presence).
    pub config: u64,
}

impl StudyKey {
    /// Key for submitting `vol_hu` to `fw` at `threshold`.
    pub fn for_study(fw: &Framework, vol_hu: &Tensor, threshold: f64) -> Self {
        StudyKey {
            volume: volume_digest(vol_hu),
            weights: weights_digest(fw),
            config: config_digest(&fw.prep, &fw.segmenter, threshold, fw.enhancer.is_some()),
        }
    }
}

/// Digest of a `(D, H, W)` HU volume.
pub fn volume_digest(vol_hu: &Tensor) -> u64 {
    tensor_digest(vol_hu)
}

/// Digest of a framework's model weights: the serialized checkpoint
/// bytes of the enhancer (when present) and the classifier — the same
/// bytes the on-disk checkpoint format CRC-protects, so "weights
/// changed" means exactly "a saved checkpoint would differ".
pub fn weights_digest(fw: &Framework) -> u64 {
    let mut h = Fnv1a::new();
    match &fw.enhancer {
        Some(net) => {
            h.update(b"enhancer");
            let mut bytes = Vec::new();
            if net.to_checkpoint().write_to(&mut bytes).is_ok() {
                h.update(&bytes);
            }
        }
        None => h.update(b"no-enhancer"),
    }
    h.update(b"classifier");
    let mut bytes = Vec::new();
    if fw.classifier.to_checkpoint().write_to(&mut bytes).is_ok() {
        h.update(&bytes);
    }
    h.finish()
}

/// Digest of the pipeline configuration knobs that change the output.
pub fn config_digest(
    prep: &PrepConfig,
    segmenter: &LungSegmenter,
    threshold: f64,
    enhancer_present: bool,
) -> u64 {
    let mut h = Fnv1a::new();
    h.update_u64(prep.min_slices as u64);
    h.update_f32s(&[prep.window.0, prep.window.1]);
    h.update_f32s(&[segmenter.air_threshold, segmenter.min_component_frac]);
    h.update_u64(segmenter.closing_radius as u64);
    h.update_u64(threshold.to_bits());
    h.update_u64(enhancer_present as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;

    #[test]
    fn fnv_is_deterministic_and_order_sensitive() {
        let mut a = Fnv1a::new();
        a.update(b"hello");
        let mut b = Fnv1a::new();
        b.update(b"hello");
        assert_eq!(a.finish(), b.finish());
        let mut c = Fnv1a::new();
        c.update(b"olleh");
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn f32_digest_is_bit_exact() {
        let mut a = Fnv1a::new();
        a.update_f32s(&[0.0]);
        let mut b = Fnv1a::new();
        b.update_f32s(&[-0.0]);
        assert_ne!(a.finish(), b.finish(), "0.0 and -0.0 must digest differently");
    }

    #[test]
    fn volume_digest_separates_shape_and_content() {
        let flat = Tensor::zeros([4, 8]);
        let tall = Tensor::zeros([8, 4]);
        assert_ne!(volume_digest(&flat), volume_digest(&tall));
        let mut dirty = Tensor::zeros([4, 8]);
        dirty.data_mut()[17] = 1e-30;
        assert_ne!(volume_digest(&flat), volume_digest(&dirty));
    }

    #[test]
    fn study_key_tracks_weights_and_config() {
        let fw_a = Framework::untrained_reduced(1);
        let fw_b = Framework::untrained_reduced(2);
        let vol = Tensor::full([2, 8, 8], -500.0);
        let ka = StudyKey::for_study(&fw_a, &vol, 0.5);
        assert_eq!(ka, StudyKey::for_study(&fw_a, &vol, 0.5));
        // different seed => different weights => different key
        assert_ne!(ka.weights, StudyKey::for_study(&fw_b, &vol, 0.5).weights);
        // threshold is config
        assert_ne!(ka.config, StudyKey::for_study(&fw_a, &vol, 0.75).config);
        // removing the enhancer is both a weight and a config change
        let mut bare = Framework::untrained_reduced(1);
        bare.enhancer = None;
        let kb = StudyKey::for_study(&bare, &vol, 0.5);
        assert_ne!(ka.weights, kb.weights);
        assert_ne!(ka.config, kb.config);
        assert_eq!(ka.volume, kb.volume);
    }
}
