//! The content-addressed study cache.
//!
//! Maps a [`StudyKey`] to the memoized artifacts of one pipeline run:
//! the enhanced HU volume, the segmentation mask, and the finished
//! [`Diagnosis`]. A hit skips the enhance/segment/classify stages
//! entirely and returns results bit-identical to the original
//! computation — the key covers volume bytes, weights, and config, so
//! a hit can only occur for a byte-equivalent computation.
//!
//! Eviction is deterministic LRU under a byte budget: each access
//! stamps a monotonically increasing tick, and inserts evict the
//! least-recently-used entries (smallest tick) until the budget holds.
//! No clocks, no randomness — two runs with the same submission order
//! evict identically. Hit/miss/eviction counters land on a `cc19-obs`
//! registry (`monitor_cache_{hits,misses,evictions}_total`).

use std::collections::BTreeMap;
use std::sync::Arc;

use cc19_obs::{Counter, Registry};
use cc19_tensor::Tensor;
use computecovid19::framework::Diagnosis;

use crate::digest::StudyKey;
use crate::Result;

/// One memoized pipeline run.
#[derive(Debug, Clone)]
struct Entry {
    dims: Vec<usize>,
    enhanced_hu: Vec<f32>,
    mask: Vec<f32>,
    diagnosis: Diagnosis,
    tick: u64,
}

impl Entry {
    /// Heap bytes this entry pins (the two volume-sized buffers).
    fn bytes(&self) -> usize {
        (self.enhanced_hu.len() + self.mask.len()) * std::mem::size_of::<f32>()
    }
}

/// A cache hit, reconstructed into owned tensors.
#[derive(Debug, Clone)]
pub struct CachedStudy {
    /// The memoized enhanced volume in HU space.
    pub enhanced_hu: Tensor,
    /// The memoized binary lung mask.
    pub mask: Tensor,
    /// The diagnosis of the original computation (bit-identical,
    /// timings included).
    pub diagnosis: Diagnosis,
}

/// Content-addressed LRU store of pipeline runs under a byte budget.
#[derive(Debug)]
pub struct StudyCache {
    entries: BTreeMap<StudyKey, Entry>,
    bytes: usize,
    byte_budget: usize,
    tick: u64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl StudyCache {
    /// Cache with the given byte budget, counting on the global
    /// `cc19-obs` registry.
    pub fn new(byte_budget: usize) -> Self {
        Self::with_registry(byte_budget, cc19_obs::global_arc())
    }

    /// Cache counting hit/miss/eviction on an injected registry.
    pub fn with_registry(byte_budget: usize, registry: Arc<Registry>) -> Self {
        StudyCache {
            entries: BTreeMap::new(),
            bytes: 0,
            byte_budget,
            tick: 0,
            hits: registry.counter("monitor_cache_hits_total"),
            misses: registry.counter("monitor_cache_misses_total"),
            evictions: registry.counter("monitor_cache_evictions_total"),
        }
    }

    /// Number of cached studies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently pinned by cached artifacts.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Cumulative (hits, misses, evictions) as counted on the registry.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits.get(), self.misses.get(), self.evictions.get())
    }

    /// Look up a study. A hit refreshes the entry's LRU tick and
    /// returns owned copies of the memoized artifacts; a miss only
    /// bumps the miss counter.
    pub fn get(&mut self, key: &StudyKey) -> Option<CachedStudy> {
        match self.entries.get_mut(key) {
            Some(e) => {
                self.tick += 1;
                e.tick = self.tick;
                self.hits.inc();
                let enhanced_hu =
                    Tensor::from_vec(e.dims.clone(), e.enhanced_hu.clone()).ok()?;
                let mask = Tensor::from_vec(e.dims.clone(), e.mask.clone()).ok()?;
                Some(CachedStudy { enhanced_hu, mask, diagnosis: e.diagnosis.clone() })
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Memoize a pipeline run, evicting LRU entries until the byte
    /// budget holds. An entry larger than the whole budget is evicted
    /// immediately (the cache never over-pins memory), which still
    /// counts as an eviction.
    pub fn insert(
        &mut self,
        key: StudyKey,
        enhanced_hu: &Tensor,
        mask: &Tensor,
        diagnosis: Diagnosis,
    ) -> Result<()> {
        if enhanced_hu.dims() != mask.dims() {
            return Err(cc19_tensor::TensorError::Incompatible(
                "cache entry volume and mask dims differ".into(),
            ));
        }
        self.tick += 1;
        let entry = Entry {
            dims: enhanced_hu.dims().to_vec(),
            enhanced_hu: enhanced_hu.data().to_vec(),
            mask: mask.data().to_vec(),
            diagnosis,
            tick: self.tick,
        };
        if let Some(old) = self.entries.insert(key, entry) {
            self.bytes -= old.bytes();
        }
        self.bytes += self.entries.get(&key).map_or(0, Entry::bytes);
        self.evict_to_budget();
        Ok(())
    }

    /// Evict least-recently-used entries (smallest tick, then smallest
    /// key for full determinism) until `bytes <= byte_budget`.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.byte_budget {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(k, e)| (e.tick, **k))
                .map(|(k, _)| *k);
            let Some(key) = victim else { break };
            if let Some(e) = self.entries.remove(&key) {
                self.bytes -= e.bytes();
                self.evictions.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use std::time::Duration;

    fn diag(p: f64) -> Diagnosis {
        Diagnosis { probability: p, positive: p >= 0.5, t_queue: Duration::ZERO }
    }

    fn key(n: u64) -> StudyKey {
        StudyKey { volume: n, weights: 1, config: 2 }
    }

    fn reg() -> Arc<Registry> {
        Arc::new(Registry::new())
    }

    #[test]
    fn hit_returns_the_memoized_bits() {
        let mut c = StudyCache::with_registry(1 << 20, reg());
        let vol = Tensor::full([2, 4, 4], -512.25);
        let mask = Tensor::full([2, 4, 4], 1.0);
        c.insert(key(1), &vol, &mask, diag(0.75)).unwrap();
        let hit = c.get(&key(1)).unwrap();
        assert_eq!(hit.enhanced_hu.data(), vol.data());
        assert_eq!(hit.mask.data(), mask.data());
        assert_eq!(hit.diagnosis.probability.to_bits(), 0.75f64.to_bits());
        assert!(c.get(&key(2)).is_none());
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn lru_eviction_is_deterministic_under_the_byte_budget() {
        // each entry: 2 tensors × 8 f32 × 4 B = 64 B; budget fits two
        let mut c = StudyCache::with_registry(128, reg());
        let t = Tensor::zeros([8]);
        c.insert(key(1), &t, &t, diag(0.1)).unwrap();
        c.insert(key(2), &t, &t, diag(0.2)).unwrap();
        assert_eq!(c.len(), 2);
        // touch 1 so 2 becomes LRU
        assert!(c.get(&key(1)).is_some());
        c.insert(key(3), &t, &t, diag(0.3)).unwrap();
        assert_eq!(c.len(), 2);
        assert!(c.get(&key(2)).is_none(), "LRU entry 2 must have been evicted");
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn oversized_entry_is_evicted_immediately() {
        let mut c = StudyCache::with_registry(16, reg());
        let t = Tensor::zeros([64]);
        c.insert(key(1), &t, &t, diag(0.5)).unwrap();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.stats().2, 1);
    }

    #[test]
    fn reinsert_replaces_without_leaking_bytes() {
        let mut c = StudyCache::with_registry(1 << 20, reg());
        let t = Tensor::zeros([16]);
        c.insert(key(1), &t, &t, diag(0.1)).unwrap();
        let b = c.bytes();
        c.insert(key(1), &t, &t, diag(0.9)).unwrap();
        assert_eq!(c.bytes(), b);
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1)).unwrap().diagnosis.probability, 0.9);
    }

    #[test]
    fn mismatched_dims_are_rejected() {
        let mut c = StudyCache::with_registry(1 << 20, reg());
        let vol = Tensor::zeros([2, 4, 4]);
        let mask = Tensor::zeros([2, 4, 5]);
        assert!(c.insert(key(1), &vol, &mask, diag(0.5)).is_err());
    }
}
