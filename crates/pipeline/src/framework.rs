//! The end-to-end framework object.
//!
//! The pipeline is decomposed into three explicit stages —
//! [`Framework::run_enhance`] → [`Framework::run_segment`] →
//! [`Framework::run_classify`] — so a caller can time each one and keep
//! its intermediate artefacts: the serving layer (`cc19-serve`) records
//! a trace span per stage, and the monitoring layer captures the lung
//! mask. The framework itself is pure compute: it reads no clock, and
//! a caller that wants a stage's time times the stage call.
//! [`Framework::diagnose`] chains the three stages in place and
//! is a thin wrapper over [`Framework::diagnose_batch`]; the batch form
//! threads a [`Scratch`] buffer pool through the stages so intermediate
//! volume-sized tensors are reused across studies instead of
//! reallocated per call (all the `_into` kernels it relies on are
//! bit-identical to their allocating forms, so a batch of one equals a
//! single call bit for bit — tested below).

use std::time::Duration;

use cc19_analysis::classifier::{ClassifierConfig, DenseNet3d};
use cc19_analysis::segmentation::{apply_mask_into, LungSegmenter};
use cc19_data::prep::{
    denormalize_from_enhancement_into, normalize_for_enhancement_into, PrepConfig,
};
use cc19_ddnet::trainer::enhance_volume_into;
use cc19_ddnet::{Ddnet, DdnetConfig};
use cc19_tensor::Tensor;

use crate::Result;

/// One diagnosis report (the pipeline's output for one CT study).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Predicted probability of COVID-19.
    pub probability: f64,
    /// Decision at the configured threshold.
    pub positive: bool,
    /// Time the study spent queued before its first stage started
    /// (zero for direct `diagnose` calls; filled in by the serving
    /// layer's worker).
    pub t_queue: Duration,
}

impl Diagnosis {
    /// Attach the queue wait measured by a serving layer.
    pub fn with_queue_time(mut self, t_queue: Duration) -> Self {
        self.t_queue = t_queue;
        self
    }
}

/// Reusable pool of volume-sized buffers threaded through the stage
/// methods. One `Scratch` per worker (or per batch) eliminates the
/// per-study intermediate allocations: normalized input, enhanced
/// output, HU copy for segmentation, and the masked classifier input
/// all draw from and return to the pool.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
}

/// Cap on pooled buffers — enough for the four volume-sized
/// intermediates of one in-flight study plus slack for a stage handing
/// buffers back while the next study is drawn.
const SCRATCH_POOL_CAP: usize = 8;

impl Scratch {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of buffers currently pooled (observability for tests).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// A tensor of the given shape backed by a recycled buffer when one
    /// is available. Contents are zeroed; every stage fully overwrites
    /// what it takes.
    fn take(&mut self, dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        match self.pool.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(n, 0.0);
                Tensor::from_vec(dims.to_vec(), v).expect("scratch buffer sized to dims")
            }
            None => Tensor::zeros(dims.to_vec()),
        }
    }

    /// Return a tensor's backing buffer to the pool.
    pub fn recycle(&mut self, t: Tensor) {
        if self.pool.len() < SCRATCH_POOL_CAP {
            self.pool.push(t.into_vec());
        }
    }
}

/// Output of the enhancement stage (input to segmentation).
#[derive(Debug)]
pub struct Enhanced {
    /// Enhanced (or passthrough-normalized) volume in `[0,1]`.
    pub unit: Tensor,
    /// HU-space volume the segmenter should mask from.
    hu_for_seg: Tensor,
}

/// Intermediate artifacts of the segmentation stage, captured via
/// [`Framework::run_segment_capturing`] for the monitoring layer: the
/// HU-space volume the segmenter ran on and the binary mask it
/// produced. Both are plain tensors the caller now owns (recyclable
/// into a [`Scratch`] pool).
#[derive(Debug)]
pub struct StageCapture {
    /// Enhanced (or passthrough) volume in HU — the segmenter's input.
    pub enhanced_hu: Tensor,
    /// Binary lung mask (1 inside lungs), same dims as the volume.
    pub mask: Tensor,
}

/// Output of the segmentation stage (input to classification).
#[derive(Debug)]
pub struct Segmented {
    /// Masked, normalized volume — the classifier's input.
    pub masked: Tensor,
}

/// The ComputeCOVID19+ pipeline: optional Enhancement AI, Segmentation AI,
/// Classification AI (paper Fig 3).
pub struct Framework {
    /// DDnet enhancer; `None` reproduces the paper's "original CT scans"
    /// baseline arm (§5.2.2).
    pub enhancer: Option<Ddnet>,
    /// Lung segmenter (the pre-trained-model stand-in).
    pub segmenter: LungSegmenter,
    /// 3D classifier.
    pub classifier: DenseNet3d,
    /// HU normalization window.
    pub prep: PrepConfig,
}

impl Framework {
    /// Untrained framework at reduced scale (useful for wiring tests and
    /// the quickstart; train the parts via `experiments` for real use).
    pub fn untrained_reduced(seed: u64) -> Self {
        Framework {
            enhancer: Some(Ddnet::new(DdnetConfig::tiny(), seed)),
            segmenter: LungSegmenter::default(),
            classifier: DenseNet3d::new(ClassifierConfig::tiny(), seed ^ 0xC1A55),
            prep: PrepConfig::scaled(1),
        }
    }

    // -- stage methods (the serving layer runs them in turn, one span each) --

    /// Stage 1: normalize a `(D, H, W)` HU volume and run Enhancement AI,
    /// one slice at a time.
    pub fn run_enhance(&self, vol_hu: &Tensor, scratch: &mut Scratch) -> Result<Enhanced> {
        vol_hu.shape().expect_rank(3)?;
        let dims = vol_hu.dims().to_vec();

        // Normalize each slice into [0,1] (Enhancement AI's input space).
        let mut unit = scratch.take(&dims);
        normalize_for_enhancement_into(vol_hu, self.prep, &mut unit)?;

        match &self.enhancer {
            Some(net) => {
                let mut enhanced = scratch.take(&dims);
                enhance_volume_into(net, &unit, &mut enhanced)?;
                let mut hu_for_seg = scratch.take(&dims);
                denormalize_from_enhancement_into(&enhanced, self.prep, &mut hu_for_seg)?;
                scratch.recycle(unit);
                Ok(Enhanced { unit: enhanced, hu_for_seg })
            }
            None => {
                let mut hu_for_seg = scratch.take(&dims);
                hu_for_seg.data_mut().copy_from_slice(vol_hu.data());
                Ok(Enhanced { unit, hu_for_seg })
            }
        }
    }

    /// Stage 2: segment the lungs and apply the mask.
    pub fn run_segment(&self, enh: Enhanced, scratch: &mut Scratch) -> Result<Segmented> {
        let (seg, capture) = self.run_segment_capturing(enh, scratch)?;
        scratch.recycle(capture.enhanced_hu);
        scratch.recycle(capture.mask);
        Ok(seg)
    }

    /// [`Framework::run_segment`] that also hands back the stage's
    /// intermediate artifacts instead of recycling them — the enhanced
    /// HU volume and the binary lung mask the monitoring layer
    /// memoizes (content-addressed study cache) and quantifies (lesion
    /// burden in mL). `run_segment` delegates here and recycles the
    /// capture, so the two paths are bit-identical and the `_into`/
    /// [`Scratch`] discipline is preserved; callers that keep the
    /// capture may [`Scratch::recycle`] its tensors when done.
    pub fn run_segment_capturing(
        &self,
        enh: Enhanced,
        scratch: &mut Scratch,
    ) -> Result<(Segmented, StageCapture)> {
        let Enhanced { unit, hu_for_seg } = enh;
        let mask = self.segmenter.segment_volume(&hu_for_seg)?;
        let mut masked = scratch.take(unit.dims());
        apply_mask_into(&unit, &mask, &mut masked)?;
        scratch.recycle(unit);
        let seg = Segmented { masked };
        Ok((seg, StageCapture { enhanced_hu: hu_for_seg, mask }))
    }

    /// Stage 3: classify and assemble the report.
    pub fn run_classify(
        &self,
        seg: Segmented,
        threshold: f64,
        scratch: &mut Scratch,
    ) -> Result<Diagnosis> {
        let probability = self.classifier.predict_proba(&seg.masked)?;
        scratch.recycle(seg.masked);
        Ok(Diagnosis { probability, positive: probability >= threshold, t_queue: Duration::ZERO })
    }

    // -- convenience entry points --

    /// Preprocess a `(D, H, W)` HU volume into the classifier's input:
    /// normalize → (enhance) → segment → mask. Returns the normalized,
    /// masked volume.
    pub fn preprocess(&self, vol_hu: &Tensor) -> Result<Tensor> {
        let mut scratch = Scratch::new();
        let enh = self.run_enhance(vol_hu, &mut scratch)?;
        Ok(self.run_segment(enh, &mut scratch)?.masked)
    }

    /// Probability that the study is COVID-positive.
    pub fn probability(&self, vol_hu: &Tensor) -> Result<f64> {
        Ok(self.diagnose(vol_hu, 0.5)?.probability)
    }

    /// Full diagnosis — a thin wrapper over
    /// [`Framework::diagnose_batch`] with a batch of one.
    pub fn diagnose(&self, vol_hu: &Tensor, threshold: f64) -> Result<Diagnosis> {
        let mut reports = self.diagnose_batch(std::slice::from_ref(vol_hu), threshold)?;
        Ok(reports.pop().expect("batch of 1 yields 1 report"))
    }

    /// Diagnose a batch of studies, reusing intermediate volume buffers
    /// across studies via one shared [`Scratch`] pool (after the first
    /// study, the per-study volume-sized allocations are recycled
    /// rather than reallocated). Reports are returned in input order
    /// and are bit-identical to per-study [`Framework::diagnose`] calls.
    pub fn diagnose_batch(&self, vols_hu: &[Tensor], threshold: f64) -> Result<Vec<Diagnosis>> {
        let mut scratch = Scratch::new();
        vols_hu
            .iter()
            .map(|vol| {
                let enh = self.run_enhance(vol, &mut scratch)?;
                let seg = self.run_segment(enh, &mut scratch)?;
                self.run_classify(seg, threshold, &mut scratch)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc19_ctsim::phantom::Severity;
    use cc19_data::sources::{DataSource, Modality, ScanMeta};
    use cc19_data::volume::CtVolume;

    fn test_volume(positive: bool) -> CtVolume {
        let meta = ScanMeta {
            id: 11,
            source: DataSource::Midrc,
            modality: Modality::Ct,
            positive,
            severity: if positive { Some(Severity::Severe) } else { None },
            slices: 4,
            circular_artifact: false,
            has_projections: false,
        };
        CtVolume::synthesize(&meta, 32, 4).unwrap()
    }

    fn test_volume_seeded(id: u64) -> CtVolume {
        let meta = ScanMeta {
            id,
            source: DataSource::Midrc,
            modality: Modality::Ct,
            positive: id.is_multiple_of(2),
            severity: if id.is_multiple_of(2) { Some(Severity::Moderate) } else { None },
            slices: 4,
            circular_artifact: false,
            has_projections: false,
        };
        CtVolume::synthesize(&meta, 32, 4).unwrap()
    }

    #[test]
    fn diagnose_end_to_end() {
        let fw = Framework::untrained_reduced(1);
        let vol = test_volume(true);
        let d = fw.diagnose(&vol.hu, 0.5).unwrap();
        assert!((0.0..=1.0).contains(&d.probability));
        assert_eq!(d.positive, d.probability >= 0.5);
        assert_eq!(d.t_queue, Duration::ZERO);
    }

    #[test]
    fn enhancement_arm_is_removable() {
        let mut fw = Framework::untrained_reduced(2);
        assert!(fw.enhancer.take().is_some());
        // still diagnoses
        let vol = test_volume(false);
        let d = fw.diagnose(&vol.hu, 0.5).unwrap();
        assert!((0.0..=1.0).contains(&d.probability));
    }

    #[test]
    fn preprocess_masks_background() {
        let fw = Framework::untrained_reduced(3);
        let vol = test_volume(false);
        let masked = fw.preprocess(&vol.hu).unwrap();
        assert_eq!(masked.dims(), vol.hu.dims());
        // corners (outside body) must be zeroed by the mask
        assert_eq!(masked.at(&[0, 0, 0]), 0.0);
        assert_eq!(masked.at(&[3, 31, 31]), 0.0);
    }

    #[test]
    fn rejects_wrong_rank() {
        let fw = Framework::untrained_reduced(4);
        assert!(fw.diagnose(&Tensor::zeros([32, 32]), 0.5).is_err());
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_single_call() {
        let fw = Framework::untrained_reduced(5);
        let vol = test_volume(true);
        let single = fw.diagnose(&vol.hu, 0.5).unwrap();
        let batch = fw.diagnose_batch(std::slice::from_ref(&vol.hu), 0.5).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].probability.to_bits(), single.probability.to_bits());
        assert_eq!(batch[0].positive, single.positive);
    }

    #[test]
    fn batch_scratch_reuse_does_not_change_bits() {
        let fw = Framework::untrained_reduced(6);
        let vols: Vec<Tensor> =
            (0..3).map(|i| test_volume_seeded(20 + i).hu).collect();
        let batch = fw.diagnose_batch(&vols, 0.5).unwrap();
        assert_eq!(batch.len(), 3);
        // Every study in the batch — including those served from
        // recycled buffers — must match its standalone diagnosis.
        for (vol, b) in vols.iter().zip(&batch) {
            let single = fw.diagnose(vol, 0.5).unwrap();
            assert_eq!(b.probability.to_bits(), single.probability.to_bits());
            assert_eq!(b.positive, single.positive);
        }
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let fw = Framework::untrained_reduced(7);
        let vol = test_volume(true);
        let mut scratch = Scratch::new();
        let enh = fw.run_enhance(&vol.hu, &mut scratch).unwrap();
        let seg = fw.run_segment(enh, &mut scratch).unwrap();
        let _ = fw.run_classify(seg, 0.5, &mut scratch).unwrap();
        // enhance recycles 1 (pre-enhance unit), segment recycles 3
        // (unit, hu_for_seg, mask), classify recycles 1 (masked).
        assert!(scratch.pooled() >= 4, "pooled: {}", scratch.pooled());
    }

    #[test]
    fn capturing_segment_is_bit_identical_and_exposes_the_mask() {
        let fw = Framework::untrained_reduced(9);
        let vol = test_volume(true);
        let mut scratch = Scratch::new();
        let enh = fw.run_enhance(&vol.hu, &mut scratch).unwrap();
        let (seg, capture) = fw.run_segment_capturing(enh, &mut scratch).unwrap();
        assert_eq!(capture.mask.dims(), vol.hu.dims());
        assert_eq!(capture.enhanced_hu.dims(), vol.hu.dims());
        // the mask is binary and nontrivial
        assert!(capture.mask.data().iter().all(|&m| m == 0.0 || m == 1.0));
        assert!(capture.mask.data().iter().sum::<f32>() > 0.0);
        let captured = fw.run_classify(seg, 0.5, &mut scratch).unwrap();
        let direct = fw.diagnose(&vol.hu, 0.5).unwrap();
        assert_eq!(captured.probability.to_bits(), direct.probability.to_bits());
        // recycling the capture restores the plain-path pool accounting
        scratch.recycle(capture.enhanced_hu);
        scratch.recycle(capture.mask);
        assert!(scratch.pooled() >= 4, "pooled: {}", scratch.pooled());
    }

    #[test]
    fn staged_calls_match_diagnose() {
        let fw = Framework::untrained_reduced(8);
        let vol = test_volume(false);
        let mut scratch = Scratch::new();
        let enh = fw.run_enhance(&vol.hu, &mut scratch).unwrap();
        let seg = fw.run_segment(enh, &mut scratch).unwrap();
        let staged = fw.run_classify(seg, 0.5, &mut scratch).unwrap();
        let direct = fw.diagnose(&vol.hu, 0.5).unwrap();
        assert_eq!(staged.probability.to_bits(), direct.probability.to_bits());
    }
}
