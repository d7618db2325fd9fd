//! Enhancement-AI training loop (§3.1.1 of the paper).
//!
//! Loss: `MSE + 0.1 * (1 - MS-SSIM)` (Eq 1). Optimizer: Adam, lr 1e-4,
//! exponentially decayed ×0.8 per epoch. The paper trains one image per
//! batch for 50 epochs; batch size is configurable here because Table 3
//! studies its effect on accuracy.

use cc19_data::dataset::batch_pairs;
use cc19_data::lowdose_pairs::EnhancementPair;
use cc19_nn::graph::Graph;
use cc19_nn::losses::enhancement_loss;
use cc19_nn::optim::Adam;
use cc19_nn::ssim;
use cc19_tensor::Tensor;

use crate::model::Ddnet;
use crate::Result;

/// Training configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs (paper: 50).
    pub epochs: usize,
    /// Initial learning rate (paper: 1e-4).
    pub lr: f32,
    /// Per-epoch exponential decay (paper: 0.8).
    pub lr_decay: f32,
    /// Images per batch (paper: 1).
    pub batch_size: usize,
    /// MS-SSIM pyramid depth in the loss (5 at 512², fewer when scaled).
    pub ms_ssim_levels: usize,
    /// Global gradient-norm clip (stabilizes the small-batch scaled runs;
    /// `None` disables).
    pub grad_clip: Option<f32>,
}

impl TrainConfig {
    /// The paper's §3.1.1 settings.
    pub fn paper() -> Self {
        TrainConfig {
            epochs: 50,
            lr: 1e-4,
            lr_decay: 0.8,
            batch_size: 1,
            ms_ssim_levels: 5,
            grad_clip: None,
        }
    }

    /// A quick configuration for scaled experiments.
    pub fn quick(epochs: usize) -> Self {
        TrainConfig {
            epochs,
            lr: 1e-3,
            lr_decay: 0.9,
            batch_size: 1,
            ms_ssim_levels: 1,
            grad_clip: Some(1.0),
        }
    }
}

/// Per-epoch record (feeds Fig 11a and Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index, 1-based.
    pub epoch: usize,
    /// Mean training loss.
    pub train_loss: f64,
    /// Mean validation loss.
    pub val_loss: f64,
    /// Mean validation MS-SSIM (percent, as the paper reports it).
    pub val_ms_ssim: f64,
    /// Wall-clock seconds spent in this epoch.
    pub seconds: f64,
}

/// Enhancement quality metrics (Table 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnhancementMetrics {
    /// Mean squared error.
    pub mse: f64,
    /// Mean MS-SSIM in `[0, 1]`.
    pub ms_ssim: f64,
}

/// Train the network on the given pairs. Returns per-epoch statistics.
pub fn train_enhancement(
    net: &Ddnet,
    train: &[EnhancementPair],
    val: &[EnhancementPair],
    cfg: TrainConfig,
) -> Result<Vec<EpochStats>> {
    assert!(!train.is_empty(), "empty training set");
    let mut opt = Adam::new(cfg.lr);
    let mut stats = Vec::with_capacity(cfg.epochs);

    // Per-step / per-epoch observability (DESIGN.md §12). All timing
    // goes through the registry clock so deterministic runs stay
    // deterministic; gauges hold the most recent step's values.
    let reg = cc19_obs::global();
    let clock = reg.clock();
    let m_loss = reg.gauge("ddnet_step_loss");
    let m_grad = reg.gauge("ddnet_grad_norm");
    let m_lr = reg.gauge("ddnet_lr");
    let m_step_s = reg.histogram("ddnet_step_seconds");
    let m_epoch_s = reg.histogram("ddnet_epoch_seconds");
    let m_steps = reg.counter("ddnet_steps_total");
    let m_skipped = reg.counter("ddnet_steps_skipped_total");
    m_lr.set(cfg.lr as f64);

    for epoch in 1..=cfg.epochs {
        let t0 = clock.now_ns();
        let mut loss_acc = 0.0f64;
        let mut batches = 0usize;
        for chunk in train.chunks(cfg.batch_size) {
            let step_t0 = clock.now_ns();
            let (low, full) = batch_pairs(chunk)?;
            let mut g = Graph::new();
            let x = g.input(low);
            let t = g.input(full);
            let y = net.forward(&mut g, x, true)?;
            let loss = enhancement_loss(&mut g, y, t, cfg.ms_ssim_levels)?;
            let loss_val = g.value(loss).item()? as f64;
            loss_acc += loss_val;
            batches += 1;
            net.store.zero_grad();
            g.backward(loss);
            let grad_norm = match cfg.grad_clip {
                Some(clip) => net.store.clip_grad_norm(clip),
                None => net.store.grad_norm(),
            };
            m_loss.set(loss_val);
            m_grad.set(grad_norm as f64);
            // Non-finite guard: a NaN/Inf loss or gradient would poison
            // the weights permanently, so drop the step instead.
            let skipped = !loss_val.is_finite() || !net.store.grads_all_finite();
            if skipped {
                net.store.zero_grad();
                m_skipped.inc();
            } else {
                opt.step(&net.store);
                m_steps.inc();
            }
            m_step_s.observe(clock.now_ns().saturating_sub(step_t0) as f64 / 1e9);
        }
        opt.decay_lr(cfg.lr_decay);
        m_lr.set(opt.lr as f64);

        let (val_loss, val_ms) = validate(net, val, cfg)?;
        let seconds = clock.now_ns().saturating_sub(t0) as f64 / 1e9;
        m_epoch_s.observe(seconds);
        stats.push(EpochStats {
            epoch,
            train_loss: loss_acc / batches.max(1) as f64,
            val_loss,
            val_ms_ssim: val_ms * 100.0,
            seconds,
        });
    }
    Ok(stats)
}

fn validate(net: &Ddnet, val: &[EnhancementPair], cfg: TrainConfig) -> Result<(f64, f64)> {
    if val.is_empty() {
        return Ok((0.0, 0.0));
    }
    let mut loss_acc = 0.0f64;
    let mut ms_acc = 0.0f64;
    for p in val {
        let (h, w) = (p.low.dims()[0], p.low.dims()[1]);
        let low = p.low.reshape([1, 1, h, w])?;
        let full = p.full.reshape([1, 1, h, w])?;
        let mut g = Graph::new();
        let x = g.input(low);
        let t = g.input(full);
        let y = net.forward(&mut g, x, false)?;
        let loss = enhancement_loss(&mut g, y, t, cfg.ms_ssim_levels)?;
        loss_acc += g.value(loss).item()? as f64;
        let levels = ssim::max_levels(h, w).clamp(1, 5);
        ms_acc += ssim::ms_ssim(g.value(y), g.value(t), levels, 1.0)?;
    }
    Ok((loss_acc / val.len() as f64, ms_acc / val.len() as f64))
}

/// Evaluate enhancement quality over pairs: returns metrics for the raw
/// low-dose images (`Y-X` row of Table 8) and for the enhanced images
/// (`Y-f(X)` row).
pub fn evaluate_pairs(net: &Ddnet, pairs: &[EnhancementPair]) -> Result<(EnhancementMetrics, EnhancementMetrics)> {
    assert!(!pairs.is_empty());
    let mut mse_raw = 0.0f64;
    let mut ms_raw = 0.0f64;
    let mut mse_enh = 0.0f64;
    let mut ms_enh = 0.0f64;
    for p in pairs {
        let (h, w) = (p.low.dims()[0], p.low.dims()[1]);
        let levels = ssim::max_levels(h, w).clamp(1, 5);
        let enhanced = net.enhance(&p.low)?;
        mse_raw += cc19_tensor::reduce::mse(&p.full, &p.low)?;
        mse_enh += cc19_tensor::reduce::mse(&p.full, &enhanced)?;
        ms_raw += ssim::ms_ssim_image(&p.full, &p.low, 1.0).or_else(|_| {
            // image too small for the window: fall back to batched form
            let a = p.full.reshape([1, 1, h, w])?;
            let b = p.low.reshape([1, 1, h, w])?;
            ssim::ms_ssim(&a, &b, levels, 1.0)
        })?;
        ms_enh += ssim::ms_ssim_image(&p.full, &enhanced, 1.0).or_else(|_| {
            let a = p.full.reshape([1, 1, h, w])?;
            let b = enhanced.reshape([1, 1, h, w])?;
            ssim::ms_ssim(&a, &b, levels, 1.0)
        })?;
    }
    let n = pairs.len() as f64;
    Ok((
        EnhancementMetrics { mse: mse_raw / n, ms_ssim: ms_raw / n },
        EnhancementMetrics { mse: mse_enh / n, ms_ssim: ms_enh / n },
    ))
}

/// Apply the network slice-by-slice to a `(D, H, W)` volume in `[0,1]`.
pub fn enhance_volume(net: &Ddnet, volume: &Tensor) -> Result<Tensor> {
    let mut out = Tensor::zeros(volume.shape().clone());
    enhance_volume_into(net, volume, &mut out)?;
    Ok(out)
}

/// [`enhance_volume`] into an existing same-shape tensor, reusing one
/// slice staging buffer across slices. Bit-identical to the allocating
/// form (same per-slice forward); this is the buffer-reuse hook the
/// batch-serving path threads through `Scratch`.
pub fn enhance_volume_into(net: &Ddnet, volume: &Tensor, out: &mut Tensor) -> Result<()> {
    volume.shape().expect_rank(3)?;
    volume.shape().expect_same(out.shape())?;
    let (d, h, w) = (volume.dims()[0], volume.dims()[1], volume.dims()[2]);
    let plane = h * w;
    let mut stage = vec![0.0f32; plane];
    for s in 0..d {
        stage.copy_from_slice(&volume.data()[s * plane..(s + 1) * plane]);
        let slice = Tensor::from_vec([h, w], stage)?;
        let enh = net.enhance(&slice)?;
        out.data_mut()[s * plane..(s + 1) * plane].copy_from_slice(enh.data());
        stage = slice.into_vec();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::tests::nudged;
    use crate::model::DdnetConfig;
    use cc19_data::lowdose_pairs::{make_pair, PairConfig};
    use cc19_data::sources::{DataSource, Modality, ScanMeta};
    use cc19_ctsim::phantom::Severity;

    fn pairs(n_pairs: usize, n: usize) -> Vec<EnhancementPair> {
        (0..n_pairs)
            .map(|i| {
                let meta = ScanMeta {
                    id: 100 + i as u64,
                    source: DataSource::Bimcv,
                    modality: Modality::Ct,
                    positive: i % 2 == 0,
                    severity: if i % 2 == 0 { Some(Severity::Moderate) } else { None },
                    slices: 16,
                    circular_artifact: false,
                    has_projections: false,
                };
                make_pair(&meta, 0.5, PairConfig::reduced(n, 7 + i as u64)).unwrap()
            })
            .collect()
    }

    #[test]
    fn training_reduces_loss_and_improves_quality() {
        let train = pairs(6, 32);
        let val = pairs(2, 32);
        let net = Ddnet::new(DdnetConfig::tiny(), 42);
        let cfg = TrainConfig {
            epochs: 4,
            lr: 2e-3,
            lr_decay: 0.9,
            batch_size: 2,
            ms_ssim_levels: 1,
            grad_clip: Some(1.0),
        };

        let (raw0, enh0) = evaluate_pairs(&net, &val).unwrap();
        let stats = train_enhancement(&net, &train, &val, cfg).unwrap();
        assert_eq!(stats.len(), 4);
        assert!(
            stats.last().unwrap().train_loss < stats[0].train_loss,
            "loss should fall: {:?}",
            stats.iter().map(|s| s.train_loss).collect::<Vec<_>>()
        );
        let (raw1, enh1) = evaluate_pairs(&net, &val).unwrap();
        // raw metrics don't depend on the net
        assert!((raw0.mse - raw1.mse).abs() < 1e-12);
        // after training, enhancement should beat its own starting point
        assert!(enh1.mse <= enh0.mse * 1.05, "enhanced mse {} vs initial {}", enh1.mse, enh0.mse);
    }

    #[test]
    fn epoch_stats_record_time_and_msssim() {
        let train = pairs(2, 32);
        let val = pairs(1, 32);
        let net = Ddnet::new(DdnetConfig::tiny(), 1);
        let stats =
            train_enhancement(&net, &train, &val, TrainConfig::quick(1)).unwrap();
        assert_eq!(stats[0].epoch, 1);
        assert!(stats[0].seconds > 0.0);
        assert!(stats[0].val_ms_ssim > 0.0 && stats[0].val_ms_ssim <= 100.0);
    }

    #[test]
    fn enhance_volume_processes_all_slices() {
        let net = nudged(DdnetConfig::tiny(), 2);
        let mut rng = cc19_tensor::rng::Xorshift::new(3);
        let vol = rng.uniform_tensor([3, 32, 32], 0.0, 1.0);
        let out = enhance_volume(&net, &vol).unwrap();
        assert_eq!(out.dims(), &[3, 32, 32]);
        // each slice is bit-identical to individual enhancement
        for s in 0..3 {
            let slice = Tensor::from_vec([32, 32], vol.data()[s * 1024..(s + 1) * 1024].to_vec()).unwrap();
            let e = net.enhance(&slice).unwrap();
            assert!(!e.all_close(&slice, 1e-3), "nudged net must not be the identity");
            assert_eq!(&out.data()[s * 1024..(s + 1) * 1024], e.data(), "slice {s}");
        }
    }

    #[test]
    fn enhance_volume_into_matches_allocating_form() {
        let net = Ddnet::new(DdnetConfig::tiny(), 4);
        let mut rng = cc19_tensor::rng::Xorshift::new(5);
        let vol = rng.uniform_tensor([4, 16, 16], 0.0, 1.0);
        let fresh = enhance_volume(&net, &vol).unwrap();
        // A dirty reused buffer must be fully overwritten.
        let mut reused = Tensor::full([4, 16, 16], f32::NAN);
        enhance_volume_into(&net, &vol, &mut reused).unwrap();
        assert_eq!(fresh.data(), reused.data());
    }
}
