//! Classification AI — a 3D densely-connected convolutional classifier
//! (DenseNet-121 adapted for 3D volumes in the paper, §2.3.2; a
//! width/depth-reduced DenseNet here, same topology family).
//!
//! Input: `(B, 1, D, H, W)` normalized volumes. Output: one logit per
//! volume; `sigmoid(logit)` is the COVID-positive probability.

use std::cell::RefCell;

use cc19_nn::checkpoint::Checkpoint;
use cc19_nn::exec::{Exec, Tape};
use cc19_nn::graph::{Graph, Var};
use cc19_nn::init::Init;
use cc19_nn::layers::{BatchNorm, BnForward, Conv3d, Linear};
use cc19_nn::param::ParamStore;
use cc19_nn::plan::{Kernels, Plan};
use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::pool::PoolSpec;
use cc19_tensor::rng::Xorshift;
use cc19_tensor::{Tensor, TensorError};

use crate::Result;

/// Classifier hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassifierConfig {
    /// Stem width.
    pub base: usize,
    /// Dense growth rate.
    pub growth: usize,
    /// Dense layers per block.
    pub per_block: usize,
    /// Number of dense blocks (each followed by transition + pool).
    pub blocks: usize,
    /// Leaky-ReLU slope.
    pub leaky: f32,
}

impl ClassifierConfig {
    /// DenseNet-121-like proportions at reduced width (4 dense blocks, as
    /// in the paper's Figure description).
    pub fn reduced() -> Self {
        ClassifierConfig { base: 8, growth: 8, per_block: 2, blocks: 3, leaky: 0.01 }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        ClassifierConfig { base: 4, growth: 4, per_block: 1, blocks: 2, leaky: 0.01 }
    }
}

struct DenseLayer3d {
    bn_in: BatchNorm,
    conv1: Conv3d,
    bn_mid: BatchNorm,
    conv3: Conv3d,
}

impl DenseLayer3d {
    fn new(store: &mut ParamStore, name: &str, cin: usize, cfg: &ClassifierConfig, rng: &mut Xorshift) -> Self {
        let init = Init::KaimingLeaky { negative_slope: cfg.leaky };
        DenseLayer3d {
            bn_in: BatchNorm::new(store, &format!("{name}.bn_in"), cin),
            conv1: Conv3d::new(
                store,
                &format!("{name}.conv1"),
                cin,
                cfg.growth,
                1,
                Conv2dSpec { stride: 1, padding: 0 },
                init,
                rng,
            ),
            bn_mid: BatchNorm::new(store, &format!("{name}.bn_mid"), cfg.growth),
            conv3: Conv3d::new(
                store,
                &format!("{name}.conv3"),
                cfg.growth,
                cfg.growth,
                3,
                Conv2dSpec { stride: 1, padding: 1 },
                init,
                rng,
            ),
        }
    }

    fn forward<E: Exec>(&self, ex: &mut E, x: E::V, leaky: f32) -> Result<E::V> {
        let h = ex.batch_norm(&self.bn_in, x.clone())?;
        let h = ex.leaky_relu(h, leaky);
        let h = ex.conv3d(&self.conv1, h)?;
        let h = ex.batch_norm(&self.bn_mid, h)?;
        let h = ex.leaky_relu(h, leaky);
        let h = ex.conv3d(&self.conv3, h)?;
        ex.concat(x, h)
    }
}

struct Block3d {
    layers: Vec<DenseLayer3d>,
    transition: Conv3d,
    bn_t: BatchNorm,
}

/// The 3D DenseNet classifier.
pub struct DenseNet3d {
    /// Configuration.
    pub cfg: ClassifierConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    stem: Conv3d,
    bn_stem: BatchNorm,
    blocks: Vec<Block3d>,
    head: Linear,
    /// The inference plan of the last volume shape classified.
    plan: RefCell<Option<Plan>>,
}

impl DenseNet3d {
    /// Build with a seed.
    pub fn new(cfg: ClassifierConfig, seed: u64) -> Self {
        let mut rng = Xorshift::new(seed);
        let mut store = ParamStore::new();
        let init = Init::KaimingLeaky { negative_slope: cfg.leaky };
        let stem = Conv3d::new(
            &mut store,
            "stem",
            1,
            cfg.base,
            3,
            Conv2dSpec { stride: 1, padding: 1 },
            init,
            &mut rng,
        );
        let bn_stem = BatchNorm::new(&mut store, "bn_stem", cfg.base);

        let mut blocks = Vec::new();
        for b in 0..cfg.blocks {
            let layers = (0..cfg.per_block)
                .map(|i| {
                    DenseLayer3d::new(
                        &mut store,
                        &format!("b{b}.l{i}"),
                        cfg.base + i * cfg.growth,
                        &cfg,
                        &mut rng,
                    )
                })
                .collect();
            let cin = cfg.base + cfg.per_block * cfg.growth;
            let transition = Conv3d::new(
                &mut store,
                &format!("b{b}.trans"),
                cin,
                cfg.base,
                1,
                Conv2dSpec { stride: 1, padding: 0 },
                init,
                &mut rng,
            );
            let bn_t = BatchNorm::new(&mut store, &format!("b{b}.bn_t"), cfg.base);
            blocks.push(Block3d { layers, transition, bn_t });
        }
        let head = Linear::new(&mut store, "head", cfg.base, 1, Init::Gaussian(0.05), &mut rng);
        DenseNet3d { cfg, store, stem, bn_stem, blocks, head, plan: RefCell::new(None) }
    }

    /// Forward a `(B, 1, D, H, W)` batch to `(B, 1)` logits, recorded on
    /// the tape (batch statistics when `training`, running ones otherwise).
    pub fn forward(&self, g: &mut Graph, x: Var, training: bool) -> Result<Var> {
        self.check_input(g.value(x).dims())?;
        let bn = if training { BnForward::Train } else { BnForward::RunningEval };
        self.run(&mut Tape { g, bn }, x)
    }

    /// The classifier takes `(B, 1, D, H, W)` with every extent at least
    /// `2^blocks` (one ×2 pooling per block).
    fn check_input(&self, dims: &[usize]) -> Result<()> {
        if dims.len() != 5 || dims[1] != 1 {
            return Err(TensorError::Incompatible(format!(
                "classifier expects (B,1,D,H,W), got {dims:?}"
            )));
        }
        let min_extent = 1usize << self.cfg.blocks;
        if dims[2..].iter().any(|&e| e < min_extent) {
            return Err(TensorError::Incompatible(format!(
                "volume {dims:?} too small for {} pooling stages",
                self.cfg.blocks
            )));
        }
        Ok(())
    }

    /// The network, written once for both executors: the tape and the
    /// plan recorder (`cc19_nn::exec`).
    fn run<E: Exec>(&self, ex: &mut E, x: E::V) -> Result<E::V> {
        let leaky = self.cfg.leaky;
        let pool = PoolSpec { kernel: 2, stride: 2, padding: 0 };

        let mut h = ex.conv3d(&self.stem, x)?;
        h = ex.batch_norm(&self.bn_stem, h)?;
        h = ex.leaky_relu(h, leaky);

        for b in &self.blocks {
            h = ex.max_pool3d(h, pool)?;
            for l in &b.layers {
                h = l.forward(ex, h, leaky)?;
            }
            h = ex.conv3d(&b.transition, h)?;
            h = ex.batch_norm(&b.bn_t, h)?;
            h = ex.leaky_relu(h, leaky);
        }
        let pooled = ex.global_avg_pool(h)?; // (B, base)
        ex.linear(&self.head, pooled)
    }

    /// COVID-positive probability for one `(D, H, W)` normalized volume:
    /// the inference plan cached for the volume's shape, with running
    /// batch-norm statistics, whose 3D convolutions run the kernel
    /// ladder's microkernel (`cc19_nn::exec::conv3d_taps`).
    pub fn predict_proba(&self, volume: &Tensor) -> Result<f64> {
        let z = self.logit(volume)? as f64;
        Ok(1.0 / (1.0 + (-z).exp()))
    }

    /// The logit behind [`DenseNet3d::predict_proba`], run as a
    /// `(1, 1, D, H, W)` batch.
    fn logit(&self, volume: &Tensor) -> Result<f32> {
        volume.shape().expect_rank(3)?;
        let d = volume.dims();
        let dims = [1, 1, d[0], d[1], d[2]];
        self.check_input(&dims)?;
        let mut cache = self.plan.borrow_mut();
        let compile = || Plan::compile(&dims, Kernels::Served, BnForward::RunningEval, |rec, x| self.run(rec, x));
        Ok(Plan::cached(&mut cache, &dims, Kernels::Served, compile)?.run(volume.data())?.data()[0])
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.store.num_scalars()
    }

    /// All batch-norm layers in a fixed order (checkpoint layout).
    fn batch_norms(&self) -> Vec<&BatchNorm> {
        let mut bns: Vec<&BatchNorm> = vec![&self.bn_stem];
        for b in &self.blocks {
            for l in &b.layers {
                bns.push(&l.bn_in);
                bns.push(&l.bn_mid);
            }
            bns.push(&b.bn_t);
        }
        bns
    }

    fn config_fingerprint(&self) -> Vec<f32> {
        vec![
            self.cfg.base as f32,
            self.cfg.growth as f32,
            self.cfg.per_block as f32,
            self.cfg.blocks as f32,
        ]
    }

    /// Save weights + batch-norm running statistics.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.to_checkpoint().save(path)
    }

    /// The classifier's full state (config fingerprint, parameters,
    /// batch-norm running stats) as an in-memory checkpoint — what
    /// [`DenseNet3d::save`] writes to disk, also the weight-identity
    /// input of the monitoring layer's content-addressed study cache.
    pub fn to_checkpoint(&self) -> Checkpoint {
        Checkpoint::of_network("classifier", self.config_fingerprint(), &self.store, &self.batch_norms())
    }

    /// Restore a checkpoint produced by [`DenseNet3d::to_checkpoint`] on a
    /// structurally identical network. A rejected checkpoint changes
    /// nothing.
    pub fn load_checkpoint(&self, ck: &Checkpoint) -> std::io::Result<()> {
        ck.load_network("classifier", &self.config_fingerprint(), &self.store, &self.batch_norms())
    }

    /// Load a checkpoint written by [`DenseNet3d::save`] into this
    /// (structurally identical) network.
    pub fn load(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.load_checkpoint(&Checkpoint::load(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape() {
        let net = DenseNet3d::new(ClassifierConfig::tiny(), 1);
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([2, 1, 8, 16, 16]));
        let y = net.forward(&mut g, x, false).unwrap();
        assert_eq!(g.value(y).dims(), &[2, 1]);
    }

    #[test]
    fn rejects_bad_shapes() {
        let net = DenseNet3d::new(ClassifierConfig::tiny(), 2);
        let mut g = Graph::new();
        let rank4 = g.input(Tensor::zeros([1, 8, 16, 16]));
        assert!(net.forward(&mut g, rank4, false).is_err());
        let too_small = g.input(Tensor::zeros([1, 1, 2, 16, 16]));
        assert!(net.forward(&mut g, too_small, false).is_err());
    }

    /// `cfg` at `seed` with every weight nudged by +0.01 and running
    /// statistics warmed by one training forward, so eval mode is neither
    /// the init nor the default statistics.
    fn nudged(cfg: ClassifierConfig, seed: u64) -> DenseNet3d {
        let net = DenseNet3d::new(cfg, seed);
        for p in net.store.params() {
            for v in p.borrow_mut().value.data_mut() {
                *v += 0.01;
            }
        }
        let mut g = Graph::new();
        let x = g.input(Xorshift::new(seed ^ 0x5EED).uniform_tensor([1, 1, 8, 16, 16], 0.0, 1.0));
        net.forward(&mut g, x, true).unwrap();
        net
    }

    #[test]
    fn evaluator_matches_the_tape_forward() {
        let shapes = [[4usize, 112, 112], [4, 32, 32], [4, 16, 16], [5, 17, 23], [8, 32, 32], [9, 17, 23]];
        for (name, cfg) in [("tiny", ClassifierConfig::tiny()), ("reduced", ClassifierConfig::reduced())] {
            let net = nudged(cfg, 41);
            let mut rng = Xorshift::new(42);
            let mut compared = 0;
            for [d, h, w] in shapes {
                let vol = rng.uniform_tensor([d, h, w], 0.0, 1.0);
                let mut g = Graph::new();
                let x = g.input(vol.reshape([1, 1, d, h, w]).unwrap());
                let tape = net.forward(&mut g, x, false).map(|y| g.value(y).data()[0]);
                match (tape, net.logit(&vol)) {
                    (Ok(want), Ok(got)) => {
                        assert!((got - want).abs() <= 1e-5, "{name} {d}x{h}x{w}: {got} vs tape {want}");
                        compared += 1;
                    }
                    (Err(TensorError::Incompatible(_)), Err(TensorError::Incompatible(m))) => {
                        assert!(m.contains("too small"), "{name} {d}x{h}x{w}: {m}");
                    }
                    (tape, eval) => panic!("{name} {d}x{h}x{w}: tape {tape:?}, evaluator {eval:?}"),
                }
            }
            assert!(compared >= 2, "{name}: only {compared} shapes fit");
        }
    }

    #[test]
    fn predict_proba_rejects_bad_volumes_with_typed_errors() {
        let net = nudged(ClassifierConfig::tiny(), 43);
        let rank = |r: Result<f64>| matches!(r, Err(TensorError::RankMismatch { .. }));
        let small = |r: Result<f64>| matches!(r, Err(TensorError::Incompatible(m)) if m.contains("too small"));
        assert!(rank(net.predict_proba(&Tensor::zeros([16, 16]))));
        assert!(rank(net.predict_proba(&Tensor::zeros([1, 4, 16, 16]))));
        assert!(small(net.predict_proba(&Tensor::zeros([3, 16, 16]))));
        assert!(small(net.predict_proba(&Tensor::zeros([4, 16, 2]))));
    }

    /// `net`'s checkpoint with `edit` applied, written where `load` reads.
    fn edited_checkpoint(net: &DenseNet3d, file: &str, edit: impl Fn(&mut Checkpoint)) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cc19_cls_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let mut ck = net.to_checkpoint();
        edit(&mut ck);
        let path = dir.join(file);
        ck.save(&path).unwrap();
        path
    }

    #[test]
    fn a_failed_load_changes_nothing() {
        let (net, donor) = (nudged(ClassifierConfig::tiny(), 44), nudged(ClassifierConfig::tiny(), 45));
        let vol = Xorshift::new(46).uniform_tensor([4, 16, 16], 0.0, 1.0);
        let before = net.predict_proba(&vol).unwrap();
        let path = edited_checkpoint(&donor, "missing_var.ckpt", |ck| {
            ck.sections.retain(|(n, _)| n != "classifier.bn3.var");
        });
        assert!(net.load(&path).is_err());
        let after = net.predict_proba(&vol).unwrap();
        assert_eq!(after.to_bits(), before.to_bits(), "a rejected checkpoint must not half-apply");
        assert_ne!(donor.predict_proba(&vol).unwrap(), before, "the donor must differ");
    }

    #[test]
    fn wrong_length_statistics_are_rejected_at_load() {
        let (net, donor) = (nudged(ClassifierConfig::tiny(), 47), nudged(ClassifierConfig::tiny(), 48));
        let vol = Xorshift::new(49).uniform_tensor([4, 16, 16], 0.0, 1.0);
        let before = net.predict_proba(&vol).unwrap();
        let path = edited_checkpoint(&donor, "short_mean.ckpt", |ck| {
            let (_, mean) = ck.sections.iter_mut().find(|(n, _)| n == "classifier.bn3.mean").unwrap();
            mean.pop();
        });
        assert!(net.load(&path).is_err(), "a short statistic must be rejected at load");
        assert_eq!(net.predict_proba(&vol).unwrap().to_bits(), before.to_bits());
    }

    #[test]
    fn proba_in_unit_interval() {
        let net = DenseNet3d::new(ClassifierConfig::tiny(), 3);
        let mut rng = Xorshift::new(4);
        let vol = rng.uniform_tensor([8, 16, 16], 0.0, 1.0);
        let p = net.predict_proba(&vol).unwrap();
        assert!((0.0..=1.0).contains(&p), "p {p}");
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let net = DenseNet3d::new(ClassifierConfig::tiny(), 5);
        let mut rng = Xorshift::new(6);
        let x = rng.uniform_tensor([2, 1, 8, 8, 8], 0.0, 1.0);
        let y = Tensor::from_vec([2, 1], vec![1.0, 0.0]).unwrap();
        let mut g = Graph::new();
        let xv = g.input(x);
        let yv = g.input(y);
        let logit = net.forward(&mut g, xv, true).unwrap();
        let loss = g.bce_with_logits_loss(logit, yv).unwrap();
        net.store.zero_grad();
        g.backward(loss);
        for p in net.store.params() {
            let p = p.borrow();
            assert!(p.grad.is_some(), "no grad for {}", p.name);
        }
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join("cc19_cls_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cls.ckpt");
        let net = DenseNet3d::new(ClassifierConfig::tiny(), 31);
        let mut rng = Xorshift::new(32);
        let vol = rng.uniform_tensor([8, 16, 16], 0.0, 1.0);
        // warm the BN stats
        {
            let mut g = Graph::new();
            let x = g.input(vol.reshape([1, 1, 8, 16, 16]).unwrap());
            net.forward(&mut g, x, true).unwrap();
        }
        let p_before = net.predict_proba(&vol).unwrap();
        net.save(&path).unwrap();
        let other = DenseNet3d::new(ClassifierConfig::tiny(), 777);
        other.load(&path).unwrap();
        let p_after = other.predict_proba(&vol).unwrap();
        assert!((p_before - p_after).abs() < 1e-9, "{p_before} vs {p_after}");
        // config mismatch rejected
        let wrong = DenseNet3d::new(ClassifierConfig::reduced(), 1);
        assert!(wrong.load(&path).is_err());
    }

    #[test]
    fn learns_blob_presence() {
        // Volumes with a bright blob vs without: the classifier should
        // separate them after a few steps.
        let net = DenseNet3d::new(ClassifierConfig::tiny(), 7);
        let mut opt = cc19_nn::optim::Adam::new(1e-2);
        let make = |seed: u64, blob: bool| {
            let mut rng = Xorshift::new(seed);
            let mut v = rng.uniform_tensor([8, 16, 16], 0.0, 0.3);
            if blob {
                for z in 3..5 {
                    for y in 6..10 {
                        for x in 6..10 {
                            v.set(&[z, y, x], 0.9);
                        }
                    }
                }
            }
            v
        };
        let mut last_loss = f32::INFINITY;
        for step in 0..60 {
            let pos = make(step as u64 * 2, true);
            let neg = make(step as u64 * 2 + 1, false);
            let mut batch = Tensor::zeros([2, 1, 8, 16, 16]);
            batch.data_mut()[..2048].copy_from_slice(pos.data());
            batch.data_mut()[2048..].copy_from_slice(neg.data());
            let labels = Tensor::from_vec([2, 1], vec![1.0, 0.0]).unwrap();
            let mut g = Graph::new();
            let xv = g.input(batch);
            let yv = g.input(labels);
            let logit = net.forward(&mut g, xv, true).unwrap();
            let loss = g.bce_with_logits_loss(logit, yv).unwrap();
            last_loss = g.value(loss).item().unwrap();
            net.store.zero_grad();
            g.backward(loss);
            opt.step(&net.store);
        }
        assert!(last_loss < 0.5, "loss {last_loss}");
        let p_pos = net.predict_proba(&make(1000, true)).unwrap();
        let p_neg = net.predict_proba(&make(1001, false)).unwrap();
        assert!(p_pos > p_neg, "pos {p_pos} neg {p_neg}");
    }
}
