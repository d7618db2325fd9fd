//! The DDnet model definition (paper Table 2 / Figs 6–7).

use std::cell::RefCell;

use cc19_kernels::OptLevel;
use cc19_nn::checkpoint::Checkpoint;
use cc19_nn::exec::{Exec, Tape};
use cc19_nn::graph::{Graph, Var};
use cc19_nn::init::Init;
use cc19_nn::layers::{BatchNorm, BnForward, Conv2d, ConvTranspose2d};
use cc19_nn::param::ParamStore;
use cc19_nn::plan::{Kernels, Plan};
use cc19_tensor::conv::Conv2dSpec;
use cc19_tensor::pool::PoolSpec;
use cc19_tensor::rng::Xorshift;
use cc19_tensor::{Tensor, TensorError};

use crate::timed::KernelTimes;
use crate::Result;

/// DDnet hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdnetConfig {
    /// Stem / transition channel width (paper: 16).
    pub base: usize,
    /// Dense-block growth rate (paper: 16 — block output = base + 4×growth
    /// = 80).
    pub growth: usize,
    /// Densely-connected layers per block (paper: 4).
    pub per_block: usize,
    /// Leaky-ReLU negative slope.
    pub leaky: f32,
    /// Add the input back onto the network output (residual enhancement).
    /// The paper's network regresses the image directly; with the paper's
    /// tiny `N(0, 0.01)` init and our reduced epoch budget the residual
    /// form reaches the same quality orders of magnitude faster, so it is
    /// the default for scaled runs (recorded in EXPERIMENTS.md).
    pub residual: bool,
    /// Weight init scheme.
    pub init: Init,
    /// Disable the encoder→decoder global shortcut concatenations
    /// (ablation of §2.2.3; `false` = paper network).
    pub no_global_shortcuts: bool,
    /// Zero-initialize the final 1×1 deconvolution so the residual network
    /// starts exactly at the identity map ("zero-init residual"). Without
    /// this, batch norm makes the untrained decoder emit O(1) noise and
    /// short scaled training runs spend their whole budget suppressing it.
    pub zero_init_last: bool,
    /// Use the current input's statistics in batch-norm layers at
    /// inference (instance-norm behaviour) instead of running averages.
    /// With batch-size-1 training at small resolutions the running
    /// statistics are too noisy and eval-mode outputs drift or blow up —
    /// the standard practice for restoration networks is instance
    /// statistics (recorded in EXPERIMENTS.md).
    pub instance_norm_eval: bool,
}

impl DdnetConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        DdnetConfig {
            base: 16,
            growth: 16,
            per_block: 4,
            leaky: 0.01,
            residual: false,
            init: Init::PaperGaussian,
            no_global_shortcuts: false,
            zero_init_last: false,
            instance_norm_eval: false,
        }
    }

    /// Reduced configuration for CPU-scale training.
    pub fn reduced() -> Self {
        DdnetConfig {
            base: 8,
            growth: 8,
            per_block: 4,
            leaky: 0.01,
            residual: true,
            init: Init::KaimingLeaky { negative_slope: 0.01 },
            no_global_shortcuts: false,
            zero_init_last: true,
            instance_norm_eval: true,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn tiny() -> Self {
        DdnetConfig {
            base: 4,
            growth: 4,
            per_block: 2,
            leaky: 0.01,
            residual: true,
            init: Init::KaimingLeaky { negative_slope: 0.01 },
            no_global_shortcuts: false,
            zero_init_last: true,
            instance_norm_eval: true,
        }
    }

    /// Channels out of a dense block.
    pub fn block_out(&self) -> usize {
        self.base + self.per_block * self.growth
    }
}

/// One densely-connected layer: BN → LeakyReLU → 1×1 conv → BN → LeakyReLU
/// → 5×5 conv, output concatenated onto the input (the *local shortcut*).
struct DenseLayer {
    bn_in: BatchNorm,
    conv1: Conv2d,
    bn_mid: BatchNorm,
    conv5: Conv2d,
}

impl DenseLayer {
    fn new(store: &mut ParamStore, name: &str, cin: usize, cfg: &DdnetConfig, rng: &mut Xorshift) -> Self {
        DenseLayer {
            bn_in: BatchNorm::new(store, &format!("{name}.bn_in"), cin),
            conv1: Conv2d::new(
                store,
                &format!("{name}.conv1"),
                cin,
                cfg.growth,
                1,
                Conv2dSpec { stride: 1, padding: 0 },
                cfg.init,
                rng,
            ),
            bn_mid: BatchNorm::new(store, &format!("{name}.bn_mid"), cfg.growth),
            conv5: Conv2d::new(
                store,
                &format!("{name}.conv5"),
                cfg.growth,
                cfg.growth,
                5,
                Conv2dSpec { stride: 1, padding: 2 },
                cfg.init,
                rng,
            ),
        }
    }

    fn forward<E: Exec>(&self, ex: &mut E, x: E::V, leaky: f32) -> Result<E::V> {
        let h = ex.batch_norm(&self.bn_in, x.clone())?;
        let h = ex.leaky_relu(h, leaky);
        let h = ex.conv(&self.conv1, h)?;
        let h = ex.batch_norm(&self.bn_mid, h)?;
        let h = ex.leaky_relu(h, leaky);
        let h = ex.conv(&self.conv5, h)?;
        ex.concat(x, h)
    }
}

/// A dense block of [`DenseLayer`]s.
struct DenseBlock {
    layers: Vec<DenseLayer>,
}

impl DenseBlock {
    fn new(store: &mut ParamStore, name: &str, cin: usize, cfg: &DdnetConfig, rng: &mut Xorshift) -> Self {
        let layers = (0..cfg.per_block)
            .map(|i| DenseLayer::new(store, &format!("{name}.l{i}"), cin + i * cfg.growth, cfg, rng))
            .collect();
        DenseBlock { layers }
    }

    fn forward<E: Exec>(&self, ex: &mut E, mut x: E::V, leaky: f32) -> Result<E::V> {
        for l in &self.layers {
            x = l.forward(ex, x, leaky)?;
        }
        Ok(x)
    }
}

/// One decoder stage: un-pool ×2, concat encoder skip, 5×5 deconv, 1×1
/// deconv.
struct DecoderStage {
    deconv5: ConvTranspose2d,
    bn5: BatchNorm,
    deconv1: ConvTranspose2d,
    /// Final stage has no BN/activation after the 1×1 (it produces the
    /// image).
    bn1: Option<BatchNorm>,
}

impl DecoderStage {
    /// `skip` is the encoder feature map of matching resolution (`None`
    /// when the global shortcuts are ablated).
    fn forward<E: Exec>(&self, ex: &mut E, h: E::V, skip: Option<E::V>, leaky: f32) -> Result<E::V> {
        let h = ex.upsample(h, 2)?;
        let d = ex.deconv(&self.deconv5, h)?;
        let d = ex.batch_norm(&self.bn5, d)?;
        let d = ex.leaky_relu(d, leaky);
        let cat = match skip {
            Some(skip) => ex.concat(d, skip)?,
            None => d,
        };
        let d = ex.deconv(&self.deconv1, cat)?;
        match &self.bn1 {
            Some(bn) => {
                let d = ex.batch_norm(bn, d)?;
                Ok(ex.leaky_relu(d, leaky))
            }
            None => Ok(d),
        }
    }
}

/// DDnet takes `(B, 1, H, W)` with `H` and `W` divisible by 16 (four
/// ×2 poolings).
fn check_input(dims: &[usize]) -> Result<()> {
    if dims.len() != 4 || dims[1] != 1 {
        return Err(TensorError::Incompatible(format!("DDnet expects (B,1,H,W), got {dims:?}")));
    }
    if !dims[2].is_multiple_of(16) || !dims[3].is_multiple_of(16) {
        return Err(TensorError::Incompatible(format!(
            "DDnet input extents must be divisible by 16, got {}x{}",
            dims[2], dims[3]
        )));
    }
    Ok(())
}

/// The `(1, 1, H, W)` batch shape of an `(H, W)` slice DDnet takes.
fn slice_dims(img: &Tensor) -> Result<[usize; 4]> {
    img.shape().expect_rank(2)?;
    let dims = [1, 1, img.dims()[0], img.dims()[1]];
    check_input(&dims)?;
    Ok(dims)
}

/// The DDnet network.
pub struct Ddnet {
    /// Configuration this instance was built with.
    pub cfg: DdnetConfig,
    /// All trainable parameters.
    pub store: ParamStore,
    conv_stem: Conv2d,
    bn_stem: BatchNorm,
    blocks: Vec<DenseBlock>,
    transitions: Vec<Conv2d>,
    bn_transitions: Vec<BatchNorm>,
    decoder: Vec<DecoderStage>,
    /// The served inference plan of the last slice shape enhanced.
    plan: RefCell<Option<Plan>>,
    /// The ladder plan of the last slice shape and level timed.
    timed_plan: RefCell<Option<Plan>>,
}

/// A row of the architecture audit table (compare with paper Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerRow {
    /// Layer name as in the paper's Table 2.
    pub layer: String,
    /// Output size `H×W×C`.
    pub output: (usize, usize, usize),
    /// Filter description.
    pub detail: String,
}

impl Ddnet {
    /// Build with the given config and RNG seed.
    pub fn new(cfg: DdnetConfig, seed: u64) -> Self {
        let mut rng = Xorshift::new(seed);
        let mut store = ParamStore::new();
        let stem_spec = Conv2dSpec { stride: 1, padding: 3 };
        let conv_stem =
            Conv2d::new(&mut store, "conv1", 1, cfg.base, 7, stem_spec, cfg.init, &mut rng);
        let bn_stem = BatchNorm::new(&mut store, "bn1", cfg.base);

        let mut blocks = Vec::new();
        let mut transitions = Vec::new();
        let mut bn_transitions = Vec::new();
        for b in 0..4 {
            blocks.push(DenseBlock::new(&mut store, &format!("db{}", b + 1), cfg.base, &cfg, &mut rng));
            transitions.push(Conv2d::new(
                &mut store,
                &format!("conv{}", b + 2),
                cfg.block_out(),
                cfg.base,
                1,
                Conv2dSpec { stride: 1, padding: 0 },
                cfg.init,
                &mut rng,
            ));
            bn_transitions.push(BatchNorm::new(&mut store, &format!("bn_t{}", b + 1), cfg.base));
        }

        // Decoder: 4 stages. The 5×5 deconvolution expands base -> 2·base
        // (Table 2's "Deconvolution Na" 32-channel outputs); the global
        // shortcut concatenates the encoder skip *between* the two
        // deconvolutions, so the 1×1 deconvolution compresses
        // 2·base + base -> base (or 1 at the final stage).
        let cat_ch = if cfg.no_global_shortcuts { 2 * cfg.base } else { 3 * cfg.base };
        let mut decoder = Vec::new();
        for s in 0..4 {
            let last = s == 3;
            let deconv5 = ConvTranspose2d::new(
                &mut store,
                &format!("deconv{}a", s + 1),
                cfg.base,
                2 * cfg.base,
                5,
                Conv2dSpec { stride: 1, padding: 2 },
                cfg.init,
                &mut rng,
            );
            let bn5 = BatchNorm::new(&mut store, &format!("bn_d{}a", s + 1), 2 * cfg.base);
            let out_ch = if last { 1 } else { cfg.base };
            let deconv1 = ConvTranspose2d::new(
                &mut store,
                &format!("deconv{}b", s + 1),
                cat_ch,
                out_ch,
                1,
                Conv2dSpec { stride: 1, padding: 0 },
                cfg.init,
                &mut rng,
            );
            let bn1 = if last {
                None
            } else {
                Some(BatchNorm::new(&mut store, &format!("bn_d{}b", s + 1), out_ch))
            };
            decoder.push(DecoderStage { deconv5, bn5, deconv1, bn1 });
        }

        if cfg.zero_init_last {
            let last = decoder.last().expect("four decoder stages");
            let mut w = last.deconv1.weight.borrow_mut();
            for v in w.value.data_mut() {
                *v = 0.0;
            }
        }

        Ddnet { cfg, store, conv_stem, bn_stem, blocks, transitions, bn_transitions, decoder, plan: RefCell::new(None), timed_plan: RefCell::new(None) }
    }

    /// Forward pass on a `(B, 1, H, W)` batch (H, W divisible by 16),
    /// recorded on the tape. Returns the enhanced batch var.
    pub fn forward(&self, g: &mut Graph, x: Var, training: bool) -> Result<Var> {
        check_input(g.value(x).dims())?;
        self.run(&mut Tape { g, bn: self.bn_mode(training) }, x)
    }

    /// How batch-norm layers compute their statistics.
    fn bn_mode(&self, training: bool) -> BnForward {
        if training {
            BnForward::Train
        } else if self.cfg.instance_norm_eval {
            BnForward::InstanceEval
        } else {
            BnForward::RunningEval
        }
    }

    /// The network, written once for both executors: the tape and the
    /// plan recorder (`cc19_nn::exec`).
    fn run<E: Exec>(&self, ex: &mut E, x: E::V) -> Result<E::V> {
        let leaky = self.cfg.leaky;
        let pool = PoolSpec::DDNET;

        // --- encoder ---
        let c1 = ex.conv(&self.conv_stem, x.clone())?; // full res, base ch
        let c1 = ex.batch_norm(&self.bn_stem, c1)?;
        let c1a = ex.leaky_relu(c1, leaky);

        let mut skips: Vec<E::V> = vec![c1a.clone()]; // skip at full res
        let mut h = c1a;
        for b in 0..4 {
            h = ex.max_pool(h, pool)?;
            h = self.blocks[b].forward(ex, h, leaky)?;
            h = ex.conv(&self.transitions[b], h)?;
            h = ex.batch_norm(&self.bn_transitions[b], h)?;
            h = ex.leaky_relu(h, leaky);
            if b < 3 {
                skips.push(h.clone()); // transition outputs at 1/2, 1/4, 1/8 res
            }
        }

        // --- decoder --- (skips popped in reverse: 1/8, 1/4, 1/2, full)
        for stage in &self.decoder {
            let skip = skips.pop().filter(|_| !self.cfg.no_global_shortcuts);
            h = stage.forward(ex, h, skip, leaky)?;
        }

        if self.cfg.residual {
            h = ex.add(h, x)?;
        }
        Ok(h)
    }

    /// The inference plan of a `dims`-shaped batch on `kernels`, with
    /// per-sample batch-norm statistics in instance-norm configurations.
    fn compile(&self, dims: &[usize], kernels: Kernels) -> Result<Plan> {
        Plan::compile(dims, kernels, self.bn_mode(false), |rec, x| self.run(rec, x))
    }

    /// Enhance a single `(H, W)` image in `[0,1]` (inference convenience):
    /// run as a `(1, 1, H, W)` batch on the plan cached for that shape
    /// (compiled on the first call and when the shape changes) —
    /// convolutions through `conv2d_dispatch(Auto)`'s kernels,
    /// deconvolutions on the kernel ladder's gather microkernel.
    pub fn enhance(&self, img: &Tensor) -> Result<Tensor> {
        let dims = slice_dims(img)?;
        let mut cache = self.plan.borrow_mut();
        let plan = Plan::cached(&mut cache, &dims, Kernels::Served, || self.compile(&dims, Kernels::Served))?;
        let mut y = plan.run(img.data())?;
        y.reshape_in_place(img.dims())?;
        Ok(y)
    }

    /// [`Ddnet::enhance`] on a plan whose convolutions and deconvolutions
    /// run the kernel ladder at `level`, one sample at a time, and the
    /// time its ops spent per kernel class (the measured rows of Tables
    /// 4, 5 and 7), read on the global registry's clock. The output
    /// matches `enhance` up to the kernels' accumulation order. The plan
    /// is cached like `enhance`'s, keyed by shape and level.
    pub fn enhance_timed(&self, img: &Tensor, level: OptLevel) -> Result<(Tensor, KernelTimes)> {
        let dims = slice_dims(img)?;
        let kernels = Kernels::Stage(level);
        let mut cache = self.timed_plan.borrow_mut();
        let plan = Plan::cached(&mut cache, &dims, kernels, || self.compile(&dims, kernels))?;
        let clock = cc19_obs::global();
        let (mut y, ns) = plan.run_timed(img.data(), || clock.now_ns())?;
        y.reshape_in_place(img.dims())?;
        Ok((y, KernelTimes::of(plan.classes().zip(ns))))
    }

    /// Number of *convolution* layers (paper: 37) — 7×7 stem + 2 per dense
    /// layer × 4 blocks + 4 transitions.
    pub fn conv_layer_count(&self) -> usize {
        1 + self.blocks.iter().map(|b| b.layers.len() * 2).sum::<usize>() + self.transitions.len()
    }

    /// Number of *deconvolution* layers (paper: 8).
    pub fn deconv_layer_count(&self) -> usize {
        self.decoder.len() * 2
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
        }
        bns.extend(self.bn_transitions.iter());
        for d in &self.decoder {
            bns.push(&d.bn5);
            if let Some(bn) = &d.bn1 {
                bns.push(bn);
            }
        }
        bns
    }

    fn config_fingerprint(&self) -> Vec<f32> {
        vec![
            self.cfg.base as f32,
            self.cfg.growth as f32,
            self.cfg.per_block as f32,
            if self.cfg.residual { 1.0 } else { 0.0 },
            if self.cfg.no_global_shortcuts { 1.0 } else { 0.0 },
            if self.cfg.instance_norm_eval { 1.0 } else { 0.0 },
        ]
    }

    /// Capture weights + batch-norm running statistics as checkpoint
    /// sections (the trainer-state checkpoints in `cc19-dist` embed these
    /// alongside optimizer state).
    pub fn to_checkpoint(&self) -> Checkpoint {
        Checkpoint::of_network("ddnet", self.config_fingerprint(), &self.store, &self.batch_norms())
    }

    /// Save weights + batch-norm running statistics to a checkpoint file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.to_checkpoint().save(path)
    }

    /// Restore weights + batch-norm statistics from checkpoint sections
    /// produced by [`Ddnet::to_checkpoint`] on a structurally identical
    /// network. A rejected checkpoint changes nothing.
    pub fn load_checkpoint(&self, ck: &Checkpoint) -> std::io::Result<()> {
        ck.load_network("ddnet", &self.config_fingerprint(), &self.store, &self.batch_norms())
    }

    /// Load weights + batch-norm statistics saved by [`Ddnet::save`] into
    /// this (structurally identical) network.
    pub fn load(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.load_checkpoint(&Checkpoint::load(path)?)
    }

    /// The architecture audit table for an `n`×`n` input — compare with
    /// the paper's Table 2 (which is written for n = 512).
    pub fn layer_table(&self, n: usize) -> Vec<LayerRow> {
        let b = self.cfg.base;
        let bo = self.cfg.block_out();
        let mut rows = Vec::new();
        let mut r = n;
        rows.push(LayerRow {
            layer: "Convolution 1".into(),
            output: (r, r, b),
            detail: "filter size=7x7, stride=1".into(),
        });
        for blk in 0..4 {
            r /= 2;
            rows.push(LayerRow {
                layer: format!("Pooling {}", blk + 1),
                output: (r, r, b),
                detail: "filter size=3x3, stride=2".into(),
            });
            rows.push(LayerRow {
                layer: format!("Dense Block {}", blk + 1),
                output: (r, r, bo),
                detail: format!("filter size=[1x1; 5x5] x {}, stride=1", self.cfg.per_block),
            });
            rows.push(LayerRow {
                layer: format!("Convolution {}", blk + 2),
                output: (r, r, b),
                detail: "filter size=1x1, stride=1".into(),
            });
        }
        for s in 0..4 {
            r *= 2;
            rows.push(LayerRow {
                layer: format!("Un-pooling {}", s + 1),
                output: (r, r, b),
                detail: "scale factor=2".into(),
            });
            rows.push(LayerRow {
                layer: format!("Deconvolution {}a", s + 1),
                output: (r, r, 2 * b),
                detail: "filter size=5x5, stride=1".into(),
            });
            let out_c = if s == 3 { 1 } else { b };
            rows.push(LayerRow {
                layer: format!("Deconvolution {}b", s + 1),
                output: (r, r, out_c),
                detail: "filter size=1x1, stride=1".into(),
            });
        }
        rows
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn paper_layer_counts() {
        let net = Ddnet::new(DdnetConfig::paper(), 1);
        assert_eq!(net.conv_layer_count(), 37, "paper says 37 convolution layers");
        assert_eq!(net.deconv_layer_count(), 8, "paper says 8 deconvolution layers");
    }

    #[test]
    fn table2_shape_audit_at_512() {
        let net = Ddnet::new(DdnetConfig::paper(), 1);
        let rows = net.layer_table(512);
        let find = |name: &str| rows.iter().find(|r| r.layer == name).unwrap().output;
        // Paper Table 2 values:
        assert_eq!(find("Convolution 1"), (512, 512, 16));
        assert_eq!(find("Pooling 1"), (256, 256, 16));
        assert_eq!(find("Dense Block 1"), (256, 256, 80));
        assert_eq!(find("Convolution 2"), (256, 256, 16));
        assert_eq!(find("Dense Block 2"), (128, 128, 80));
        assert_eq!(find("Dense Block 3"), (64, 64, 80));
        assert_eq!(find("Dense Block 4"), (32, 32, 80));
        assert_eq!(find("Convolution 5"), (32, 32, 16));
        assert_eq!(find("Un-pooling 1"), (64, 64, 16));
        assert_eq!(find("Deconvolution 1a"), (64, 64, 32));
        assert_eq!(find("Deconvolution 1b"), (64, 64, 16));
        assert_eq!(find("Un-pooling 4"), (512, 512, 16));
        assert_eq!(find("Deconvolution 4a"), (512, 512, 32));
        assert_eq!(find("Deconvolution 4b"), (512, 512, 1));
    }

    #[test]
    fn forward_shapes_at_multiple_resolutions() {
        let net = Ddnet::new(DdnetConfig::tiny(), 2);
        for n in [32usize, 64] {
            let mut g = Graph::new();
            let x = g.input(Tensor::zeros([1, 1, n, n]));
            let y = net.forward(&mut g, x, false).unwrap();
            assert_eq!(g.value(y).dims(), &[1, 1, n, n], "n={n}");
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let net = Ddnet::new(DdnetConfig::tiny(), 3);
        let mut g = Graph::new();
        let bad_rank = g.input(Tensor::zeros([1, 2, 32, 32]));
        assert!(net.forward(&mut g, bad_rank, false).is_err());
        let bad_extent = g.input(Tensor::zeros([1, 1, 40, 40]));
        assert!(net.forward(&mut g, bad_extent, false).is_err());
    }

    /// `cfg` at `seed` with every weight nudged by +0.01, so the network
    /// is not the zero-init identity (every untrained tiny / reduced net
    /// computes exactly `x` otherwise) and deconvolution numerics show.
    pub(crate) fn nudged(cfg: DdnetConfig, seed: u64) -> Ddnet {
        let net = Ddnet::new(cfg, seed);
        for p in net.store.params() {
            for v in p.borrow_mut().value.data_mut() {
                *v += 0.01;
            }
        }
        net
    }

    /// `(max |got − want|, that over max |want|, max |want|)`.
    pub(crate) fn deviation(got: &Tensor, want: &Tensor) -> (f32, f32, f32) {
        let abs = got.max_abs_diff(want).unwrap();
        let scale = want.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        (abs, abs / scale.max(f32::MIN_POSITIVE), scale)
    }

    #[test]
    fn evaluator_matches_the_graph_forward() {
        let mut running = DdnetConfig::tiny();
        running.instance_norm_eval = false;
        for (name, cfg) in
            [("tiny", DdnetConfig::tiny()), ("reduced", DdnetConfig::reduced()), ("tiny/running", running)]
        {
            let net = nudged(cfg, 31);
            let mut rng = Xorshift::new(32);
            for n in [32usize, 64, 112] {
                let img = rng.uniform_tensor([n, n], 0.0, 1.0);
                if !cfg.instance_norm_eval {
                    // non-default running statistics, from this input
                    let mut g = Graph::new();
                    let x = g.input(img.reshape([1, 1, n, n]).unwrap());
                    net.forward(&mut g, x, true).unwrap();
                }
                let mut g = Graph::new();
                let x = g.input(img.reshape([1, 1, n, n]).unwrap());
                let y = net.forward(&mut g, x, false).unwrap();
                let want = g.value(y).reshape([n, n]).unwrap();
                let got = net.enhance(&img).unwrap();
                assert!(!got.all_close(&img, 1e-3), "{name} {n}²: nudged net must not be the identity");
                // Only the deconvolutions differ (gather microkernel vs
                // the tensor lowering's accumulation order). Running
                // statistics leave outputs O(50), so max-abs is held to
                // 1e-5 of the output scale where that exceeds 1.
                let (abs, rel, scale) = deviation(&got, &want);
                assert!(
                    abs <= 1e-5 * scale.max(1.0) && rel <= 1e-5,
                    "{name} {n}²: max-abs {abs:e}, max-rel {rel:e}"
                );
            }
        }
    }

    #[test]
    fn enhance_rejects_bad_inputs_with_typed_errors() {
        let net = nudged(DdnetConfig::tiny(), 33);
        let shape_err = |r: Result<Tensor>| matches!(r, Err(TensorError::RankMismatch { .. }));
        let extent_err = |r: Result<Tensor>| matches!(r, Err(TensorError::Incompatible(m)) if m.contains("16"));
        assert!(shape_err(net.enhance(&Tensor::zeros([1, 32, 32]))));
        assert!(extent_err(net.enhance(&Tensor::zeros([40, 40]))));
        assert!(extent_err(net.enhance(&Tensor::zeros([32, 24]))));
    }

    #[test]
    fn residual_network_starts_near_identity() {
        let mut cfg = DdnetConfig::tiny();
        cfg.residual = true;
        cfg.init = Init::PaperGaussian; // tiny weights
        let net = Ddnet::new(cfg, 4);
        let mut rng = Xorshift::new(5);
        let img = rng.uniform_tensor([32, 32], 0.2, 0.8);
        let out = net.enhance(&img).unwrap();
        let m = cc19_tensor::reduce::mse(&out, &img).unwrap();
        assert!(m < 0.05, "residual init should be near identity, mse {m}");
    }

    #[test]
    fn shortcut_ablation_changes_param_count() {
        let with = Ddnet::new(DdnetConfig::tiny(), 6);
        let mut cfg = DdnetConfig::tiny();
        cfg.no_global_shortcuts = true;
        let without = Ddnet::new(cfg, 6);
        assert!(without.num_params() < with.num_params());
        // ablated network still runs
        let mut g = Graph::new();
        let x = g.input(Tensor::zeros([1, 1, 32, 32]));
        let y = without.forward(&mut g, x, false).unwrap();
        assert_eq!(g.value(y).dims(), &[1, 1, 32, 32]);
    }

    #[test]
    fn paper_param_count_magnitude() {
        // DDnet is a compact network (a few hundred thousand params, well
        // under DenseNet-class millions). Verify we're in that ballpark,
        // not accidentally 10x bigger.
        let net = Ddnet::new(DdnetConfig::paper(), 7);
        let p = net.num_params();
        assert!((100_000..2_000_000).contains(&p), "params {p}");
    }

    #[test]
    fn checkpoint_roundtrip_preserves_outputs() {
        let dir = std::env::temp_dir().join("cc19_ddnet_ckpt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.ckpt");

        let net = Ddnet::new(DdnetConfig::tiny(), 21);
        // give the BN layers non-default running stats
        let mut rng = Xorshift::new(22);
        let img = rng.uniform_tensor([32, 32], 0.0, 1.0);
        {
            let mut g = Graph::new();
            let x = g.input(img.reshape([1, 1, 32, 32]).unwrap());
            net.forward(&mut g, x, true).unwrap();
        }
        // Nudge every weight so the network is NOT the zero-init identity
        // (all untrained tiny nets compute exactly x otherwise).
        for p in net.store.params() {
            for v in p.borrow_mut().value.data_mut() {
                *v += 0.01;
            }
        }
        net.save(&path).unwrap();
        let before = net.enhance(&img).unwrap();
        assert!(!before.all_close(&img, 1e-6), "nudged net must differ from identity");

        // restore into a freshly-initialized (identity) clone
        let other = Ddnet::new(DdnetConfig::tiny(), 999);
        assert!(!other.enhance(&img).unwrap().all_close(&before, 1e-6));
        other.load(&path).unwrap();
        let after = other.enhance(&img).unwrap();
        assert!(after.all_close(&before, 1e-6), "restored net must agree");

        // wrong architecture is rejected
        let wrong = Ddnet::new(DdnetConfig::reduced(), 1);
        assert!(wrong.load(&path).is_err());
    }

    /// A nudged running-statistics tiny net (so its batch-norm statistics
    /// reach `enhance`) warmed by one training forward, and a 32² image.
    fn running_net(seed: u64) -> (Ddnet, Tensor) {
        let mut cfg = DdnetConfig::tiny();
        cfg.instance_norm_eval = false;
        let net = nudged(cfg, seed);
        let img = Xorshift::new(seed ^ 0x5EED).uniform_tensor([32, 32], 0.0, 1.0);
        let mut g = Graph::new();
        let x = g.input(img.reshape([1, 1, 32, 32]).unwrap());
        net.forward(&mut g, x, true).unwrap();
        (net, img)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// `net.enhance` of a seeded `h×w` slice, as bits.
    fn enhanced(net: &Ddnet, h: usize, w: usize) -> Vec<u32> {
        bits(&net.enhance(&Xorshift::new((h * w) as u64).uniform_tensor([h, w], 0.0, 1.0)).unwrap())
    }

    #[test]
    fn a_plan_reads_weights_at_run_time() {
        // compile at 32², then nudge: the cached plan must see the new weights
        let net = Ddnet::new(DdnetConfig::tiny(), 61);
        let identity = enhanced(&net, 32, 32);
        for p in net.store.params() {
            for v in p.borrow_mut().value.data_mut() {
                *v += 0.01;
            }
        }
        let after = enhanced(&net, 32, 32);
        assert_ne!(after, identity, "the nudge must reach the cached plan");
        assert_eq!(after, enhanced(&nudged(DdnetConfig::tiny(), 61), 32, 32));
    }

    #[test]
    fn a_new_shape_recompiles_and_each_call_keeps_its_bits() {
        let net = nudged(DdnetConfig::tiny(), 62);
        let want = [enhanced(&nudged(DdnetConfig::tiny(), 62), 32, 32), enhanced(&nudged(DdnetConfig::tiny(), 62), 48, 80)];
        for round in 0..3 {
            for (i, (h, w)) in [(32, 32), (48, 80)].into_iter().enumerate() {
                assert_eq!(enhanced(&net, h, w), want[i], "round {round}: {h}x{w}");
                assert_eq!(net.plan.borrow().as_ref().map(|p| p.dims().to_vec()), Some(vec![1, 1, h, w]));
            }
        }
    }

    #[test]
    fn the_arena_is_the_colourings_prediction() {
        // At 512² (tiny: base 4) the widest moment is the last decoder
        // stage: its [deconv | skip] slot of 3·4 channels (12 MiB; the
        // encoder's stem wrote the skip into it) beside the 4-channel
        // upsample slot that deconvolution reads (4 MiB). Coalesced
        // concatenations copy nothing, and the colouring packs the arena
        // to that peak exactly. Paper width (base 16) is four times that.
        for (cfg, n, bytes) in [(DdnetConfig::tiny(), 512, 16 << 20), (DdnetConfig::paper(), 512, 64 << 20), (DdnetConfig::tiny(), 32, 64 << 10)] {
            let plan = Ddnet::new(cfg, 63).compile(&[1, 1, n, n], Kernels::Served).unwrap();
            assert_eq!(plan.concat_copies(), 0, "{n}²: every concatenation is a view");
            assert_eq!(plan.arena_bytes(), plan.live_peak_bytes(), "{n}²: the colouring wastes nothing");
            assert_eq!(plan.arena_bytes(), bytes, "{n}²");
        }
        // without the global shortcuts there is no decoder concatenation
        let mut cfg = DdnetConfig::tiny();
        cfg.no_global_shortcuts = true;
        let plan = Ddnet::new(cfg, 63).compile(&[1, 1, 512, 512], Kernels::Served).unwrap();
        assert_eq!(plan.concat_copies(), 0);
        assert!(plan.arena_bytes() < 16 << 20, "{}", plan.arena_bytes());
    }

    #[test]
    fn a_failed_load_changes_nothing() {
        let ((net, img), (donor, _)) = (running_net(51), running_net(52));
        let before = net.enhance(&img).unwrap();
        let mut ck = donor.to_checkpoint();
        ck.sections.retain(|(n, _)| n != "ddnet.bn3.var");
        assert!(net.load_checkpoint(&ck).is_err());
        assert_eq!(bits(&net.enhance(&img).unwrap()), bits(&before), "a rejected checkpoint must not half-apply");
        net.load_checkpoint(&donor.to_checkpoint()).unwrap();
        assert_eq!(bits(&net.enhance(&img).unwrap()), bits(&donor.enhance(&img).unwrap()));
    }

    #[test]
    fn wrong_length_statistics_are_rejected_at_load() {
        let ((net, img), (donor, _)) = (running_net(53), running_net(54));
        let before = net.enhance(&img).unwrap();
        let mut ck = donor.to_checkpoint();
        let (_, mean) = ck.sections.iter_mut().find(|(n, _)| n == "ddnet.bn3.mean").unwrap();
        mean.pop();
        assert!(net.load_checkpoint(&ck).is_err(), "a short statistic must be rejected at load");
        assert_eq!(bits(&net.enhance(&img).unwrap()), bits(&before));
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let net = Ddnet::new(DdnetConfig::tiny(), 8);
        let mut rng = Xorshift::new(9);
        let x = rng.uniform_tensor([1, 1, 32, 32], 0.0, 1.0);
        let t = rng.uniform_tensor([1, 1, 32, 32], 0.0, 1.0);
        let mut g = Graph::new();
        let xv = g.input(x);
        let tv = g.input(t);
        let y = net.forward(&mut g, xv, true).unwrap();
        let loss = g.mse_loss(y, tv).unwrap();
        net.store.zero_grad();
        g.backward(loss);
        for p in net.store.params() {
            let p = p.borrow();
            assert!(p.grad.is_some(), "no grad for {}", p.name);
        }
    }
}
