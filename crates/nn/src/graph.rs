//! Tape-based define-by-run autograd.
//!
//! A [`Graph`] is built fresh for every forward pass. Each op appends a
//! node holding its output value and (if any input requires grad) a
//! backward closure that maps the node's output gradient to gradient
//! contributions for its parents. [`Graph::backward`] walks the tape in
//! reverse — the tape is already topologically ordered because it is
//! append-only — and finally routes parameter gradients into their
//! [`crate::Param`]s.

use rayon::prelude::*;

use cc19_tensor::conv::{conv3d, conv3d_backward, Conv2dSpec};
use cc19_tensor::conv_backend::{
    conv2d_backward_dispatch, conv2d_dispatch, conv_transpose2d_backward_dispatch,
    conv_transpose2d_dispatch, ConvBackend,
};
use cc19_tensor::pool::{
    avg_pool2d, avg_pool2d_backward, global_avg_pool, global_avg_pool_backward, max_pool2d,
    max_pool2d_backward, max_pool3d, max_pool3d_backward, PoolSpec,
};
use cc19_tensor::resize::{upsample_bilinear2d, upsample_bilinear2d_backward};
use cc19_tensor::{ops, Tensor, TensorError};

use crate::param::ParamRef;
use crate::Result;

/// Handle to a node in a [`Graph`]. Cheap to copy; only valid for the graph
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Backward closure: `(all node values, grad of this node) -> [(parent id,
/// grad contribution)]`.
pub(crate) type BackFn = Box<dyn Fn(&[Tensor], &Tensor) -> Vec<(usize, Tensor)>>;

/// Gradients returned by [`Graph::backward`] for non-parameter vars.
pub struct Grads {
    grads: Vec<Option<Tensor>>,
}

impl Grads {
    /// Gradient of the loss w.r.t. `var`, if it was computed.
    ///
    /// Parameter vars return `None` here — their gradients are routed into
    /// the `Param` itself.
    pub fn get(&self, var: Var) -> Option<&Tensor> {
        self.grads.get(var.0).and_then(|g| g.as_ref())
    }
}

/// Batch-norm evaluation mode.
#[derive(Debug, Clone)]
pub enum BnMode {
    /// Use batch statistics (training). The op reports the batch mean/var
    /// so the layer can update its running stats.
    Train,
    /// Use each sample's own per-channel statistics (instance-norm
    /// inference): a sample's output never depends on its batch-mates.
    /// Identical to `Train` at batch size 1.
    Instance,
    /// Use the provided running statistics (inference).
    Eval {
        /// Per-channel running means.
        mean: Vec<f32>,
        /// Per-channel running variances.
        var: Vec<f32>,
    },
}

/// Batch-norm forward in place over a `(N, C, *spatial)` tensor:
/// `x ← gamma·(x − mean)/sqrt(var + eps) + beta`. The tape
/// ([`Graph::batch_norm`]) and the inference plans ([`batch_norm_infer`])
/// share its statistics and normalise loops ([`moments`],
/// [`normalise`]), so the two cannot drift apart.
///
/// Returns the statistics it normalised with: per channel for `Train`
/// and `Eval`, per `(sample, channel)` (sample-major, `N·C` entries) for
/// `Instance`.
pub fn batch_norm_in_place(
    x: &mut Tensor,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    mode: &BnMode,
) -> Result<(Vec<f32>, Vec<f32>)> {
    let (n, c, spatial) = bn_extents(x.dims(), gamma, beta)?;
    let per_sample = matches!(mode, BnMode::Instance);
    let xd = x.data_mut();
    let (mean, var): (Vec<f32>, Vec<f32>) = match mode {
        BnMode::Train => (0..c).map(|ci| moments(xd, c, spatial, ci, 0..n)).unzip(),
        BnMode::Instance => (0..n * c).map(|s| moments(xd, c, spatial, s % c, s / c..s / c + 1)).unzip(),
        BnMode::Eval { mean, var } => {
            if mean.len() != c || var.len() != c {
                return Err(TensorError::Incompatible(format!(
                    "batch_norm eval stats must have {c} elements"
                )));
            }
            (mean.clone(), var.clone())
        }
    };
    for ni in 0..n {
        for ci in 0..c {
            let s = if per_sample { ni * c + ci } else { ci };
            let base = (ni * c + ci) * spatial;
            normalise(&mut xd[base..base + spatial], gamma[ci], beta[ci], mean[s], var[s], eps);
        }
    }
    Ok((mean, var))
}

/// Inference batch norm in place over `dims`-shaped `x`: each sample's own
/// statistics (`running` = `None`, [`BnMode::Instance`]) or the running
/// `(mean, var)` ([`BnMode::Eval`]), with [`batch_norm_in_place`]'s bits
/// and no allocation.
pub(crate) fn batch_norm_infer(
    x: &mut [f32],
    dims: &[usize],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    running: Option<(&[f32], &[f32])>,
) -> Result<()> {
    let (n, c, spatial) = bn_extents(dims, gamma, beta)?;
    if x.len() != n * c * spatial || running.is_some_and(|(m, v)| m.len() != c || v.len() != c) {
        return Err(TensorError::Incompatible(format!("batch_norm: buffers do not fit {dims:?}")));
    }
    // One `(n, c)` plane per item, each normalised by one thread.
    x.par_chunks_mut(spatial.max(1)).enumerate().for_each(|(plane, xs)| {
        let ci = plane % c;
        let (mu, var) = match running {
            Some((mean, var)) => (mean[ci], var[ci]),
            None => moments(xs, 1, spatial, 0, 0..1),
        };
        normalise(xs, gamma[ci], beta[ci], mu, var, eps);
    });
    Ok(())
}

/// `(N, C, spatial)` of a batch-norm input, checked against `gamma` /
/// `beta`.
fn bn_extents(dims: &[usize], gamma: &[f32], beta: &[f32]) -> Result<(usize, usize, usize)> {
    if dims.len() < 2 {
        return Err(TensorError::Incompatible("batch_norm expects rank >= 2".into()));
    }
    let (n, c) = (dims[0], dims[1]);
    if gamma.len() != c || beta.len() != c {
        return Err(TensorError::Incompatible(format!(
            "batch_norm: gamma/beta must have {c} elements"
        )));
    }
    Ok((n, c, dims[2..].iter().product()))
}

/// Mean and variance of channel `ci` of `(N, c, spatial)` data over the
/// samples in `samples`, accumulated in f64 in memory order.
fn moments(xd: &[f32], c: usize, spatial: usize, ci: usize, samples: std::ops::Range<usize>) -> (f32, f32) {
    let m = (samples.len() * spatial) as f32; // reduction-set size
    let plane = |ni: usize| &xd[(ni * c + ci) * spatial..(ni * c + ci + 1) * spatial];
    let mut acc = 0.0f64;
    for ni in samples.clone() {
        for &v in plane(ni) {
            acc += v as f64;
        }
    }
    let mu = (acc / m as f64) as f32;
    let mut acc = 0.0f64;
    for ni in samples {
        for &v in plane(ni) {
            let d = v as f64 - mu as f64;
            acc += d * d;
        }
    }
    (mu, (acc / m as f64) as f32)
}

/// `x ← g·(x − mu)/sqrt(var + eps) + b` over one plane.
fn normalise(plane: &mut [f32], g: f32, b: f32, mu: f32, var: f32, eps: f32) {
    let inv = 1.0 / (var + eps).sqrt();
    for v in plane {
        *v = g * (*v - mu) * inv + b;
    }
}

/// Fully-connected forward `x (N,K) @ w (K,M) + b (M)` — the one loop
/// both the tape ([`Graph::linear`]) and the inference plans run.
pub(crate) fn linear_forward(x: &Tensor, w: &Tensor, b: Option<&Tensor>) -> Result<Tensor> {
    x.shape().expect_rank(2)?;
    w.shape().expect_rank(2)?;
    let mut out = Tensor::zeros([x.dims()[0], w.dims()[1]]);
    linear_into(x.data(), x.dims(), w, b, out.data_mut())?;
    Ok(out)
}

/// [`linear_forward`] of the `x_dims`-shaped `x` into `out`.
pub(crate) fn linear_into(x: &[f32], x_dims: &[usize], w: &Tensor, b: Option<&Tensor>, out: &mut [f32]) -> Result<()> {
    let (&[n, k], &[k2, m]) = (x_dims, w.dims()) else {
        return Err(TensorError::Incompatible(format!("linear: want (N,K) x (K,M), got {x_dims:?} x {:?}", w.dims())));
    };
    if k != k2 || x.len() != n * k || out.len() != n * m {
        return Err(TensorError::Incompatible(format!(
            "matmul inner dims differ: ({n},{k}) x ({k2},{m}) [trans_a=false, trans_b=false]"
        )));
    }
    out.fill(0.0);
    cc19_tensor::gemm::sgemm(false, false, n, m, k, x, w.data(), out);
    if let Some(bias) = b {
        if bias.numel() != m {
            return Err(TensorError::Incompatible(format!(
                "linear bias has {} elements, want {m}",
                bias.numel()
            )));
        }
        for row in out.chunks_mut(m) {
            for (o, &bb) in row.iter_mut().zip(bias.data()) {
                *o += bb;
            }
        }
    }
    Ok(())
}

/// The autograd tape.
#[derive(Default)]
pub struct Graph {
    values: Vec<Tensor>,
    backs: Vec<Option<BackFn>>,
    requires: Vec<bool>,
    /// (var id, param) pairs: where to deliver gradients after backward.
    params: Vec<(usize, ParamRef)>,
}

impl Graph {
    /// Fresh empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no nodes are recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Record a constant / network input (no gradient tracked).
    pub fn input(&mut self, t: Tensor) -> Var {
        self.push(t, false, None)
    }

    /// Record an input that *does* require grad (used by grad-check tests).
    pub fn input_grad(&mut self, t: Tensor) -> Var {
        self.push(t, true, None)
    }

    /// Record a trainable parameter; its gradient will be accumulated into
    /// the `Param` by [`Graph::backward`].
    pub fn param(&mut self, p: &ParamRef) -> Var {
        let t = p.borrow().value.clone();
        let v = self.push(t, true, None);
        self.params.push((v.0, p.clone()));
        v
    }

    fn push(&mut self, value: Tensor, requires: bool, back: Option<BackFn>) -> Var {
        self.values.push(value);
        self.requires.push(requires);
        self.backs.push(back);
        Var(self.values.len() - 1)
    }

    fn any_requires(&self, vars: &[Var]) -> bool {
        vars.iter().any(|v| self.requires[v.0])
    }

    /// Record an op: `value` plus a backward closure if any parent needs it.
    pub(crate) fn record(&mut self, value: Tensor, parents: &[Var], back: BackFn) -> Var {
        let req = self.any_requires(parents);
        self.push(value, req, if req { Some(back) } else { None })
    }

    /// Run reverse-mode autodiff from `loss` (must be scalar-like: the seed
    /// gradient is all-ones of the loss shape). Returns gradients of
    /// non-parameter vars; parameter gradients are accumulated into their
    /// `Param`s.
    pub fn backward(&mut self, loss: Var) -> Grads {
        let mut grads: Vec<Option<Tensor>> = (0..self.values.len()).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::ones(self.values[loss.0].shape().clone()));

        for id in (0..=loss.0).rev() {
            if !self.requires[id] {
                continue;
            }
            let Some(g) = grads[id].take() else { continue };
            if let Some(back) = &self.backs[id] {
                for (pid, contrib) in back(&self.values, &g) {
                    if !self.requires[pid] {
                        continue;
                    }
                    match &mut grads[pid] {
                        Some(acc) => {
                            ops::axpy(1.0, &contrib, acc).expect("grad shapes agree");
                        }
                        slot @ None => *slot = Some(contrib),
                    }
                }
            }
            grads[id] = Some(g);
        }

        // Deliver parameter gradients (move them out of the grads table).
        for (vid, p) in &self.params {
            if let Some(g) = grads[*vid].take() {
                p.borrow_mut().accumulate_grad(g);
            }
        }
        Grads { grads }
    }

    // ----- elementwise ---------------------------------------------------

    /// Elementwise addition.
    pub fn add(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::add(&self.values[a.0], &self.values[b.0])?;
        Ok(self.record(v, &[a, b], Box::new(move |_vals, g| {
            vec![(a.0, g.clone()), (b.0, g.clone())]
        })))
    }

    /// Elementwise subtraction `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::sub(&self.values[a.0], &self.values[b.0])?;
        Ok(self.record(v, &[a, b], Box::new(move |_vals, g| {
            vec![(a.0, g.clone()), (b.0, ops::scale(g, -1.0))]
        })))
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::mul(&self.values[a.0], &self.values[b.0])?;
        Ok(self.record(v, &[a, b], Box::new(move |vals, g| {
            vec![
                (a.0, ops::mul(g, &vals[b.0]).expect("shape")),
                (b.0, ops::mul(g, &vals[a.0]).expect("shape")),
            ]
        })))
    }

    /// Elementwise division `a / b`.
    pub fn div(&mut self, a: Var, b: Var) -> Result<Var> {
        let v = ops::div(&self.values[a.0], &self.values[b.0])?;
        Ok(self.record(v, &[a, b], Box::new(move |vals, g| {
            let ga = ops::div(g, &vals[b.0]).expect("shape");
            // gb = -g * a / b^2
            let b2 = ops::square(&vals[b.0]);
            let gb = ops::scale(&ops::div(&ops::mul(g, &vals[a.0]).expect("shape"), &b2).expect("shape"), -1.0);
            vec![(a.0, ga), (b.0, gb)]
        })))
    }

    /// Multiply by a compile-time scalar.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        let v = ops::scale(&self.values[a.0], c);
        self.record(v, &[a], Box::new(move |_vals, g| vec![(a.0, ops::scale(g, c))]))
    }

    /// Add a compile-time scalar.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = ops::add_scalar(&self.values[a.0], c);
        self.record(v, &[a], Box::new(move |_vals, g| vec![(a.0, g.clone())]))
    }

    /// Elementwise power with a constant exponent. The base is assumed
    /// positive (MS-SSIM usage); the backward clamps the base away from
    /// zero for stability.
    pub fn pow_scalar(&mut self, a: Var, c: f32) -> Var {
        let v = ops::map(&self.values[a.0], move |x| x.powf(c));
        self.record(v, &[a], Box::new(move |vals, g| {
            let d = ops::map(&vals[a.0], move |x| c * x.max(1e-6).powf(c - 1.0));
            vec![(a.0, ops::mul(g, &d).expect("shape"))]
        }))
    }

    /// Leaky-ReLU.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        let v = ops::leaky_relu(&self.values[a.0], slope);
        self.record(v, &[a], Box::new(move |vals, g| {
            let mut out = g.clone();
            for (o, &x) in out.data_mut().iter_mut().zip(vals[a.0].data()) {
                if x < 0.0 {
                    *o *= slope;
                }
            }
            vec![(a.0, out)]
        }))
    }

    /// ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        self.leaky_relu(a, 0.0)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = ops::sigmoid(&self.values[a.0]);
        self.record(v, &[a], Box::new(move |vals, g| {
            // use the cached output: d sigma = sigma (1 - sigma); recompute from input
            let s = ops::sigmoid(&vals[a.0]);
            let d = ops::map(&s, |sv| sv * (1.0 - sv));
            vec![(a.0, ops::mul(g, &d).expect("shape"))]
        }))
    }

    /// Reshape (same element count).
    pub fn reshape(&mut self, a: Var, dims: &[usize]) -> Result<Var> {
        let v = self.values[a.0].reshape(dims.to_vec())?;
        let old_dims = self.values[a.0].dims().to_vec();
        Ok(self.record(v, &[a], Box::new(move |_vals, g| {
            vec![(a.0, g.reshape(old_dims.clone()).expect("reshape back"))]
        })))
    }

    // ----- reductions / losses -------------------------------------------

    /// Mean over all elements -> scalar var.
    pub fn mean(&mut self, a: Var) -> Var {
        let n = self.values[a.0].numel().max(1);
        let m = cc19_tensor::reduce::mean(&self.values[a.0]) as f32;
        let shape = self.values[a.0].shape().clone();
        self.record(Tensor::scalar(m), &[a], Box::new(move |_vals, g| {
            let gv = g.data()[0] / n as f32;
            vec![(a.0, Tensor::full(shape.clone(), gv))]
        }))
    }

    /// Sum over all elements -> scalar var.
    pub fn sum(&mut self, a: Var) -> Var {
        let s = cc19_tensor::reduce::sum(&self.values[a.0]) as f32;
        let shape = self.values[a.0].shape().clone();
        self.record(Tensor::scalar(s), &[a], Box::new(move |_vals, g| {
            vec![(a.0, Tensor::full(shape.clone(), g.data()[0]))]
        }))
    }

    // ----- structure ------------------------------------------------------

    /// Concatenate along the channel axis (axis 1).
    pub fn concat_channels(&mut self, vars: &[Var]) -> Result<Var> {
        if vars.is_empty() {
            return Err(TensorError::Empty("concat_channels"));
        }
        let tensors: Vec<&Tensor> = vars.iter().map(|v| &self.values[v.0]).collect();
        let out = ops::concat(&tensors, 1)?;
        let ids: Vec<usize> = vars.iter().map(|v| v.0).collect();
        let extents: Vec<usize> = vars.iter().map(|v| self.values[v.0].dims()[1]).collect();
        Ok(self.record(out, vars, Box::new(move |_vals, g| {
            let parts = ops::split(g, 1, &extents).expect("split matches concat");
            ids.iter().copied().zip(parts).collect()
        })))
    }

    // ----- linear algebra --------------------------------------------------

    /// Fully-connected layer: `x (N,K) @ w (K,M) + b (M)`.
    pub fn linear(&mut self, x: Var, w: Var, b: Option<Var>) -> Result<Var> {
        let out = linear_forward(&self.values[x.0], &self.values[w.0], b.map(|bv| &self.values[bv.0]))?;
        let parents: Vec<Var> = match b {
            Some(bv) => vec![x, w, bv],
            None => vec![x, w],
        };
        Ok(self.record(out, &parents, Box::new(move |vals, g| {
            let xv = &vals[x.0];
            let wv = &vals[w.0];
            let wt = ops::transpose2(wv).expect("rank 2");
            let xt = ops::transpose2(xv).expect("rank 2");
            let gx = ops::matmul(g, &wt).expect("shape");
            let gw = ops::matmul(&xt, g).expect("shape");
            let mut outv = vec![(x.0, gx), (w.0, gw)];
            if let Some(bv) = b {
                let m = g.dims()[1];
                let mut gb = Tensor::zeros([m]);
                for row in g.data().chunks(m) {
                    for (acc, &gg) in gb.data_mut().iter_mut().zip(row) {
                        *acc += gg;
                    }
                }
                outv.push((bv.0, gb));
            }
            outv
        })))
    }

    // ----- convolutions ----------------------------------------------------

    /// 2D convolution (see [`cc19_tensor::conv::conv2d`]), forward and
    /// backward dispatched per shape by [`ConvBackend::Auto`].
    pub fn conv2d(&mut self, x: Var, w: Var, b: Option<Var>, spec: Conv2dSpec) -> Result<Var> {
        let backend = ConvBackend::Auto;
        let out = conv2d_dispatch(
            backend,
            &self.values[x.0],
            &self.values[w.0],
            b.map(|bv| &self.values[bv.0]),
            spec,
        )?;
        let parents: Vec<Var> = match b {
            Some(bv) => vec![x, w, bv],
            None => vec![x, w],
        };
        Ok(self.record(out, &parents, Box::new(move |vals, g| {
            let (gx, gw, gb) = conv2d_backward_dispatch(backend, &vals[x.0], &vals[w.0], g, spec)
                .expect("consistent shapes");
            let mut outv = vec![(x.0, gx), (w.0, gw)];
            if let Some(bv) = b {
                outv.push((bv.0, gb));
            }
            outv
        })))
    }

    /// 2D transposed convolution ("deconvolution"), forward and backward
    /// dispatched per shape by [`ConvBackend::Auto`].
    pub fn conv_transpose2d(&mut self, x: Var, w: Var, b: Option<Var>, spec: Conv2dSpec) -> Result<Var> {
        let backend = ConvBackend::Auto;
        let out = conv_transpose2d_dispatch(
            backend,
            &self.values[x.0],
            &self.values[w.0],
            b.map(|bv| &self.values[bv.0]),
            spec,
        )?;
        let parents: Vec<Var> = match b {
            Some(bv) => vec![x, w, bv],
            None => vec![x, w],
        };
        Ok(self.record(out, &parents, Box::new(move |vals, g| {
            let (gx, gw, gb) =
                conv_transpose2d_backward_dispatch(backend, &vals[x.0], &vals[w.0], g, spec)
                    .expect("consistent shapes");
            let mut outv = vec![(x.0, gx), (w.0, gw)];
            if let Some(bv) = b {
                outv.push((bv.0, gb));
            }
            outv
        })))
    }

    /// 3D convolution.
    pub fn conv3d(&mut self, x: Var, w: Var, b: Option<Var>, spec: Conv2dSpec) -> Result<Var> {
        let out = conv3d(&self.values[x.0], &self.values[w.0], b.map(|bv| &self.values[bv.0]), spec)?;
        let parents: Vec<Var> = match b {
            Some(bv) => vec![x, w, bv],
            None => vec![x, w],
        };
        Ok(self.record(out, &parents, Box::new(move |vals, g| {
            let (gx, gw, gb) =
                conv3d_backward(&vals[x.0], &vals[w.0], g, spec).expect("consistent shapes");
            let mut outv = vec![(x.0, gx), (w.0, gw)];
            if let Some(bv) = b {
                outv.push((bv.0, gb));
            }
            outv
        })))
    }

    // ----- pooling / resize --------------------------------------------------

    /// 2D max pooling.
    pub fn max_pool2d(&mut self, x: Var, spec: PoolSpec) -> Result<Var> {
        let (out, arg) = max_pool2d(&self.values[x.0], spec)?;
        let in_shape = self.values[x.0].dims().to_vec();
        Ok(self.record(out, &[x], Box::new(move |_vals, g| {
            vec![(x.0, max_pool2d_backward(&in_shape, &arg, g, spec).expect("shape"))]
        })))
    }

    /// 3D max pooling.
    pub fn max_pool3d(&mut self, x: Var, spec: PoolSpec) -> Result<Var> {
        let (out, arg) = max_pool3d(&self.values[x.0], spec)?;
        let in_shape = self.values[x.0].dims().to_vec();
        Ok(self.record(out, &[x], Box::new(move |_vals, g| {
            vec![(x.0, max_pool3d_backward(&in_shape, &arg, g, spec).expect("shape"))]
        })))
    }

    /// 2D average pooling.
    pub fn avg_pool2d(&mut self, x: Var, spec: PoolSpec) -> Result<Var> {
        let out = avg_pool2d(&self.values[x.0], spec)?;
        let in_shape = self.values[x.0].dims().to_vec();
        Ok(self.record(out, &[x], Box::new(move |_vals, g| {
            vec![(x.0, avg_pool2d_backward(&in_shape, g, spec).expect("shape"))]
        })))
    }

    /// Global average pool `(N,C,...) -> (N,C)`.
    pub fn global_avg_pool(&mut self, x: Var) -> Result<Var> {
        let out = global_avg_pool(&self.values[x.0])?;
        let in_shape = self.values[x.0].dims().to_vec();
        Ok(self.record(out, &[x], Box::new(move |_vals, g| {
            vec![(x.0, global_avg_pool_backward(&in_shape, g).expect("shape"))]
        })))
    }

    /// Bilinear ×`scale` un-pooling (DDnet's un-pooling layer).
    pub fn upsample_bilinear2d(&mut self, x: Var, scale: usize) -> Result<Var> {
        let out = upsample_bilinear2d(&self.values[x.0], scale)?;
        let in_shape = self.values[x.0].dims().to_vec();
        Ok(self.record(out, &[x], Box::new(move |_vals, g| {
            vec![(x.0, upsample_bilinear2d_backward(&in_shape, g, scale).expect("shape"))]
        })))
    }

    // ----- normalization -------------------------------------------------------

    /// Channel-wise batch normalization over a `(N, C, *spatial)` tensor.
    ///
    /// Returns `(output, mean, var)`: the statistics
    /// [`batch_norm_in_place`] normalised with (the supplied running ones
    /// in `Eval` mode, `N·C` per-sample ones in `Instance` mode).
    pub fn batch_norm(
        &mut self,
        x: Var,
        gamma: Var,
        beta: Var,
        eps: f32,
        mode: BnMode,
    ) -> Result<(Var, Vec<f32>, Vec<f32>)> {
        let mut out = self.values[x.0].clone();
        let (mean, var) = batch_norm_in_place(
            &mut out,
            self.values[gamma.0].data(),
            self.values[beta.0].data(),
            eps,
            &mode,
        )?;
        let dims = out.dims().to_vec();
        let (n, c) = (dims[0], dims[1]);
        let spatial: usize = dims[2..].iter().product();

        // Each (channel, group of samples) shares one set of statistics:
        // all samples in `Train`/`Eval`, one sample each in `Instance`.
        let per_sample = matches!(mode, BnMode::Instance);
        let group = if per_sample { 1 } else { n.max(1) };
        let mean_c = mean.clone();
        let var_c = var.clone();
        let is_eval = matches!(mode, BnMode::Eval { .. });
        let out_var = self.record(out, &[x, gamma, beta], Box::new(move |vals, g| {
            let xd = vals[x.0].data();
            let gammad = vals[gamma.0].data();
            let gd = g.data();
            let mut gx = Tensor::zeros(dims.clone());
            let mut ggamma = Tensor::zeros([c]);
            let mut gbeta = Tensor::zeros([c]);
            let gxd = gx.data_mut();

            for (ci, &gamma_c) in gammad.iter().enumerate() {
                let (mut chan_g, mut chan_g_xhat) = (0.0f64, 0.0f64);
                for g0 in (0..n).step_by(group) {
                    let s = if per_sample { g0 * c + ci } else { ci };
                    let inv = 1.0 / (var_c[s] + eps).sqrt();
                    let mu = mean_c[s];
                    let m = (group * spatial) as f32; // reduction-set size
                    // group sums
                    let mut sum_g = 0.0f64;
                    let mut sum_g_xhat = 0.0f64;
                    for ni in g0..g0 + group {
                        let base = (ni * c + ci) * spatial;
                        for i in base..base + spatial {
                            let xhat = (xd[i] - mu) * inv;
                            sum_g += gd[i] as f64;
                            sum_g_xhat += (gd[i] * xhat) as f64;
                        }
                    }
                    chan_g += sum_g;
                    chan_g_xhat += sum_g_xhat;
                    let k = gamma_c * inv;
                    let (mg, mgx) = if is_eval {
                        // eval: statistics are constants
                        (0.0, 0.0)
                    } else {
                        ((sum_g / m as f64) as f32, (sum_g_xhat / m as f64) as f32)
                    };
                    for ni in g0..g0 + group {
                        let base = (ni * c + ci) * spatial;
                        for i in base..base + spatial {
                            gxd[i] = if is_eval {
                                k * gd[i]
                            } else {
                                let xhat = (xd[i] - mu) * inv;
                                k * (gd[i] - mg - xhat * mgx)
                            };
                        }
                    }
                }
                gbeta.data_mut()[ci] = chan_g as f32;
                ggamma.data_mut()[ci] = chan_g_xhat as f32;
            }
            vec![(x.0, gx), (gamma.0, ggamma), (beta.0, gbeta)]
        }));
        Ok((out_var, mean, var))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use cc19_tensor::rng::Xorshift;

    #[test]
    fn linear_into_writes_the_tapes_linear_bits() {
        let mut rng = Xorshift::new(17);
        let (x, w, b) = (rng.uniform_tensor([3, 40], -1.0, 1.0), rng.uniform_tensor([40, 33], -1.0, 1.0), rng.uniform_tensor([33], -1.0, 1.0));
        let mut g = Graph::new();
        let (xv, wv, bv) = (g.input(x.clone()), g.input(w.clone()), g.input(b.clone()));
        let y = g.linear(xv, wv, Some(bv)).unwrap();
        let mut got = vec![f32::NAN; 3 * 33];
        linear_into(x.data(), x.dims(), &w, Some(&b), &mut got).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(g.value(y).data()));
        assert!(linear_into(x.data(), &[3, 39], &w, Some(&b), &mut got).is_err());
    }

    /// Generic finite-difference gradient check against a scalar loss
    /// builder. `build` receives the graph and the input var and must
    /// return the scalar loss var.
    fn gradcheck(
        x0: Tensor,
        tol: f32,
        build: impl Fn(&mut Graph, Var) -> Var,
    ) {
        let mut g = Graph::new();
        let x = g.input_grad(x0.clone());
        let loss = build(&mut g, x);
        assert_eq!(g.value(loss).numel(), 1, "loss must be scalar");
        let grads = g.backward(loss);
        let analytic = grads.get(x).expect("input grad").clone();

        let eps = 1e-2f32;
        let f = |t: &Tensor| -> f32 {
            let mut g = Graph::new();
            let x = g.input(t.clone());
            let loss = build(&mut g, x);
            g.value(loss).item().unwrap()
        };
        let n = x0.numel();
        let step = (n / 7).max(1);
        for idx in (0..n).step_by(step) {
            let mut xp = x0.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x0.clone();
            xm.data_mut()[idx] -= eps;
            let fd = (f(&xp) - f(&xm)) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs().max(an.abs())),
                "grad mismatch at {idx}: fd={fd} analytic={an}"
            );
        }
    }

    #[test]
    fn grad_add_mul_chain() {
        let mut rng = Xorshift::new(1);
        let x0 = rng.uniform_tensor([2, 3], -1.0, 1.0);
        gradcheck(x0, 1e-2, |g, x| {
            let y = g.scale(x, 2.0);
            let z = g.mul(x, y).unwrap(); // 2x^2
            let w = g.add(z, x).unwrap(); // 2x^2 + x
            g.sum(w)
        });
    }

    #[test]
    fn grad_div() {
        let mut rng = Xorshift::new(2);
        let x0 = rng.uniform_tensor([6], 0.5, 2.0);
        gradcheck(x0, 2e-2, |g, x| {
            let c = g.input(Tensor::full([6], 3.0));
            let one_plus = g.add_scalar(x, 1.5);
            let d = g.div(c, one_plus).unwrap();
            g.sum(d)
        });
    }

    #[test]
    fn grad_activations() {
        let mut rng = Xorshift::new(3);
        // keep away from the ReLU kink for finite differences
        let mut x0 = rng.uniform_tensor([10], -2.0, 2.0);
        for v in x0.data_mut() {
            if v.abs() < 0.1 {
                *v += 0.3;
            }
        }
        gradcheck(x0.clone(), 2e-2, |g, x| {
            let y = g.leaky_relu(x, 0.1);
            g.sum(y)
        });
        gradcheck(x0, 2e-2, |g, x| {
            let y = g.sigmoid(x);
            g.sum(y)
        });
    }

    #[test]
    fn grad_pow_scalar() {
        let mut rng = Xorshift::new(4);
        let x0 = rng.uniform_tensor([8], 0.5, 2.0);
        gradcheck(x0, 2e-2, |g, x| {
            let y = g.pow_scalar(x, 0.3);
            g.sum(y)
        });
    }

    #[test]
    fn grad_mean_vs_sum() {
        let x0 = Tensor::from_vec([4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut g = Graph::new();
        let x = g.input_grad(x0);
        let m = g.mean(x);
        let grads = g.backward(m);
        assert_eq!(grads.get(x).unwrap().data(), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn grad_concat_splits_gradient() {
        let a0 = Tensor::ones([1, 2, 2, 2]);
        let b0 = Tensor::ones([1, 3, 2, 2]);
        let mut g = Graph::new();
        let a = g.input_grad(a0);
        let b = g.input_grad(b0);
        let c = g.concat_channels(&[a, b]).unwrap();
        assert_eq!(g.value(c).dims(), &[1, 5, 2, 2]);
        let s = g.scale(c, 2.0);
        let loss = g.sum(s);
        let grads = g.backward(loss);
        assert!(grads.get(a).unwrap().data().iter().all(|&v| v == 2.0));
        assert_eq!(grads.get(a).unwrap().dims(), &[1, 2, 2, 2]);
        assert_eq!(grads.get(b).unwrap().dims(), &[1, 3, 2, 2]);
    }

    #[test]
    fn grad_linear() {
        let mut rng = Xorshift::new(5);
        let x0 = rng.uniform_tensor([3, 4], -1.0, 1.0);
        let w0 = rng.uniform_tensor([4, 2], -1.0, 1.0);
        let b0 = rng.uniform_tensor([2], -1.0, 1.0);
        gradcheck(x0, 2e-2, |g, x| {
            let w = g.input(w0.clone());
            let b = g.input(b0.clone());
            let y = g.linear(x, w, Some(b)).unwrap();
            g.sum(y)
        });
    }

    #[test]
    fn grad_conv_and_pool_chain() {
        let mut rng = Xorshift::new(6);
        let x0 = rng.uniform_tensor([1, 1, 6, 6], -1.0, 1.0);
        let w0 = rng.uniform_tensor([2, 1, 3, 3], -0.5, 0.5);
        gradcheck(x0, 3e-2, |g, x| {
            let w = g.input(w0.clone());
            let y = g.conv2d(x, w, None, Conv2dSpec { stride: 1, padding: 1 }).unwrap();
            let p = g.avg_pool2d(y, PoolSpec { kernel: 2, stride: 2, padding: 0 }).unwrap();
            g.sum(p)
        });
    }

    #[test]
    fn grad_upsample() {
        let mut rng = Xorshift::new(7);
        let x0 = rng.uniform_tensor([1, 2, 3, 3], -1.0, 1.0);
        gradcheck(x0, 2e-2, |g, x| {
            let y = g.upsample_bilinear2d(x, 2).unwrap();
            g.sum(y)
        });
    }

    #[test]
    fn grad_batch_norm_train() {
        let mut rng = Xorshift::new(8);
        let x0 = rng.uniform_tensor([2, 3, 4, 4], -1.0, 1.0);
        let g0 = rng.uniform_tensor([3], 0.5, 1.5);
        let b0 = rng.uniform_tensor([3], -0.5, 0.5);
        // loss must be nonlinear in y for BN grad to be non-trivial
        gradcheck(x0, 5e-2, |g, x| {
            let gamma = g.input(g0.clone());
            let beta = g.input(b0.clone());
            let (y, _, _) = g.batch_norm(x, gamma, beta, 1e-5, BnMode::Train).unwrap();
            let y2 = g.mul(y, y).unwrap();
            g.sum(y2)
        });
    }

    #[test]
    fn grad_batch_norm_instance() {
        let mut rng = Xorshift::new(18);
        let x0 = rng.uniform_tensor([3, 2, 4, 4], -1.0, 1.0);
        let g0 = rng.uniform_tensor([2], 0.5, 1.5);
        let b0 = rng.uniform_tensor([2], -0.5, 0.5);
        gradcheck(x0, 5e-2, |g, x| {
            let gamma = g.input(g0.clone());
            let beta = g.input(b0.clone());
            let (y, _, _) = g.batch_norm(x, gamma, beta, 1e-5, BnMode::Instance).unwrap();
            let y2 = g.mul(y, y).unwrap();
            g.sum(y2)
        });
    }

    #[test]
    fn batch_norm_instance_normalises_each_sample_alone() {
        let mut rng = Xorshift::new(19);
        let x0 = rng.uniform_tensor([3, 2, 5, 5], -2.0, 4.0);
        let (g0, b0) = (rng.uniform_tensor([2], 0.5, 1.5), rng.uniform_tensor([2], -0.5, 0.5));
        let mut all = x0.clone();
        let (mean, _) =
            batch_norm_in_place(&mut all, g0.data(), b0.data(), 1e-5, &BnMode::Instance).unwrap();
        assert_eq!(mean.len(), 3 * 2, "one statistic per (sample, channel)");
        let plane = 2 * 25;
        for s in 0..3 {
            let sample = &x0.data()[s * plane..(s + 1) * plane];
            // alone, under Instance and under Train: bit-identical at N = 1
            for mode in [BnMode::Instance, BnMode::Train] {
                let mut one = Tensor::from_vec([1, 2, 5, 5], sample.to_vec()).unwrap();
                batch_norm_in_place(&mut one, g0.data(), b0.data(), 1e-5, &mode).unwrap();
                assert_eq!(&all.data()[s * plane..(s + 1) * plane], one.data(), "sample {s}");
            }
        }
        // ...while batch statistics mix the samples
        let mut batch = x0.clone();
        batch_norm_in_place(&mut batch, g0.data(), b0.data(), 1e-5, &BnMode::Train).unwrap();
        assert!(!batch.all_close(&all, 1e-3));
    }

    #[test]
    fn grad_batch_norm_gamma_beta() {
        let mut rng = Xorshift::new(9);
        let x0 = rng.uniform_tensor([2, 2, 3, 3], -1.0, 1.0);
        let g0 = rng.uniform_tensor([2], 0.5, 1.5);
        let b0 = rng.uniform_tensor([2], -0.5, 0.5);

        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let gamma = g.input_grad(g0.clone());
        let beta = g.input_grad(b0.clone());
        let (y, _, _) = g.batch_norm(x, gamma, beta, 1e-5, BnMode::Train).unwrap();
        let y2 = g.mul(y, y).unwrap();
        let loss = g.sum(y2);
        let grads = g.backward(loss);
        let ggamma = grads.get(gamma).unwrap().clone();
        let gbeta = grads.get(beta).unwrap().clone();

        let f = |gv: &Tensor, bv: &Tensor| -> f32 {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let gamma = g.input(gv.clone());
            let beta = g.input(bv.clone());
            let (y, _, _) = g.batch_norm(x, gamma, beta, 1e-5, BnMode::Train).unwrap();
            let y2 = g.mul(y, y).unwrap();
            let loss = g.sum(y2);
            g.value(loss).item().unwrap()
        };
        let eps = 1e-2;
        for idx in 0..2 {
            let mut gp = g0.clone();
            gp.data_mut()[idx] += eps;
            let mut gm = g0.clone();
            gm.data_mut()[idx] -= eps;
            let fd = (f(&gp, &b0) - f(&gm, &b0)) / (2.0 * eps);
            assert!((fd - ggamma.data()[idx]).abs() < 0.05 * (1.0 + fd.abs()), "gamma {idx}: {fd} vs {}", ggamma.data()[idx]);

            let mut bp = b0.clone();
            bp.data_mut()[idx] += eps;
            let mut bm = b0.clone();
            bm.data_mut()[idx] -= eps;
            let fd = (f(&g0, &bp) - f(&g0, &bm)) / (2.0 * eps);
            assert!((fd - gbeta.data()[idx]).abs() < 0.05 * (1.0 + fd.abs()), "beta {idx}: {fd} vs {}", gbeta.data()[idx]);
        }
    }

    #[test]
    fn batch_norm_normalizes() {
        let mut rng = Xorshift::new(10);
        let x0 = rng.uniform_tensor([4, 2, 8, 8], 3.0, 9.0);
        let mut g = Graph::new();
        let x = g.input(x0);
        let gamma = g.input(Tensor::ones([2]));
        let beta = g.input(Tensor::zeros([2]));
        let (y, mean, var) = g.batch_norm(x, gamma, beta, 1e-5, BnMode::Train).unwrap();
        // reported stats should reflect the input distribution
        assert!(mean.iter().all(|&m| (3.0..9.0).contains(&m)));
        assert!(var.iter().all(|&v| v > 0.0));
        // output should be ~N(0,1) per channel
        let yv = g.value(y);
        let m = cc19_tensor::reduce::mean(yv);
        let v = cc19_tensor::reduce::variance(yv);
        assert!(m.abs() < 1e-3, "mean {m}");
        assert!((v - 1.0).abs() < 1e-2, "var {v}");
    }

    #[test]
    fn param_grads_routed_to_params() {
        let w = Param::new("w", Tensor::from_vec([2], vec![1.0, 2.0]).unwrap());
        let mut g = Graph::new();
        let x = g.input(Tensor::from_vec([2], vec![3.0, 4.0]).unwrap());
        let wv = g.param(&w);
        let y = g.mul(x, wv).unwrap();
        let loss = g.sum(y);
        let grads = g.backward(loss);
        // param grad lives in the Param, not in Grads
        assert!(grads.get(wv).is_none());
        assert_eq!(w.borrow().grad.as_ref().unwrap().data(), &[3.0, 4.0]);
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let w = Param::new("w", Tensor::from_vec([1], vec![2.0]).unwrap());
        for _ in 0..2 {
            let mut g = Graph::new();
            let wv = g.param(&w);
            let loss = g.sum(wv);
            g.backward(loss);
        }
        assert_eq!(w.borrow().grad.as_ref().unwrap().data(), &[2.0]);
    }

    #[test]
    fn no_grad_paths_are_pruned() {
        // A graph whose loss doesn't require grad records no backward work.
        let mut g = Graph::new();
        let x = g.input(Tensor::ones([4]));
        let y = g.scale(x, 2.0);
        let loss = g.sum(y);
        let grads = g.backward(loss);
        assert!(grads.get(x).is_none());
        assert!(grads.get(y).is_none());
    }

    #[test]
    fn diamond_graph_accumulates_both_branches() {
        // loss = sum(x*2) + sum(x*3) => dloss/dx = 5
        let mut g = Graph::new();
        let x = g.input_grad(Tensor::ones([3]));
        let a = g.scale(x, 2.0);
        let b = g.scale(x, 3.0);
        let s = g.add(a, b).unwrap();
        let loss = g.sum(s);
        let grads = g.backward(loss);
        assert_eq!(grads.get(x).unwrap().data(), &[5.0, 5.0, 5.0]);
    }
}
