//! Compiled inference plans: one network forward, one input shape, one
//! arena (DESIGN.md §8).
//!
//! [`Plan::compile`] runs a network's `run` once on a [`Recorder`] — an
//! [`Exec`] whose values are shapes, not tensors — and lays the recorded
//! ops out in one arena:
//!
//! - every op output is a *slot* of the arena; a batch norm, leaky-ReLU or
//!   residual add overwrites its input slot when that op is the input's
//!   last use, and writes a fresh slot otherwise;
//! - a channel concatenation of two plan-produced slots is *coalesced*: at
//!   batch size 1 an NCHW tensor's channel ranges are contiguous, so the
//!   two producers write adjacent ranges of one slot and the concat copies
//!   nothing. Each dense block is one channel-stacked slot its convolutions
//!   append to, and each decoder stage's `[deconv | skip]` slot is where
//!   the encoder wrote the skip. A concat that cannot be coalesced copies;
//! - each slot lives from its first write to its last read (through any
//!   concatenation that contains it); the slots are placed in the arena by
//!   first-fit interval colouring of those lifetimes, largest first, each
//!   concatenation's slots kept at their relative offsets.
//!
//! [`Plan::run`] then walks the flat op list: no tape, no per-op
//! allocation, no concat copies, and each op's kernel and accumulation
//! order those of the tensor and ladder functions it wraps, so its bits.
//! Parameters and batch-norm statistics are borrowed from the network at
//! run time, so a plan stays valid across weight updates; a new input
//! shape needs a new plan.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use cc19_kernels::OptLevel;
use cc19_tensor::conv::{conv2d_into, Conv2dSpec};
use cc19_tensor::conv_backend::ConvBackend;
use cc19_tensor::gemm_conv::conv2d_gemm_into;
use cc19_tensor::pool::{global_avg_pool_into, max_pool2d_into, max_pool3d_into, PoolSpec};
use cc19_tensor::resize::Bilinear;
use cc19_tensor::{Tensor, TensorError};

use crate::exec::{
    conv2d_ladder_into, conv3d_shape, conv3d_taps_into, deconv_gather_into, ladder2d_dims, Exec, LADDER_LEVEL,
};
use crate::graph::{batch_norm_infer, linear_into};
use crate::layers::{BatchNorm, BnForward, Conv2d, Conv3d, ConvTranspose2d, Linear, Running};
use crate::param::ParamRef;
use crate::Result;

/// Which kernels a plan's 2D convolutions and deconvolutions run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernels {
    /// Serving: convolutions on `conv2d_dispatch`'s per-shape
    /// [`ConvBackend::Auto`] choice (direct or panelled GEMM),
    /// deconvolutions and 3D convolutions on the kernel ladder's top stage.
    Served,
    /// Convolutions and deconvolutions on the kernel ladder at this stage
    /// (the measured rows of Tables 4, 5 and 7).
    Stage(OptLevel),
}

/// Table 5's kernel classes, one per plan op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// 2D and 3D convolutions.
    Conv,
    /// Deconvolutions.
    Deconv,
    /// Everything else: batch norm, activation, pooling, un-pooling,
    /// concatenation copies, the residual add, the linear head.
    Other,
}

/// A value of a network being recorded: an index into the recorder's
/// shape table. Slot 0 is the plan's input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// A convolution layer's parameters, borrowed at run time.
struct ConvRef {
    w: ParamRef,
    b: Option<ParamRef>,
    spec: Conv2dSpec,
}

impl ConvRef {
    fn new(w: &ParamRef, b: &Option<ParamRef>, spec: Conv2dSpec) -> ConvRef {
        ConvRef { w: w.clone(), b: b.clone(), spec }
    }
}

/// Where a 2D convolution runs.
#[derive(Debug, Clone, Copy)]
enum ConvPath {
    Direct,
    Gemm,
    Stage(OptLevel),
}

/// One recorded op.
enum Op {
    Conv(ConvRef, ConvPath),
    Deconv(ConvRef, OptLevel),
    Conv3d(ConvRef),
    /// Gamma, beta, epsilon and the running statistics (`None`: each
    /// sample's own).
    BatchNorm(ParamRef, ParamRef, f32, Option<Rc<RefCell<Running>>>),
    LeakyRelu(f32),
    MaxPool(PoolSpec),
    MaxPool3d(PoolSpec),
    GlobalAvgPool,
    Linear(ParamRef, ParamRef),
    Upsample(Bilinear),
    Concat,
    Add,
}

impl Op {
    fn class(&self) -> OpClass {
        match self {
            Op::Conv(..) | Op::Conv3d(..) => OpClass::Conv,
            Op::Deconv(..) => OpClass::Deconv,
            _ => OpClass::Other,
        }
    }

    /// Whether the op may overwrite its first input.
    fn in_place(&self) -> bool {
        matches!(self, Op::BatchNorm(..) | Op::LeakyRelu(_) | Op::Add)
    }
}

/// An op as recorded: its inputs and output by slot.
struct Rec {
    op: Op,
    ins: Vec<usize>,
    out: usize,
}

/// The executor [`Plan::compile`] runs a network on: it checks and
/// records each op and its output shape, and computes nothing.
pub struct Recorder {
    kernels: Kernels,
    bn: BnForward,
    /// Shape of every slot; slot 0 is the input.
    shapes: Vec<Vec<usize>>,
    ops: Vec<Rec>,
}

impl Recorder {
    fn shape(&self, x: Slot) -> &[usize] {
        &self.shapes[x.0]
    }

    fn push(&mut self, op: Op, ins: &[Slot], shape: Vec<usize>) -> Slot {
        let out = self.shapes.len();
        self.shapes.push(shape);
        self.ops.push(Rec { op, ins: ins.iter().map(|s| s.0).collect(), out });
        Slot(out)
    }

    /// `x`'s shape, for an op that keeps it, its rank checked to be in
    /// `ranks`.
    fn same(&self, op: &str, x: Slot, ranks: Range<usize>) -> Result<Vec<usize>> {
        let d = self.shape(x);
        if !ranks.contains(&d.len()) {
            return Err(TensorError::Incompatible(format!("{op}: unsupported input shape {d:?}")));
        }
        Ok(d.to_vec())
    }
}

fn param_dims(p: &ParamRef) -> Vec<usize> {
    p.borrow().value.dims().to_vec()
}

impl Exec for Recorder {
    type V = Slot;

    fn conv(&mut self, layer: &Conv2d, x: Slot) -> Result<Slot> {
        let (d, wd) = (self.shape(x).to_vec(), param_dims(&layer.weight));
        let path = match self.kernels {
            Kernels::Stage(level) => ConvPath::Stage(level),
            Kernels::Served => match ConvBackend::Auto.resolve_conv2d_dims(&d, &wd, layer.spec) {
                ConvBackend::Gemm => ConvPath::Gemm,
                _ => ConvPath::Direct,
            },
        };
        let shape = match path {
            ConvPath::Stage(_) => ladder2d_dims("conv2d_ladder", false, &d, &wd, layer.spec)?.to_vec(),
            _ => {
                let spec = layer.spec;
                let square = d.len() == 4 && wd.len() == 4 && wd[2] == wd[3];
                if !square || d[1] != wd[1] || d[2].min(d[3]) + 2 * spec.padding < wd[2] {
                    return Err(TensorError::Incompatible(format!("conv2d: input {d:?} does not fit weight {wd:?}")));
                }
                vec![d[0], wd[0], spec.out_extent(d[2], wd[2]), spec.out_extent(d[3], wd[3])]
            }
        };
        Ok(self.push(Op::Conv(ConvRef::new(&layer.weight, &layer.bias, layer.spec), path), &[x], shape))
    }

    fn deconv(&mut self, layer: &ConvTranspose2d, x: Slot) -> Result<Slot> {
        let level = match self.kernels {
            Kernels::Stage(level) => level,
            Kernels::Served => LADDER_LEVEL,
        };
        let shape = ladder2d_dims("deconv2d_gather", true, self.shape(x), &param_dims(&layer.weight), layer.spec)?;
        Ok(self.push(Op::Deconv(ConvRef::new(&layer.weight, &layer.bias, layer.spec), level), &[x], shape.to_vec()))
    }

    fn conv3d(&mut self, layer: &Conv3d, x: Slot) -> Result<Slot> {
        let s = conv3d_shape(self.shape(x), &param_dims(&layer.weight), layer.spec)?;
        let (od, oh, ow) = s.out_dhw();
        let shape = vec![self.shape(x)[0], s.cout, od, oh, ow];
        Ok(self.push(Op::Conv3d(ConvRef::new(&layer.weight, &layer.bias, layer.spec)), &[x], shape))
    }

    fn batch_norm(&mut self, layer: &BatchNorm, x: Slot) -> Result<Slot> {
        let shape = self.same("batch_norm", x, 2..usize::MAX)?;
        let running = match self.bn {
            BnForward::Train => {
                return Err(TensorError::Incompatible("BatchNorm: BnForward::Train is not an inference mode".into()))
            }
            BnForward::InstanceEval => None,
            BnForward::RunningEval => Some(layer.running.clone()),
        };
        if shape[1] != layer.channels() {
            return Err(TensorError::Incompatible(format!("batch_norm: {shape:?} for {} channels", layer.channels())));
        }
        let op = Op::BatchNorm(layer.gamma.clone(), layer.beta.clone(), layer.eps, running);
        Ok(self.push(op, &[x], shape))
    }

    fn leaky_relu(&mut self, x: Slot, slope: f32) -> Slot {
        let shape = self.shape(x).to_vec();
        self.push(Op::LeakyRelu(slope), &[x], shape)
    }

    fn max_pool(&mut self, x: Slot, spec: PoolSpec) -> Result<Slot> {
        let d = self.same("max_pool2d", x, 4..5)?;
        let shape = vec![d[0], d[1], spec.out_extent(d[2]), spec.out_extent(d[3])];
        Ok(self.push(Op::MaxPool(spec), &[x], shape))
    }

    fn max_pool3d(&mut self, x: Slot, spec: PoolSpec) -> Result<Slot> {
        let d = self.same("max_pool3d", x, 5..6)?;
        let shape = vec![d[0], d[1], spec.out_extent(d[2]), spec.out_extent(d[3]), spec.out_extent(d[4])];
        Ok(self.push(Op::MaxPool3d(spec), &[x], shape))
    }

    fn global_avg_pool(&mut self, x: Slot) -> Result<Slot> {
        let d = self.same("global_avg_pool", x, 3..usize::MAX)?;
        Ok(self.push(Op::GlobalAvgPool, &[x], vec![d[0], d[1]]))
    }

    fn linear(&mut self, layer: &Linear, x: Slot) -> Result<Slot> {
        let (d, wd) = (self.same("linear", x, 2..3)?, param_dims(&layer.weight));
        if wd.len() != 2 || wd[0] != d[1] {
            return Err(TensorError::Incompatible(format!("linear: input {d:?} does not fit weight {wd:?}")));
        }
        Ok(self.push(Op::Linear(layer.weight.clone(), layer.bias.clone()), &[x], vec![d[0], wd[1]]))
    }

    fn upsample(&mut self, x: Slot, scale: usize) -> Result<Slot> {
        let d = self.same("upsample_bilinear2d", x, 4..5)?;
        let shape = vec![d[0], d[1], d[2] * scale, d[3] * scale];
        Ok(self.push(Op::Upsample(Bilinear::new(d[2], d[3], scale)), &[x], shape))
    }

    fn concat(&mut self, a: Slot, b: Slot) -> Result<Slot> {
        let (da, db) = (self.shape(a), self.shape(b));
        if da.len() < 2 || da.len() != db.len() || da[0] != db[0] || da[2..] != db[2..] {
            return Err(TensorError::Incompatible(format!("concat: {da:?} and {db:?} differ off the channel axis")));
        }
        let mut shape = da.to_vec();
        shape[1] += db[1];
        Ok(self.push(Op::Concat, &[a, b], shape))
    }

    fn add(&mut self, a: Slot, b: Slot) -> Result<Slot> {
        let shape = self.shape(a).to_vec();
        if shape != self.shape(b) {
            return Err(TensorError::Incompatible(format!("add: {shape:?} and {:?}", self.shape(b))));
        }
        Ok(self.push(Op::Add, &[a, b], shape))
    }
}

/// Where a slot's elements are at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    /// The caller's input.
    Input,
    /// A range of the arena.
    Arena(usize, usize),
}

/// One op of a compiled plan.
struct Step {
    op: Op,
    ins: Vec<(Loc, usize)>,
    out: Loc,
    /// Whether `out` is the first input's range.
    in_place: bool,
}

/// A network forward compiled for one input shape (module docs).
pub struct Plan {
    dims: Vec<usize>,
    kernels: Kernels,
    shapes: Vec<Vec<usize>>,
    steps: Vec<Step>,
    out: (Loc, usize),
    arena: Vec<f32>,
    live_peak: usize,
    copies: usize,
}

/// A buffer of the layout: an op output or a coalesced concatenation.
struct Buf {
    len: usize,
    /// The concatenation this buffer was coalesced into, at an offset.
    parent: Option<(usize, usize)>,
    merged_into: bool,
}

/// One leaf buffer of a root: its offset in the root, length and
/// lifetime (first and last step touching it).
struct Piece {
    rel: usize,
    len: usize,
    life: (usize, usize),
}

/// First-fit interval colouring: each root in order at the lowest offset
/// where none of its pieces overlaps, in both address and lifetime, a
/// piece already placed. Returns each root's offset, the arena length and
/// the peak of live piece lengths over steps `0..=end`.
fn colour(roots: &[(usize, Vec<Piece>)], end: usize) -> (Vec<usize>, usize, usize) {
    let mut done: Vec<(usize, &Piece)> = Vec::new(); // (address, piece)
    let mut offsets = Vec::with_capacity(roots.len());
    let mut arena_len = 0;
    for (_, pieces) in roots {
        let clash = |o: usize| {
            pieces.iter().any(|q| {
                done.iter().any(|&(addr, p)| {
                    p.life.0 <= q.life.1 && q.life.0 <= p.life.1 && addr < o + q.rel + q.len && o + q.rel < addr + p.len
                })
            })
        };
        // a piece starts at 0 or right after a placed one
        let mut candidates: Vec<usize> = std::iter::once(0)
            .chain(done.iter().flat_map(|&(addr, p)| pieces.iter().filter_map(move |q| (addr + p.len).checked_sub(q.rel))))
            .collect();
        candidates.sort_unstable();
        let o = candidates.into_iter().find(|&o| !clash(o)).unwrap_or(arena_len);
        for q in pieces {
            done.push((o + q.rel, q));
            arena_len = arena_len.max(o + q.rel + q.len);
        }
        offsets.push(o);
    }
    let live = |t: usize| done.iter().filter(|(_, p)| p.life.0 <= t && t <= p.life.1).map(|(_, p)| p.len).sum::<usize>();
    (offsets, arena_len, (0..=end).map(live).max().unwrap_or(0))
}

impl Plan {
    /// Compile `forward` — a network's `run`, handed the recorder and the
    /// input slot — for a `dims`-shaped input, batch-norm statistics
    /// `bn` (an inference mode) and the convolution `kernels`.
    pub fn compile(
        dims: &[usize],
        kernels: Kernels,
        bn: BnForward,
        forward: impl FnOnce(&mut Recorder, Slot) -> Result<Slot>,
    ) -> Result<Plan> {
        let mut rec = Recorder { kernels, bn, shapes: vec![dims.to_vec()], ops: Vec::new() };
        let out = forward(&mut rec, Slot(0))?.0;
        Ok(Plan::lay_out(dims, rec, out))
    }

    fn lay_out(dims: &[usize], rec: Recorder, out: usize) -> Plan {
        let Recorder { shapes, ops, kernels, .. } = rec;
        let numel = |v: usize| shapes[v].iter().product::<usize>();
        let end = ops.len();

        // The last op that needs each slot's contents: a direct read, or a
        // read of a concatenation that contains it (output: the copy-out).
        let mut need = vec![0usize; shapes.len()];
        for (t, r) in ops.iter().enumerate() {
            for &v in &r.ins {
                need[v] = need[v].max(t);
            }
        }
        need[out] = end;
        for r in ops.iter().rev() {
            if matches!(r.op, Op::Concat) {
                for &v in &r.ins {
                    need[v] = need[v].max(need[r.out]);
                }
            }
        }

        // Slot → the buffer it fills: its own, its first input's (in
        // place), or a coalesced concatenation's.
        let mut bufs: Vec<Buf> = Vec::new();
        let mut at: Vec<Option<usize>> = vec![None; shapes.len()];
        let fresh = |bufs: &mut Vec<Buf>, len: usize| {
            bufs.push(Buf { len, parent: None, merged_into: false });
            bufs.len() - 1
        };
        let mut coalesced = vec![false; end];
        for (t, r) in ops.iter().enumerate() {
            let first = r.ins[0];
            at[r.out] = Some(if r.op.in_place() && first != 0 && need[first] == t && !r.ins[1..].contains(&first) {
                at[first].expect("recorded in order")
            } else if let (Op::Concat, &[a, b]) = (&r.op, &r.ins[..]) {
                // a buffer not yet inside another concatenation
                let unplaced = |v: usize, bufs: &Vec<Buf>| at[v].filter(|&buf| bufs[buf].parent.is_none());
                match (unplaced(a, &bufs), unplaced(b, &bufs)) {
                    (Some(ba), Some(bb)) if ba != bb && shapes[r.out][0] == 1 => {
                        let c = fresh(&mut bufs, numel(r.out));
                        bufs[ba].parent = Some((c, 0));
                        bufs[bb].parent = Some((c, numel(a)));
                        bufs[c].merged_into = true;
                        coalesced[t] = true;
                        c
                    }
                    _ => fresh(&mut bufs, numel(r.out)),
                }
            } else {
                fresh(&mut bufs, numel(r.out))
            });
        }

        // Each buffer's root and offset in it; leaves are the buffers that
        // hold elements themselves (everything but coalesced concats).
        let root = |mut b: usize| {
            let mut off = 0;
            while let Some((p, o)) = bufs[b].parent {
                off += o;
                b = p;
            }
            (b, off)
        };
        let placed: Vec<(usize, usize)> = (0..bufs.len()).map(root).collect();
        let region = |v: usize| {
            at[v].map(|b| {
                let (r, off) = placed[b];
                (r, off..off + numel(v))
            })
        };
        // Leaf lifetimes: every step touching a range extends the leaves
        // under it.
        let mut life: Vec<Option<(usize, usize)>> = vec![None; bufs.len()];
        let mut touch = |v: usize, t: usize| {
            if let Some((r, range)) = region(v) {
                for (l, buf) in bufs.iter().enumerate() {
                    let (lr, lo) = placed[l];
                    if !buf.merged_into && lr == r && lo < range.end && range.start < lo + buf.len {
                        let span = life[l].get_or_insert((t, t));
                        *span = (span.0.min(t), span.1.max(t));
                    }
                }
            }
        };
        for (t, r) in ops.iter().enumerate().filter(|(t, _)| !coalesced[*t]) {
            for &v in r.ins.iter().chain([&r.out]) {
                touch(v, t);
            }
        }
        touch(out, end);

        let mut roots: Vec<(usize, Vec<Piece>)> = Vec::new();
        for (l, buf) in bufs.iter().enumerate() {
            if let (false, Some(life)) = (buf.merged_into, life[l]) {
                let (r, rel) = placed[l];
                let piece = Piece { rel, len: buf.len, life };
                match roots.iter_mut().find(|(id, _)| *id == r) {
                    Some((_, pieces)) => pieces.push(piece),
                    None => roots.push((r, vec![piece])),
                }
            }
        }
        roots.sort_by_key(|(r, p)| (std::cmp::Reverse(bufs[*r].len), p.iter().map(|q| q.life.0).min(), *r));
        let (placed_at, arena_len, live_peak) = colour(&roots, end);
        let mut base = vec![0usize; bufs.len()];
        for ((r, _), o) in roots.iter().zip(placed_at) {
            base[*r] = o;
        }

        let loc = |v: usize| match region(v) {
            Some((r, range)) => Loc::Arena(base[r] + range.start, base[r] + range.end),
            None => Loc::Input,
        };
        let copies = ops.iter().enumerate().filter(|(t, r)| matches!(r.op, Op::Concat) && !coalesced[*t]).count();
        let steps = ops
            .into_iter()
            .enumerate()
            .filter(|(t, _)| !coalesced[*t])
            .map(|(_, r)| Step {
                in_place: loc(r.out) == loc(r.ins[0]),
                ins: r.ins.iter().map(|&v| (loc(v), v)).collect(),
                out: loc(r.out),
                op: r.op,
            })
            .collect();
        Plan {
            dims: dims.to_vec(),
            kernels,
            out: (loc(out), out),
            shapes,
            steps,
            arena: vec![0.0; arena_len],
            live_peak: live_peak * std::mem::size_of::<f32>(),
            copies,
        }
    }

    /// The plan in `cache` if it was compiled for `dims` on `kernels`,
    /// else a fresh one from `compile`, kept there — a network's one-plan
    /// cache.
    pub fn cached<'c>(
        cache: &'c mut Option<Plan>,
        dims: &[usize],
        kernels: Kernels,
        compile: impl FnOnce() -> Result<Plan>,
    ) -> Result<&'c mut Plan> {
        if cache.as_ref().is_none_or(|plan| plan.dims != dims || plan.kernels != kernels) {
            *cache = Some(compile()?);
        }
        Ok(cache.as_mut().expect("compiled above"))
    }

    /// The input shape the plan was compiled for.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Bytes of the arena the colouring laid the slots out in.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<f32>()
    }

    /// The most slot bytes live at any one op — the least any layout of
    /// these lifetimes needs.
    pub fn live_peak_bytes(&self) -> usize {
        self.live_peak
    }

    /// Concatenations that copy (could not be coalesced).
    pub fn concat_copies(&self) -> usize {
        self.copies
    }

    /// Kernel class of each op, in run order.
    pub fn classes(&self) -> impl Iterator<Item = OpClass> + '_ {
        self.steps.iter().map(|s| s.op.class())
    }

    /// Run the plan on `x` (the compiled shape's elements, row-major).
    pub fn run(&mut self, x: &[f32]) -> Result<Tensor> {
        self.run_with(x, |step| step())
    }

    /// [`Plan::run`], timing each op between two reads of `now_ns`: the
    /// output and each op's nanoseconds, in [`Plan::classes`] order.
    pub fn run_timed(&mut self, x: &[f32], now_ns: impl Fn() -> u64) -> Result<(Tensor, Vec<u64>)> {
        let mut times = Vec::with_capacity(self.steps.len());
        let y = self.run_with(x, |step| {
            let t0 = now_ns();
            let r = step();
            times.push(now_ns().saturating_sub(t0));
            r
        })?;
        Ok((y, times))
    }

    /// Run every step through `each`, which calls the step it is given.
    fn run_with(&mut self, x: &[f32], mut each: impl FnMut(&mut dyn FnMut() -> Result<()>) -> Result<()>) -> Result<Tensor> {
        if x.len() != self.dims.iter().product::<usize>() {
            return Err(TensorError::Incompatible(format!(
                "plan compiled for {:?} got {} elements",
                self.dims,
                x.len()
            )));
        }
        let Plan { shapes, steps, arena, .. } = self;
        for step in steps.iter() {
            each(&mut || exec(step, shapes, x, arena))?;
        }
        let data = match self.out.0 {
            Loc::Input => x.to_vec(),
            Loc::Arena(lo, hi) => self.arena[lo..hi].to_vec(),
        };
        Tensor::from_vec(self.shapes[self.out.1].clone(), data)
    }
}

/// The arena on either side of one op's output range, and the caller's
/// input: where the op's inputs are read.
struct Inputs<'a> {
    x: &'a [f32],
    below: &'a [f32],
    above: &'a [f32],
    out: (usize, usize),
}

impl<'a> Inputs<'a> {
    /// Split `arena` around the output range `out`.
    fn split(arena: &'a mut [f32], x: &'a [f32], out: Loc) -> Result<(&'a mut [f32], Inputs<'a>)> {
        let Loc::Arena(lo, hi) = out else {
            return Err(TensorError::Incompatible("plan: an op writes the input".into()));
        };
        let (below, rest) = arena.split_at_mut(lo);
        let (o, above) = rest.split_at_mut(hi - lo);
        Ok((o, Inputs { x, below, above, out: (lo, hi) }))
    }

    /// The elements at `l`, which must lie wholly on one side of the
    /// output range (or be the caller's input).
    fn read(&self, l: Loc) -> Result<&'a [f32]> {
        let (lo, hi) = self.out;
        match l {
            Loc::Input => Ok(self.x),
            Loc::Arena(a, b) if b <= lo => Ok(&self.below[a..b]),
            Loc::Arena(a, b) if a >= hi => Ok(&self.above[a - hi..b - hi]),
            Loc::Arena(..) => Err(TensorError::Incompatible("plan: an op's input overlaps its output".into())),
        }
    }
}

fn bias(b: &Option<ParamRef>) -> Option<std::cell::Ref<'_, crate::param::Param>> {
    b.as_ref().map(|b| b.borrow())
}

/// Run one step.
fn exec(step: &Step, shapes: &[Vec<usize>], x: &[f32], arena: &mut [f32]) -> Result<()> {
    let (out, ins) = Inputs::split(arena, x, step.out)?;
    let input = |i: usize| -> Result<(&[f32], &[usize])> {
        let (l, v) = step.ins[i];
        Ok((ins.read(l)?, &shapes[v]))
    };
    // The first input's elements in `out`, for an op that works in place.
    let place = |out: &mut [f32]| -> Result<()> {
        if !step.in_place {
            out.copy_from_slice(input(0)?.0);
        }
        Ok(())
    };
    match &step.op {
        Op::Conv(c, path) => {
            let (xin, d) = input(0)?;
            let (w, b) = (c.w.borrow(), bias(&c.b));
            let bv = b.as_ref().map(|b| &b.value);
            match path {
                ConvPath::Direct => conv2d_into(xin, d, &w.value, bv, c.spec, out),
                ConvPath::Gemm => conv2d_gemm_into(xin, d, &w.value, bv, c.spec, out),
                ConvPath::Stage(level) => conv2d_ladder_into(*level, xin, d, &w.value, bv, c.spec, out),
            }
        }
        Op::Deconv(c, level) => {
            let (xin, d) = input(0)?;
            let (w, b) = (c.w.borrow(), bias(&c.b));
            deconv_gather_into(*level, xin, d, &w.value, b.as_ref().map(|b| &b.value), c.spec, out)
        }
        Op::Conv3d(c) => {
            let (xin, d) = input(0)?;
            let (w, b) = (c.w.borrow(), bias(&c.b));
            conv3d_taps_into(xin, d, &w.value, b.as_ref().map(|b| &b.value), c.spec, out)
        }
        Op::BatchNorm(gamma, beta, eps, running) => {
            place(out)?;
            let (g, b) = (gamma.borrow(), beta.borrow());
            let running = running.as_ref().map(|r| r.borrow());
            let stats = running.as_ref().map(|r| (&r.mean[..], &r.var[..]));
            batch_norm_infer(out, &shapes[step.ins[0].1], g.value.data(), b.value.data(), *eps, stats)
        }
        Op::LeakyRelu(slope) => {
            place(out)?;
            // `ops::leaky_relu`'s map, in place.
            for v in out.iter_mut() {
                if *v < 0.0 {
                    *v *= *slope;
                }
            }
            Ok(())
        }
        Op::MaxPool(spec) => {
            let (xin, d) = input(0)?;
            max_pool2d_into(xin, d, *spec, out)
        }
        Op::MaxPool3d(spec) => {
            let (xin, d) = input(0)?;
            max_pool3d_into(xin, d, *spec, out)
        }
        Op::GlobalAvgPool => {
            let (xin, d) = input(0)?;
            global_avg_pool_into(xin, d, out)
        }
        Op::Linear(w, b) => {
            let (xin, d) = input(0)?;
            linear_into(xin, d, &w.borrow().value, Some(&b.borrow().value), out)
        }
        Op::Upsample(table) => table.resample(input(0)?.0, out),
        Op::Concat => {
            // per sample: `a`'s channels, then `b`'s
            let ((a, d), b) = (input(0)?, input(1)?.0);
            let (sa, sb) = (a.len() / d[0].max(1), b.len() / d[0].max(1));
            for ni in 0..d[0] {
                out[ni * (sa + sb)..][..sa].copy_from_slice(&a[ni * sa..][..sa]);
                out[ni * (sa + sb) + sa..][..sb].copy_from_slice(&b[ni * sb..][..sb]);
            }
            Ok(())
        }
        Op::Add => {
            place(out)?;
            // `ops::axpy(1.0, b, a)`'s update (`1.0 * v` is `v` exactly).
            for (o, &v) in out.iter_mut().zip(input(1)?.0) {
                *o += v;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Tape;
    use crate::graph::Graph;
    use cc19_tensor::rng::Xorshift;

    /// A parameter-free network with every layout case: ops that may and
    /// may not work in place, a chain of coalesced concatenations, and
    /// concatenations that must copy (with the input, of one slot twice).
    fn toy<E: Exec>(ex: &mut E, x: E::V) -> Result<E::V> {
        let a = ex.max_pool(x.clone(), PoolSpec::DDNET)?;
        let b = ex.leaky_relu(a.clone(), 0.1); // `a` is concatenated below
        let c = ex.concat(a, b)?;
        let d = ex.leaky_relu(c.clone(), 0.2);
        let e = ex.concat(c, d)?;
        let f = ex.upsample(e, 2)?;
        let g = ex.concat(f, x)?;
        let h = ex.concat(g.clone(), g)?;
        let i = ex.leaky_relu(h, 0.3); // in place
        ex.add(i.clone(), i)
    }

    fn check(dims: [usize; 4], copies: usize) {
        let x = Xorshift::new(19).uniform_tensor(dims, -1.0, 1.0);
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let want = toy(&mut Tape { g: &mut g, bn: BnForward::InstanceEval }, xv).unwrap();
        let mut plan = Plan::compile(&dims, Kernels::Served, BnForward::InstanceEval, toy).unwrap();
        for _ in 0..2 {
            let got = plan.run(x.data()).unwrap();
            assert_eq!(got.dims(), g.value(want).dims());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(g.value(want)), "{dims:?}");
        }
        assert_eq!(plan.concat_copies(), copies, "{dims:?}");
        assert!(plan.arena_bytes() >= plan.live_peak_bytes());
    }

    #[test]
    fn the_plan_computes_what_the_tape_does() {
        // batch 1: the two concatenations of plan-made slots are views
        check([1, 2, 8, 8], 2);
        // batch 2: channel ranges are not contiguous, every concat copies
        check([2, 2, 8, 8], 4);
    }

    #[test]
    fn a_plan_refuses_the_wrong_input_and_a_training_mode() {
        let mut plan = Plan::compile(&[1, 2, 8, 8], Kernels::Served, BnForward::InstanceEval, toy).unwrap();
        assert!(plan.run(&[0.0; 127]).is_err());
        let bn = |rec: &mut Recorder, x: Slot| {
            let mut store = crate::param::ParamStore::new();
            rec.batch_norm(&BatchNorm::new(&mut store, "bn", 2), x)
        };
        assert!(Plan::compile(&[1, 2, 8, 8], Kernels::Served, BnForward::Train, bn).is_err());
        assert!(Plan::compile(&[1, 3, 8, 8], Kernels::Served, BnForward::RunningEval, bn).is_err(), "3 channels");
    }
}
