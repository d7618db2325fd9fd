//! Operation counting for Table 6: global memory loads, stores and
//! floating-point operations per kernel, for an input of size
//! `H × W × C`.
//!
//! Counting conventions (reverse-engineered from the paper's Table 6 and
//! validated in the tests below):
//!
//! - convolution / deconvolution (k×k, `C -> C` channels, 'same' size):
//!   each output element runs `C·k²` taps; each tap issues one input load
//!   and one weight load (2 loads) and one multiply + one add (2 flops);
//!   one store per output. With `H·W·C` outputs:
//!   `loads = flops = 2·H·W·C·C·k²`, `stores = H·W·C`.
//! - pooling (3×3, stride 2): `out = (H/2)·(W/2)·C` outputs × 9 loads,
//!   1 store, 0 flops (comparisons are not counted as flops).
//! - un-pooling (bilinear ×2): `out = 4·H·W·C` outputs × 4 loads, 1 store,
//!   14 flops (the 2D lerp).
//! - leaky-ReLU: 1 load, 1 store, 1 flop per element.
//! - batch norm (inference): 5 loads (x, mean, var, gamma, beta), 1 store,
//!   5 flops per element.

/// Loads / stores / flops of one kernel invocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Global memory load operations.
    pub loads: u64,
    /// Global memory store operations.
    pub stores: u64,
    /// Floating-point operations.
    pub flops: u64,
}

impl OpCounts {
    /// Pretty numbers in the paper's unit (10^6 operations).
    pub fn in_millions(&self) -> (f64, f64, f64) {
        (self.loads as f64 / 1e6, self.stores as f64 / 1e6, self.flops as f64 / 1e6)
    }
}

/// The six Table 6 rows for a given input size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCounts {
    /// Convolution row.
    pub convolution: OpCounts,
    /// Deconvolution row.
    pub deconvolution: OpCounts,
    /// Pooling row.
    pub pooling: OpCounts,
    /// Un-pooling row.
    pub unpooling: OpCounts,
    /// Leaky-ReLU row.
    pub leaky_relu: OpCounts,
    /// Batch-normalization row.
    pub batch_norm: OpCounts,
}

/// Counts of a single convolution/deconvolution layer with distinct
/// input/output channel widths: `loads = flops = 2·H·W·Cout·Cin·k²`,
/// `stores = H·W·Cout` (H, W are the *output* extents).
pub fn conv_layer_counts(h: u64, w: u64, cin: u64, cout: u64, k: u64) -> OpCounts {
    let taps = h * w * cout * cin * k * k;
    OpCounts { loads: 2 * taps, stores: h * w * cout, flops: 2 * taps }
}

/// Counts of one pooling layer (3×3, stride 2) with `h × w` *input*.
pub fn pool_layer_counts(h: u64, w: u64, c: u64) -> OpCounts {
    let out = (h / 2) * (w / 2) * c;
    OpCounts { loads: 9 * out, stores: out, flops: 0 }
}

/// Counts of one bilinear ×2 un-pooling layer with `h × w` *input*.
pub fn unpool_layer_counts(h: u64, w: u64, c: u64) -> OpCounts {
    let out = 4 * h * w * c;
    OpCounts { loads: 4 * out, stores: out, flops: 14 * out }
}

/// Counts of one leaky-ReLU pass over `e` elements.
pub fn leaky_relu_counts(e: u64) -> OpCounts {
    OpCounts { loads: e, stores: e, flops: e }
}

/// Counts of one inference batch-norm pass over `e` elements.
pub fn batch_norm_counts(e: u64) -> OpCounts {
    OpCounts { loads: 5 * e, stores: e, flops: 5 * e }
}

/// Counts of a channel concatenation producing `e` elements (pure copy).
pub fn concat_counts(e: u64) -> OpCounts {
    OpCounts { loads: e, stores: e, flops: 0 }
}

impl std::ops::Add for OpCounts {
    type Output = OpCounts;
    fn add(self, o: OpCounts) -> OpCounts {
        OpCounts {
            loads: self.loads + o.loads,
            stores: self.stores + o.stores,
            flops: self.flops + o.flops,
        }
    }
}

impl std::ops::AddAssign for OpCounts {
    fn add_assign(&mut self, o: OpCounts) {
        *self = *self + o;
    }
}

/// Analytic counts for an `h × w × c` input with `k × k` filters
/// (the paper's Table 6 uses 512 × 512 × 32 and k = 5).
pub fn kernel_counts(h: u64, w: u64, c: u64, k: u64) -> KernelCounts {
    let (e, conv) = (h * w * c, conv_layer_counts(h, w, c, c, k));
    KernelCounts {
        convolution: conv,
        deconvolution: conv,
        pooling: pool_layer_counts(h, w, c),
        unpooling: unpool_layer_counts(h, w, c),
        leaky_relu: leaky_relu_counts(e),
        batch_norm: batch_norm_counts(e),
    }
}

/// Instrumented (loop-counted) convolution/deconvolution taps — used by
/// tests to validate the analytic formula against an actual kernel loop.
/// Counts one tap per `(output element, input channel, filter tap)`
/// triple, i.e. the iteration count of the gather kernel without the
/// boundary short-circuit (the paper's counters count kernel iterations).
pub fn counted_conv_taps(h: u64, w: u64, c: u64, k: u64) -> OpCounts {
    let mut loads = 0u64;
    let mut stores = 0u64;
    let mut flops = 0u64;
    for _oy in 0..h {
        for _ox in 0..w {
            for _co in 0..c {
                for _ci in 0..c {
                    for _ky in 0..k {
                        for _kx in 0..k {
                            loads += 2; // input element + weight
                            flops += 2; // multiply + add
                        }
                    }
                }
                stores += 1;
            }
        }
    }
    OpCounts { loads, stores, flops }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The headline check: Table 6 of the paper, input 512×512×32, 5×5
    /// filters. Paper values (in 10^6): conv/deconv loads 13421.7, stores
    /// 8.4, flops 13421.7; pooling 18.9/2.1/0; un-pooling 134.3/33.5/469.7;
    /// leaky-ReLU 8.4/8.4/8.4; batch norm 41.9/8.4/41.9.
    #[test]
    fn table6_values_reproduced() {
        let k = kernel_counts(512, 512, 32, 5);
        let close = |got: f64, paper: f64| {
            assert!((got - paper).abs() / paper < 0.01, "got {got} vs paper {paper}");
        };
        let (l, s, f) = k.convolution.in_millions();
        close(l, 13421.7);
        close(s, 8.4);
        close(f, 13421.7);
        assert_eq!(k.deconvolution, k.convolution);

        let (l, s, f) = k.pooling.in_millions();
        close(l, 18.9);
        close(s, 2.1);
        assert_eq!(f, 0.0);

        let (l, s, f) = k.unpooling.in_millions();
        close(l, 134.3);
        close(s, 33.5);
        close(f, 469.7);

        let (l, s, f) = k.leaky_relu.in_millions();
        close(l, 8.4);
        close(s, 8.4);
        close(f, 8.4);

        let (l, s, f) = k.batch_norm.in_millions();
        close(l, 41.9);
        close(s, 8.4);
        close(f, 41.9);
    }

    #[test]
    fn analytic_matches_instrumented_loop() {
        for (h, w, c, k) in [(6u64, 5, 2, 3), (8, 8, 3, 5), (4, 7, 1, 1)] {
            let analytic = kernel_counts(h, w, c, k).convolution;
            let counted = counted_conv_taps(h, w, c, k);
            assert_eq!(analytic, counted, "h={h} w={w} c={c} k={k}");
        }
    }

    #[test]
    fn conv_dominates_other_kernels() {
        // The paper's §5.1.3 profiling rests on conv/deconv dwarfing the
        // rest; the counts should reflect that by orders of magnitude.
        let k = kernel_counts(512, 512, 32, 5);
        assert!(k.convolution.flops > 1000 * k.unpooling.flops / 100);
        assert!(k.convolution.loads > 100 * k.batch_norm.loads);
        assert!(k.convolution.loads > 500 * k.pooling.loads);
    }

    #[test]
    fn counts_scale_quadratically_in_channels() {
        let a = kernel_counts(64, 64, 8, 5).convolution;
        let b = kernel_counts(64, 64, 16, 5).convolution;
        assert_eq!(b.loads, 4 * a.loads);
        assert_eq!(b.stores, 2 * a.stores);
    }
}
