//! FPGA runtime reconfiguration (paper §4.2.3, Fig 10).
//!
//! The FPGA cannot hold the fully-optimized convolution *and*
//! deconvolution pipelines simultaneously — "simultaneous application of
//! these optimizations leads to excessive resource utilization ...
//! resulting in compilation failures". The paper's answer is to split
//! DDnet into a convolution kernel and a deconvolution kernel, and
//! reconfigure the fabric between them "if the overhead of FPGA
//! reconfiguration [is] less than the gain in performance with optimized
//! kernels".
//!
//! This module models that decision.

use cc19_kernels::OptLevel;

use crate::devices::{Device, DeviceClass};
use crate::model::{ddnet_class_counts, predict_kernel_times, DdnetShape};

/// Typical full-fabric reconfiguration time of an Arria 10-class part
/// (hundreds of ms to a couple of seconds; we use 1 s).
pub const RECONFIG_SECONDS: f64 = 1.0;

/// Outcome of the reconfiguration decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigDecision {
    /// Total time with one shared (compromise, non-vectorized) bitstream.
    pub single_bitstream: f64,
    /// Total time with per-kernel optimized bitstreams + reconfiguration
    /// overhead between the convolution and deconvolution phases.
    pub with_reconfig: f64,
    /// Number of fabric reconfigurations charged.
    pub reconfigs: usize,
    /// True if reconfiguring wins.
    pub worth_it: bool,
}

/// Evaluate the §4.2.3 decision for an FPGA device on a DDnet shape.
///
/// Non-FPGA devices trivially report `worth_it = false` with equal times
/// (their "hardware" is fixed).
pub fn reconfiguration_decision(dev: &Device, shape: DdnetShape) -> ReconfigDecision {
    let counts = ddnet_class_counts(shape);
    let level = OptLevel::RefactoredPrefetchUnrolled;

    if dev.class != DeviceClass::Fpga {
        let t = predict_kernel_times(dev, counts, level, true).total();
        return ReconfigDecision { single_bitstream: t, with_reconfig: t, reconfigs: 0, worth_it: false };
    }

    // Single bitstream: both kernels fit only without the expensive
    // per-kernel optimizations (no deconvolution vectorization).
    let shared = predict_kernel_times(dev, counts, level, false).total();

    // Reconfigured: run the whole encoder with the convolution bitstream,
    // reconfigure once, run the whole decoder with the vectorized
    // deconvolution bitstream (Fig 10 shows the two-phase split), plus
    // one initial configuration.
    let tuned = predict_kernel_times(dev, counts, level, true);
    let reconfigs = 2; // load conv bitstream, then swap to deconv
    let with_reconfig = tuned.total() + reconfigs as f64 * RECONFIG_SECONDS;

    ReconfigDecision {
        single_bitstream: shared,
        with_reconfig,
        reconfigs,
        worth_it: with_reconfig < shared,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::Device;

    #[test]
    fn reconfiguring_pays_off_at_paper_scale() {
        // The paper chose to reconfigure at 512^2 — the gain (Table 7 LU
        // 65.8 s -> Table 4 16.7 s) dwarfs ~2 s of reconfiguration.
        let fpga = Device::find("Arria").unwrap();
        let d = reconfiguration_decision(fpga, DdnetShape::paper());
        assert!(d.worth_it, "decision {d:?}");
        assert!(d.single_bitstream > d.with_reconfig);
        assert_eq!(d.reconfigs, 2);
    }

    #[test]
    fn reconfiguring_not_worth_it_for_tiny_inputs() {
        // For a small slice the kernels finish faster than the fabric can
        // reconfigure — the overhead test the paper describes.
        let fpga = Device::find("Arria").unwrap();
        let d = reconfiguration_decision(fpga, DdnetShape::reduced(64));
        assert!(!d.worth_it, "decision {d:?}");
    }

    #[test]
    fn fixed_hardware_never_reconfigures() {
        for name in ["V100", "6128"] {
            let dev = Device::find(name).unwrap();
            let d = reconfiguration_decision(dev, DdnetShape::paper());
            assert!(!d.worth_it);
            assert_eq!(d.reconfigs, 0);
            assert_eq!(d.single_bitstream, d.with_reconfig);
        }
    }

    #[test]
    fn crossover_exists_between_small_and_large() {
        // Somewhere between 64 and 512 the decision flips — the model
        // produces a real crossover, not a constant answer.
        let fpga = Device::find("Arria").unwrap();
        let flips: Vec<bool> = [64usize, 128, 256, 512]
            .iter()
            .map(|&n| reconfiguration_decision(fpga, DdnetShape::reduced(n)).worth_it)
            .collect();
        assert!(!flips[0]);
        assert!(flips[3]);
        // monotone: once worth it, stays worth it
        let first_true = flips.iter().position(|&b| b).unwrap();
        assert!(flips[first_true..].iter().all(|&b| b));
    }
}
