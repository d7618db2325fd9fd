//! # cc19-bench
//!
//! Shared plumbing for the per-table / per-figure harness binaries
//! (`src/bin/table*.rs`, `src/bin/fig*.rs`) and the criterion benches
//! (`benches/`). See DESIGN.md §4 for the experiment index.
//!
//! Every harness:
//! - accepts `--quick` (default) or `--full` to pick the experiment scale;
//! - prints a paper-style table to stdout with the paper's values
//!   alongside for comparison;
//! - writes machine-readable output under `results/`.


use std::fmt::Display;
use std::path::{Path, PathBuf};

use cc19_ddnet::{Ddnet, DdnetConfig, KernelTimes};
use cc19_kernels::OptLevel;
use cc19_tensor::rng::Xorshift;

/// Scale selector parsed from argv.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale defaults.
    Quick,
    /// Larger, closer-to-paper configuration.
    Full,
}

/// Parse `--quick` / `--full` from the process args (quick by default).
pub fn parse_scale() -> Scale {
    if std::env::args().any(|a| a == "--full") {
        Scale::Full
    } else {
        Scale::Quick
    }
}

/// The `results/` directory (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir.canonicalize().unwrap_or(dir)
}

/// Write a string to `results/<name>`.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write result file");
    println!("\n[written] {}", path.display());
}

/// Simple fixed-width table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Column widths.
    pub fn new(widths: &[usize]) -> Self {
        TablePrinter { widths: widths.to_vec() }
    }

    /// Print one row.
    pub fn row(&self, cells: &[&dyn Display]) {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let w = self.widths.get(i).copied().unwrap_or(12);
            line.push_str(&format!("{:<w$}  ", c.to_string(), w = w));
        }
        println!("{}", line.trim_end());
    }

    /// Print a separator line.
    pub fn sep(&self) {
        let total: usize = self.widths.iter().map(|w| w + 2).sum();
        println!("{}", "-".repeat(total));
    }
}

/// Format a `Duration`-like seconds value for tables.
pub fn fmt_secs(s: f64) -> String {
    if s < 0.01 {
        format!("{:.4}", s)
    } else if s < 10.0 {
        format!("{:.3}", s)
    } else {
        format!("{:.1}", s)
    }
}

/// One `Ddnet::enhance_timed` call of the paper network on a random
/// `n`×`n` slice at ladder stage `level`: the measured rows of Tables 4,
/// 5 and 7.
pub fn timed_ddnet(n: usize, level: OptLevel, seed: u64) -> KernelTimes {
    let net = Ddnet::new(DdnetConfig::paper(), seed);
    let img = Xorshift::new(seed).uniform_tensor([n, n], 0.0, 1.0);
    net.enhance_timed(&img, level).expect("a slice extent divisible by 16").1
}

/// Standard harness banner.
pub fn banner(id: &str, what: &str, scale: Scale) {
    println!("=== ComputeCOVID19+ reproduction: {id} — {what} [{}] ===", match scale {
        Scale::Quick => "--quick",
        Scale::Full => "--full",
    });
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(0.001234), "0.0012");
        assert_eq!(fmt_secs(1.234), "1.234");
        assert_eq!(fmt_secs(123.4), "123.4");
    }
}
