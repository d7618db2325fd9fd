//! `cc19-lint`: a workspace-wide invariant linter.
//!
//! The compiler cannot check the repo-specific invariants that keep the
//! pipeline's results bit-reproducible and its serving/training paths
//! panic-free (DESIGN.md §11). This crate is a self-contained,
//! dependency-free static-analysis pass over the workspace `.rs` sources
//! — a lightweight token-level scanner, not a full parser — enforcing:
//!
//! * **determinism** — no ambient clocks (`Instant::now`,
//!   `SystemTime::now`) or ambient RNG (`thread_rng`, `from_entropy`,
//!   `rand::random`) in the numeric crates (`tensor`, `kernels`, `nn`,
//!   `ddnet`, `ctsim`) or in `obs` itself; the sole sanctioned
//!   wall-clock read is `cc19_obs::MonotonicClock`, allowlisted in
//!   `lint.toml` with a reason.
//! * **metric-naming** — every metric name registered against the
//!   `cc19-obs` registry with a string literal is snake_case and carries
//!   its crate's prefix (`serve_…` in `crates/serve`, `tensor_…` in
//!   `crates/tensor`, …), so exported keys sort by subsystem.
//! * **panic-surface** — no `unwrap`/`expect`/`panic!`-family calls in
//!   the fault-tolerant paths (`dist::transport`, the `serve` dispatch
//!   crate, `nn::checkpoint` I/O); those paths carry typed errors.
//! * **api-parity** — every public `*_into` buffer-reuse function has an
//!   allocating twin, and both are named together in at least one test.
//! * **unsafe-budget** — the workspace is `unsafe`-free; a file may opt
//!   out only with an explicit `// cc19-lint: allow(unsafe, "reason")`
//!   marker.
//! * **doc-coverage** — every crate opts into the `[workspace.lints]`
//!   table (which carries `missing_docs = "warn"`, escalated to an error
//!   by the tier-1 `clippy -D warnings` gate).
//! * **whitespace** — the `cargo fmt --check`-equivalent gate: no
//!   trailing whitespace, tab indentation, carriage returns, or missing
//!   final newline.
//!
//! The v2 cross-function rules (DESIGN.md §16) build a workspace call
//! graph ([`graph`]) and a lock-site model ([`locks`]) on top of the
//! same token stream:
//!
//! * **lock-order** — the may-hold-while-acquiring graph over the
//!   serve/dist/monitor lock sites must be acyclic; any cycle is a
//!   potential deadlock, reported with both lock names and the
//!   witnessing call chain.
//! * **blocking-under-lock** — no channel `recv`, `JoinHandle::join`,
//!   TCP I/O, or condvar wait on a *different* lock while a lock guard
//!   is held (directly or through calls).
//!
//! Heap traffic on the inference path is not a lint rule: the counting
//! allocator in `crates/pipeline/tests/alloc_ratchet.rs` measures it
//! exactly (DESIGN.md §16).
//!
//! Run it with `cargo run -p cc19-lint`; it exits non-zero on any
//! violation and is wired into `scripts/tier1.sh`, which also
//! byte-compares the deterministic `--report results/lint_report.json`
//! artifact across two consecutive runs.

pub mod config;
pub mod graph;
pub mod locks;
pub mod report;
pub mod rules;
pub mod scanner;
pub mod walk;

pub use config::LintConfig;
pub use report::Violation;
pub use rules::{run_rules, SourceFile, RULE_NAMES};
