//! # cc19-tensor
//!
//! Contiguous, row-major `f32` N-dimensional tensors with rayon-parallel
//! primitives. This crate is the numerical substrate for the
//! ComputeCOVID19+ reproduction: the autograd engine (`cc19-nn`), the CT
//! simulator (`cc19-ctsim`) and the hand-written inference kernels
//! (`cc19-kernels`) are all built on it.
//!
//! Design notes (see DESIGN.md §7):
//! - all data is `f32` and contiguous; views/strides are deliberately not
//!   supported — every op produces a fresh contiguous tensor, which keeps
//!   the hot loops simple, vectorizable, and race-free under rayon;
//! - shape errors at API boundaries are `Result`s (`TensorError`), while
//!   internal invariant violations are `debug_assert!`s;
//! - parallel reductions use fixed-shape chunking so results are
//!   bit-reproducible for a given thread-count-independent chunking.


pub mod conv;
pub mod conv_backend;
pub mod error;
pub mod gemm;
pub mod gemm_conv;
pub mod obs;
pub mod ops;
pub mod pool;
pub mod reduce;
pub mod resize;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use conv_backend::ConvBackend;
pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
