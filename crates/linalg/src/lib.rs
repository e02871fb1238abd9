//! Dense linear algebra substrate for the `nnbo` workspace.
//!
//! The Gaussian-process models and the neural-network feature maps of the paper
//! only need dense, moderate-size linear algebra: matrix products, Cholesky and LU
//! factorizations, triangular solves and log-determinants.  This crate implements
//! those primitives from scratch on top of a row-major [`Matrix`] type so that the
//! workspace has no external numeric dependencies.
//!
//! # Kernel architecture: portable blocks + packed-panel SIMD
//!
//! The compute kernels are layered in three tiers, glued together by one
//! runtime dispatch point:
//!
//! 1. **Naive references** (`matmul_naive`, `decompose_reference`, …) — the
//!    textbook loops, kept as the oracle for property tests and the baseline
//!    for benchmarks.  Never used on the hot path.
//! 2. **Portable blocked kernels** (`kernels` module) — cache-blocked,
//!    4-wide-unrolled scalar loops that run on any architecture.  These are
//!    the fallback the dispatch selects when the CPU lacks AVX2/FMA or when
//!    `NNBO_PORTABLE_KERNELS=1` / [`force_portable_kernels`] forces them.
//! 3. **Packed-panel micro-kernels** (`packed` module) — operands are packed
//!    once per block sweep into contiguous `4-row × 8-column` panel layouts
//!    and driven by explicit AVX2+FMA micro-kernels
//!    (`core::arch::x86_64`).  One packed GEMM engine serves all three
//!    product orientations (`A·B`, `A·Bᵀ`, `Aᵀ·B`), a SYRK driver serves the
//!    symmetric products (Gram/normal matrices, the Cholesky trailing
//!    update, the dpotri-style symmetric inverse), and elementwise FMA
//!    helpers serve the batched triangular sweeps.
//!
//! The dispatch (`dispatch` module) probes the CPU once per process with
//! `is_x86_feature_detected!` and can be overridden by environment variable
//! or programmatically; all `unsafe` is confined to `#[target_feature]`
//! functions inside `packed`, reachable only after that probe has confirmed
//! the required features.  [`kernel_isa`] reports which path is active so
//! benchmark artifacts can record it.
//!
//! # Serialized form
//!
//! A [`Matrix`] serializes to `{rows, cols, data}` with `data` one string of
//! 16 lowercase hex digits per element (the `to_bits()` of each `f64`,
//! row-major), so checkpoints restore every bit without decimal float
//! formatting; malformed payloads decode to a `serde::DeError`.
//!
//! # Example
//!
//! ```
//! use nnbo_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), nnbo_linalg::LinalgError> {
//! // A small symmetric positive-definite system A x = b.
//! let a = Matrix::from_rows(&[
//!     vec![4.0, 1.0, 0.0],
//!     vec![1.0, 3.0, 1.0],
//!     vec![0.0, 1.0, 2.0],
//! ]);
//! let b = vec![1.0, 2.0, 3.0];
//! let chol = Cholesky::decompose(&a)?;
//! let x = chol.solve_vec(&b);
//! let r = a.matvec(&x);
//! assert!((r[0] - b[0]).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod cholesky;
mod dispatch;
mod error;
mod kernels;
mod lu;
mod matrix;
mod packed;
mod parallel;
mod stats;
mod vector;

pub use cholesky::Cholesky;
pub use dispatch::{force_portable_kernels, kernel_isa, simd_active, PORTABLE_ENV};
pub use error::LinalgError;
pub use kernels::{matmul_slices, matmul_transpose_slices, transpose_matmul_slices};
pub use lu::Lu;
pub use matrix::Matrix;
pub use stats::{mean, sample_std, standardize, Standardizer};
pub use vector::{
    add, add_scaled, add_scaled_product, dot, fused_dot, norm2, scale, sq_exp_apply,
    squared_distance, sub, weighted_squared_distance,
};
