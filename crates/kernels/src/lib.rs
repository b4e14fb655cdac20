//! # flexdist-kernels
//!
//! From-scratch dense linear-algebra kernels on square `f64` tiles, plus the
//! flop-based cost model that feeds the cluster simulator.
//!
//! The paper's experiments run Chameleon on top of Intel MKL; this crate is
//! the stand-in substrate: the same four/five elementary kernels that tiled
//! LU and Cholesky factorizations are built from, implemented directly so
//! the end-to-end distributed factorizations can be validated numerically
//! (residual checks) without external BLAS.
//!
//! The factorization kernels share one register-blocked micro-tile of fused
//! multiply-adds (`micro`), compiled for AVX2+FMA and for the build
//! target's baseline and chosen at run time (`dispatch`, the crate's one
//! `unsafe` block). Each output element is a fixed chain of fused
//! multiply-adds in ascending `k`, so results are bit-for-bit the same on
//! every arm, vector width and blocking — the tests hold every kernel to
//! a naive `mul_add` loop.
//!
//! Layout convention: tiles are square `nb × nb`, **column-major**
//! (`a[i + j*nb]` is element `(i, j)`), matching LAPACK so the algorithms
//! transcribe literally.

// `deny`, not `forbid`: `dispatch` carries the one `#[allow]`.
#![deny(unsafe_code)]

pub mod blas;
#[cfg(test)]
mod contract;
pub mod cost;
mod dispatch;
pub mod factorize;
pub mod matrix;
mod micro;
pub mod tile;

pub use blas::{
    gemm_nn, gemm_nt, gemm_tn, syrk_ln, trsm_left_lower_nonunit, trsm_left_lower_trans_nonunit,
    trsm_left_lower_unit, trsm_left_upper_nonunit, trsm_right_lower_trans, trsm_right_upper,
};
pub use cost::{Kernel, KernelCostModel};
pub use factorize::{getrf_nopiv, potrf, KernelError};
pub use matrix::TiledMatrix;
pub use tile::Tile;
