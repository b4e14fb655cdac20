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
//! Layout convention: tiles are square `nb × nb`, **column-major**
//! (`a[i + j*nb]` is element `(i, j)`), matching LAPACK so the algorithms
//! transcribe literally.

#![forbid(unsafe_code)]

pub mod blas;
pub mod cost;
pub mod factorize;
pub mod matrix;
pub mod tile;

pub use blas::{
    gemm_nn, gemm_nt, gemm_tn, syrk_ln, trsm_left_lower_nonunit, trsm_left_lower_trans_nonunit,
    trsm_left_lower_unit, trsm_left_upper_nonunit, trsm_right_lower_trans, trsm_right_upper,
};
pub use cost::{Kernel, KernelCostModel};
pub use factorize::{getrf_nopiv, potrf, KernelError};
pub use matrix::TiledMatrix;
pub use tile::Tile;
