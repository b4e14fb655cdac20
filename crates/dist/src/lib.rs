//! # flexdist-dist
//!
//! Replicating a distribution [`Pattern`](flexdist_core::Pattern) over a
//! concrete tiled matrix, and analysing the result.
//!
//! * [`TileAssignment`] — the `t × t` map from matrix tiles to owner nodes,
//!   including the **extended** greedy placement of undefined (diagonal)
//!   pattern cells used by extended SBC and GCR&M (paper §V);
//! * [`comm`] — exact per-iteration communication-volume counting for
//!   right-looking LU and Cholesky under the owner-computes rule, together
//!   with the closed-form estimates of paper Eq. 1 / Eq. 2;
//! * [`schedule`] — the Fig. 2 broadcast walk itself: each
//!   factorization's reader sets, spelled once ([`Walk`]);
//! * [`splice`] — that walk resolved against an assignment chain into
//!   the message stream (sender, tile, epoch, distinct receiver set) of
//!   a run with k ≥ 0 crashes, and its total / recovered volume split;
//!   the crash-free stream is the k = 0 chain, and the volume counters
//!   of [`comm`] are folds of it;
//! * [`load`] — per-node tile-count and flop-weighted load reports.

#![forbid(unsafe_code)]

pub mod assignment;
pub mod comm;
pub mod load;
pub mod schedule;
pub mod splice;

pub use assignment::TileAssignment;
pub use comm::{cholesky_comm_volume, gemm_comm_volume, lu_comm_volume, CommBreakdown};
pub use load::LoadReport;
pub use schedule::{BcastClass, Walk};
pub use splice::{spliced_chain, spliced_volume, SplicedMsg, SplicedVolume};
