//! # flexdist
//!
//! A Rust reproduction of *Data Distribution Schemes for Dense Linear
//! Algebra Factorizations on Any Number of Nodes* (Beaumont, Collin,
//! Eyraud-Dubois, Vérité — IPDPS 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — distribution patterns (2DBC, G-2DBC, SBC, GCR&M) and the
//!   communication-cost metric;
//! * [`matching`] — bipartite matching substrate;
//! * [`dist`] — pattern replication over tiled matrices, extended diagonal
//!   assignment, exact communication-volume analysis;
//! * [`kernels`] — dense tile kernels (GEMM, TRSM, POTRF, GETRF, SYRK) and
//!   their flop cost model;
//! * [`runtime`] — a StarPU-like sequential-task-flow runtime with a
//!   discrete-event cluster simulator;
//! * [`factor`] — tiled LU / Cholesky / SYRK / GEMM drivers: simulated,
//!   really executed on a thread pool, and distributed over message-passing
//!   ranks;
//! * [`net`] — the in-process message-passing fabric under the distributed
//!   executor (tile codec, counted links, replica cache).
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` for the
//! reproduction map.

pub use flexdist_core as core;
pub use flexdist_dist as dist;
pub use flexdist_factor as factor;
pub use flexdist_kernels as kernels;
pub use flexdist_matching as matching;
pub use flexdist_net as net;
pub use flexdist_runtime as runtime;

/// Library version (workspace version).
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exported() {
        assert!(!super::VERSION.is_empty());
    }
}
