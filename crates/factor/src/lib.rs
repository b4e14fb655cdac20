//! # flexdist-factor
//!
//! Tiled dense factorizations on top of the distribution and runtime
//! substrates: the "Chameleon" layer of the reproduction.
//!
//! Four operations are provided, each as a tiled algorithm
//! submitted in sequential-task-flow order (dependencies inferred by
//! `flexdist-runtime`):
//!
//! * **LU** without pivoting (`getrf_nopiv`, the variant Chameleon uses in
//!   the paper's experiments) on a full `t × t` tile matrix;
//! * **Cholesky** (`potrf`) on the lower triangle of an SPD matrix;
//! * **SYRK** (`C ← A·Aᵀ`, lower triangle) — the other symmetric kernel the
//!   SBC/GCR&M distributions target;
//! * **GEMM** (`C ← A·B`, two inputs) — the uniform-work kernel the
//!   communication-lower-bound literature starts from; every output tile
//!   costs the same `t` tile products.
//!
//! Each operation can be
//!
//! * [`simulate`](simulate())d on a configurable cluster (makespan,
//!   GFlop/s, message counts — the paper's plotted quantities), or
//! * [`execute`](execute())d for real on a thread pool with the actual
//!   `f64` kernels, validating the distributed algorithm numerically.

// `unsafe` is confined to the work-stealing deque (`steal`), which is
// currently written without it; if it ever returns there, every block
// must carry a `// SAFETY:` comment (enforced by `flexdist verify --lint`).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod conformance;
pub mod dexec;
pub mod execute;
pub mod graphs;
pub mod recovery;
pub mod replay;
pub mod residual;
pub mod simulate;
pub mod solve;
pub mod steal;
pub mod sweep;

pub use conformance::{Clause, Problem, ProblemError, Violation};
pub use dexec::{
    derive_schedule, execute_distributed_with, execute_rank_socket, merge_rank_outcomes, Backend,
    CommSchedule, DexecOptions, DexecOutput, RankOutcome, TaskBcast,
};
pub use execute::{
    execute, execute_pair, execute_traced, execute_with, ExecEvent, ExecEventKind, ExecOptions,
    ExecReport, ExecTrace, WorkerStats,
};
pub use graphs::{build_graph, Mat, Op, Operation, TaskList, TileRef};
pub use recovery::{derive_recovery, RecoverPlan, NO_RANK};
pub use replay::{
    replay_trace, replay_trace_str, LinkCompare, ReplayError, ReplayOptions, ReplayReport,
};
pub use simulate::{simulate, SimSetup};
pub use solve::{cholesky_solve, lu_solve, solve_residual, BlockVector};
pub use sweep::SweepBuilder;

// The distributed engine's wire substrate, re-exported so downstream
// consumers (CLI, benches, tests) reach the message-passing types
// without a separate dependency edge.
pub use flexdist_net as net;
