//! Task-graph builders for the tiled operations.
//!
//! Each builder walks the right-looking algorithm in sequential program
//! order and submits one task per kernel invocation, with
//!
//! * the executing node chosen by the **owner-computes** rule (the node
//!   owning the written tile, per the [`TileAssignment`]);
//! * access modes describing the true dataflow, from which the runtime
//!   infers the DAG;
//! * durations and flops from the [`KernelCostModel`];
//! * Chameleon-style static priorities: earlier iterations outrank later
//!   ones and panel kernels outrank updates, keeping the critical path
//!   moving.

use crate::residual::{cholesky_residual, lu_residual, syrk_residual};
use flexdist_dist::{cholesky_comm_volume, lu_comm_volume, CommBreakdown, TileAssignment, Walk};
use flexdist_kernels::{Kernel, KernelCostModel, TiledMatrix};
use flexdist_runtime::{Access, DataId, GraphBuilder, TaskGraph, TaskSpec};

/// Which factorization/kernel to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operation {
    /// LU without pivoting on the full matrix.
    Lu,
    /// Cholesky on the lower triangle.
    Cholesky,
    /// `C ← A·Aᵀ` accumulating into the lower triangle of a separate `C`.
    Syrk,
    /// General matrix product `C ← A·B` into a separate full `C`
    /// (the kernel the communication-lower-bound literature of §II-A
    /// starts from; also the native workload of the heterogeneous
    /// rectangle partitions).
    Gemm,
}

impl Operation {
    /// Total useful flops of the operation on a `t × t` tile matrix with
    /// tile size `nb` (standard dense counts: `2/3 m³` for LU, `1/3 m³` for
    /// Cholesky, `m³` for SYRK, with `m = t·nb`).
    #[must_use]
    pub fn total_flops(self, t: usize, nb: usize) -> f64 {
        let m = (t * nb) as f64;
        match self {
            Operation::Lu => 2.0 / 3.0 * m * m * m,
            Operation::Cholesky => 1.0 / 3.0 * m * m * m,
            Operation::Syrk => m * m * m,
            Operation::Gemm => 2.0 * m * m * m,
        }
    }

    /// The Fig. 2 broadcast walk of the operation; `None` for the ones
    /// without a distributed broadcast schedule (SYRK, GEMM).
    #[must_use]
    pub fn walk(self) -> Option<Walk> {
        match self {
            Operation::Lu => Some(Walk::Lu),
            Operation::Cholesky => Some(Walk::Cholesky),
            Operation::Syrk | Operation::Gemm => None,
        }
    }

    /// The seeded input of the operation, the same matrix for the same
    /// `(t, nb, seed)` at every entry point: diagonally dominant for LU,
    /// SPD with the upper triangle mirrored in for Cholesky, uniform for
    /// the two products.
    #[must_use]
    pub fn input(self, t: usize, nb: usize, seed: u64) -> TiledMatrix {
        match self {
            Operation::Lu => TiledMatrix::random_diag_dominant(t, nb, seed),
            Operation::Cholesky => {
                let mut m = TiledMatrix::random_spd(t, nb, seed);
                m.symmetrize_from_lower();
                m
            }
            Operation::Syrk | Operation::Gemm => TiledMatrix::random_uniform(t, nb, seed),
        }
    }

    /// Exact crash-free communication volume under `a`; `None` exactly
    /// where [`Operation::walk`] is.
    #[must_use]
    pub fn comm_volume(self, a: &TileAssignment) -> Option<CommBreakdown> {
        match self {
            Operation::Lu => Some(lu_comm_volume(a)),
            Operation::Cholesky => Some(cholesky_comm_volume(a)),
            Operation::Syrk | Operation::Gemm => None,
        }
    }

    /// Relative residual of `result` against the `original` input; `None`
    /// for GEMM, whose reference product needs both inputs.
    #[must_use]
    pub fn residual(self, original: &TiledMatrix, result: &TiledMatrix) -> Option<f64> {
        match self {
            Operation::Lu => Some(lu_residual(original, result)),
            Operation::Cholesky => Some(cholesky_residual(original, result)),
            Operation::Syrk => Some(syrk_residual(original, result)),
            Operation::Gemm => None,
        }
    }

    /// Human-readable name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Operation::Lu => "lu",
            Operation::Cholesky => "cholesky",
            Operation::Syrk => "syrk",
            Operation::Gemm => "gemm",
        }
    }
}

/// One concrete kernel invocation, aligned index-wise with the task ids of
/// the built [`TaskGraph`]. The real executor interprets these against a
/// `TiledMatrix`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// LU panel factorization of tile `(l, l)`.
    Getrf { l: usize },
    /// LU column solve: `A(i,l) ← A(i,l)·U(l,l)⁻¹`.
    TrsmColUpper { i: usize, l: usize },
    /// LU row solve: `A(l,j) ← L(l,l)⁻¹·A(l,j)`.
    TrsmRowLower { l: usize, j: usize },
    /// LU update: `A(i,j) −= A(i,l)·A(l,j)`.
    GemmNn { i: usize, j: usize, l: usize },
    /// Cholesky panel factorization of tile `(l, l)`.
    Potrf { l: usize },
    /// Cholesky solve: `A(i,l) ← A(i,l)·L(l,l)⁻ᵀ`.
    TrsmLowerTrans { i: usize, l: usize },
    /// Cholesky diagonal update: `A(j,j) −= A(j,l)·A(j,l)ᵀ`.
    SyrkUpdate { j: usize, l: usize },
    /// Cholesky/SYRK off-diagonal update: `A(i,j) −= A(i,l)·A(j,l)ᵀ`.
    GemmNt { i: usize, j: usize, l: usize },
    /// SYRK accumulation into a separate output: `C(i,j) += A(i,l)·A(j,l)ᵀ`
    /// (diagonal uses the symmetric kernel).
    SyrkAccumulate { i: usize, j: usize, l: usize },
    /// GEMM accumulation with two inputs: `C(i,j) += A(i,l)·B(l,j)`.
    GemmAb { i: usize, j: usize, l: usize },
}

/// A built task graph plus the aligned kernel list.
#[derive(Debug, Clone)]
pub struct TaskList {
    /// The dependency graph (feed to `flexdist_runtime::simulate`).
    pub graph: TaskGraph,
    /// `ops[id]` is the kernel behind task `id`.
    pub ops: Vec<Op>,
    /// The operation this graph implements.
    pub operation: Operation,
    /// Tiles per dimension.
    pub t: usize,
}

struct Builder<'a> {
    gb: GraphBuilder,
    ops: Vec<Op>,
    cost: &'a KernelCostModel,
    a: &'a TileAssignment,
    /// Data handle of input/in-place tile (i, j).
    handles: Vec<DataId>,
    t: usize,
}

impl<'a> Builder<'a> {
    fn new(a: &'a TileAssignment, cost: &'a KernelCostModel) -> Self {
        let t = a.tiles();
        let mut gb = GraphBuilder::new();
        let bytes = cost.tile_bytes();
        let mut handles = Vec::with_capacity(t * t);
        for i in 0..t {
            for j in 0..t {
                handles.push(gb.add_data(a.owner(i, j), bytes));
            }
        }
        Self {
            gb,
            ops: Vec::new(),
            cost,
            a,
            handles,
            t,
        }
    }

    fn h(&self, i: usize, j: usize) -> DataId {
        self.handles[i * self.t + j]
    }

    fn submit(
        &mut self,
        op: Op,
        kernel: Kernel,
        write_tile: (usize, usize),
        priority: i64,
        accesses: Vec<Access>,
    ) {
        let node = self.a.owner(write_tile.0, write_tile.1);
        self.gb.submit(TaskSpec {
            node,
            duration: self.cost.duration(kernel),
            flops: kernel.flops(self.cost.nb),
            priority,
            label: kernel.name(),
            accesses,
        });
        self.ops.push(op);
    }
}

/// Build the task graph of `operation` on a `t × t` tile matrix distributed
/// by `assignment`, with kernel timings from `cost`.
///
/// For [`Operation::Syrk`] the data handles comprise the `t × t` input `A`
/// followed by the lower triangle of the output `C`; `C` tiles follow the
/// same assignment.
///
/// # Panics
/// Panics if `cost.nb == 0` or the assignment is empty.
#[must_use]
pub fn build_graph(
    operation: Operation,
    assignment: &TileAssignment,
    cost: &KernelCostModel,
) -> TaskList {
    assert!(cost.nb > 0, "tile size must be positive");
    let mut b = Builder::new(assignment, cost);
    let t = b.t;
    match operation {
        Operation::Lu => build_lu(&mut b, t),
        Operation::Cholesky => build_cholesky(&mut b, t),
        Operation::Syrk => build_syrk(&mut b, t, cost),
        Operation::Gemm => build_gemm(&mut b, t, cost),
    }
    TaskList {
        graph: b.gb.build(),
        ops: b.ops,
        operation,
        t,
    }
}

/// Priority helper: iteration `l` of `t`, with `boost` distinguishing panel
/// (2), solve (1) and update (0) kernels.
fn prio(t: usize, l: usize, boost: i64) -> i64 {
    3 * (t - l) as i64 + boost
}

fn build_lu(b: &mut Builder<'_>, t: usize) {
    for l in 0..t {
        b.submit(
            Op::Getrf { l },
            Kernel::Getrf,
            (l, l),
            prio(t, l, 2),
            vec![Access::read_write(b.h(l, l))],
        );
        for i in (l + 1)..t {
            b.submit(
                Op::TrsmColUpper { i, l },
                Kernel::Trsm,
                (i, l),
                prio(t, l, 1),
                vec![Access::read(b.h(l, l)), Access::read_write(b.h(i, l))],
            );
        }
        for j in (l + 1)..t {
            b.submit(
                Op::TrsmRowLower { l, j },
                Kernel::Trsm,
                (l, j),
                prio(t, l, 1),
                vec![Access::read(b.h(l, l)), Access::read_write(b.h(l, j))],
            );
        }
        for i in (l + 1)..t {
            for j in (l + 1)..t {
                b.submit(
                    Op::GemmNn { i, j, l },
                    Kernel::Gemm,
                    (i, j),
                    prio(t, l, 0),
                    vec![
                        Access::read(b.h(i, l)),
                        Access::read(b.h(l, j)),
                        Access::read_write(b.h(i, j)),
                    ],
                );
            }
        }
    }
}

fn build_cholesky(b: &mut Builder<'_>, t: usize) {
    for l in 0..t {
        b.submit(
            Op::Potrf { l },
            Kernel::Potrf,
            (l, l),
            prio(t, l, 2),
            vec![Access::read_write(b.h(l, l))],
        );
        for i in (l + 1)..t {
            b.submit(
                Op::TrsmLowerTrans { i, l },
                Kernel::Trsm,
                (i, l),
                prio(t, l, 1),
                vec![Access::read(b.h(l, l)), Access::read_write(b.h(i, l))],
            );
        }
        for j in (l + 1)..t {
            b.submit(
                Op::SyrkUpdate { j, l },
                Kernel::Syrk,
                (j, j),
                prio(t, l, 0),
                vec![Access::read(b.h(j, l)), Access::read_write(b.h(j, j))],
            );
            for i in (j + 1)..t {
                b.submit(
                    Op::GemmNt { i, j, l },
                    Kernel::Gemm,
                    (i, j),
                    prio(t, l, 0),
                    vec![
                        Access::read(b.h(i, l)),
                        Access::read(b.h(j, l)),
                        Access::read_write(b.h(i, j)),
                    ],
                );
            }
        }
    }
}

fn build_syrk(b: &mut Builder<'_>, t: usize, cost: &KernelCostModel) {
    // Register the output C (lower triangle incl. diagonal) after A.
    let bytes = cost.tile_bytes();
    let mut c_handles = vec![DataId::MAX; t * t];
    for i in 0..t {
        for j in 0..=i {
            c_handles[i * t + j] = b.gb.add_data(b.a.owner(i, j), bytes);
        }
    }
    for l in 0..t {
        for j in 0..t {
            // Diagonal accumulation C(j,j) += A(j,l) A(j,l)^T.
            b.submit(
                Op::SyrkAccumulate { i: j, j, l },
                Kernel::Syrk,
                (j, j),
                prio(t, l, 0),
                vec![
                    Access::read(b.h(j, l)),
                    Access::read_write(c_handles[j * t + j]),
                ],
            );
            for i in (j + 1)..t {
                b.submit(
                    Op::SyrkAccumulate { i, j, l },
                    Kernel::Gemm,
                    (i, j),
                    prio(t, l, 0),
                    vec![
                        Access::read(b.h(i, l)),
                        Access::read(b.h(j, l)),
                        Access::read_write(c_handles[i * t + j]),
                    ],
                );
            }
        }
    }
}

fn build_gemm(b: &mut Builder<'_>, t: usize, cost: &KernelCostModel) {
    // Handle layout: A was registered by Builder::new; append B then C,
    // both full t x t grids distributed like C's owner map.
    let bytes = cost.tile_bytes();
    let mut b_handles = vec![DataId::MAX; t * t];
    let mut c_handles = vec![DataId::MAX; t * t];
    for i in 0..t {
        for j in 0..t {
            b_handles[i * t + j] = b.gb.add_data(b.a.owner(i, j), bytes);
        }
    }
    for i in 0..t {
        for j in 0..t {
            c_handles[i * t + j] = b.gb.add_data(b.a.owner(i, j), bytes);
        }
    }
    for l in 0..t {
        for i in 0..t {
            for j in 0..t {
                b.submit(
                    Op::GemmAb { i, j, l },
                    Kernel::Gemm,
                    (i, j),
                    0,
                    vec![
                        Access::read(b.h(i, l)),
                        Access::read(b_handles[l * t + j]),
                        Access::read_write(c_handles[i * t + j]),
                    ],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexdist_core::twodbc;

    fn setup(t: usize) -> (TileAssignment, KernelCostModel) {
        let pat = twodbc::two_dbc(2, 2);
        (
            TileAssignment::cyclic(&pat, t),
            KernelCostModel::uniform(4, 10.0),
        )
    }

    #[test]
    fn lu_task_count() {
        // Sum over l of 1 + 2(t-1-l) + (t-1-l)^2.
        let (a, c) = setup(5);
        let tl = build_graph(Operation::Lu, &a, &c);
        let t = 5usize;
        let expect: usize = (0..t)
            .map(|l| 1 + 2 * (t - 1 - l) + (t - 1 - l) * (t - 1 - l))
            .sum();
        assert_eq!(tl.graph.n_tasks(), expect);
        assert_eq!(tl.ops.len(), expect);
    }

    #[test]
    fn cholesky_task_count() {
        let (a, c) = setup(6);
        let tl = build_graph(Operation::Cholesky, &a, &c);
        let t = 6usize;
        // 1 potrf + (t-1-l) trsm + (t-1-l) syrk + C(t-1-l, 2) gemm per iter.
        let expect: usize = (0..t)
            .map(|l| {
                let k = t - 1 - l;
                1 + k + k + k * (k.saturating_sub(1)) / 2
            })
            .sum();
        assert_eq!(tl.graph.n_tasks(), expect);
    }

    #[test]
    fn syrk_task_count() {
        let (a, c) = setup(4);
        let tl = build_graph(Operation::Syrk, &a, &c);
        // t iterations x t(t+1)/2 output tiles.
        assert_eq!(tl.graph.n_tasks(), 4 * (4 * 5 / 2));
    }

    #[test]
    fn gemm_task_count_and_structure() {
        let (a, c) = setup(4);
        let tl = build_graph(Operation::Gemm, &a, &c);
        assert_eq!(tl.graph.n_tasks(), 4 * 4 * 4);
        // A, B and C handles all registered: 3 t^2 data.
        assert_eq!(tl.graph.n_data(), 3 * 16);
        // Accumulations into the same C tile chain up: t tasks, t-1 edges
        // each, i.e. every GemmAb except the first per (i,j) has >= 1 dep.
        let first = &tl.ops[0];
        assert!(matches!(first, Op::GemmAb { i: 0, j: 0, l: 0 }));
        assert_eq!(tl.graph.n_deps_of(0), 0);
        // The l = 1 update of C(0,0) is task 16 and depends on task 0.
        assert!(matches!(tl.ops[16], Op::GemmAb { i: 0, j: 0, l: 1 }));
        assert_eq!(tl.graph.n_deps_of(16), 1);
    }

    #[test]
    fn first_lu_tasks_depend_on_panel() {
        let (a, c) = setup(3);
        let tl = build_graph(Operation::Lu, &a, &c);
        // Task 0 is getrf(0); its successors are the 4 trsms of iteration 0.
        let succ = tl.graph.successors_of(0);
        assert_eq!(succ.len(), 4);
        assert_eq!(tl.graph.n_deps_of(0), 0);
        // A gemm of iteration 0 has 2 trsm dependencies (its RW tile is
        // untouched so far).
        let gemm_id = 1 + 4; // getrf + 4 trsms, first gemm
        assert!(matches!(tl.ops[gemm_id], Op::GemmNn { i: 1, j: 1, l: 0 }));
        assert_eq!(tl.graph.n_deps_of(gemm_id as u32), 2);
    }

    #[test]
    fn owner_computes_rule_applied() {
        let (a, c) = setup(4);
        for op in [Operation::Lu, Operation::Cholesky] {
            let tl = build_graph(op, &a, &c);
            for (id, kop) in tl.ops.iter().enumerate() {
                let (wi, wj) = match *kop {
                    Op::Getrf { l } | Op::Potrf { l } => (l, l),
                    Op::TrsmColUpper { i, l } | Op::TrsmLowerTrans { i, l } => (i, l),
                    Op::TrsmRowLower { l, j } => (l, j),
                    Op::GemmNn { i, j, .. }
                    | Op::GemmNt { i, j, .. }
                    | Op::SyrkAccumulate { i, j, .. }
                    | Op::GemmAb { i, j, .. } => (i, j),
                    Op::SyrkUpdate { j, .. } => (j, j),
                };
                assert_eq!(tl.graph.node_of(id as u32), a.owner(wi, wj));
            }
        }
    }

    #[test]
    fn flops_match_closed_form() {
        // Tile-level kernel flops must sum to the operation's total.
        let (a, c) = setup(6);
        let tl = build_graph(Operation::Cholesky, &a, &c);
        let total = tl.graph.total_flops();
        let expect = Operation::Cholesky.total_flops(6, c.nb);
        // The tile formulas drop lower-order (n^2) terms; tolerance scales
        // with 1/t.
        let rel = (total - expect).abs() / expect;
        assert!(rel < 0.15, "total {total} vs closed form {expect}");
    }

    #[test]
    fn critical_path_shorter_than_sequential() {
        let (a, c) = setup(8);
        let tl = build_graph(Operation::Lu, &a, &c);
        assert!(tl.graph.critical_path() < tl.graph.sequential_time() / 2.0);
    }

    #[test]
    fn operation_metadata() {
        assert_eq!(Operation::Lu.name(), "lu");
        let m = (4 * 8) as f64;
        assert!((Operation::Syrk.total_flops(4, 8) - m * m * m).abs() < 1e-9);
    }
}
