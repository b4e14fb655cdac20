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
use flexdist_kernels::{
    gemm_nn, gemm_nt, getrf_nopiv, potrf, syrk_ln, trsm_left_lower_unit, trsm_right_lower_trans,
    trsm_right_upper, Kernel, KernelCostModel, KernelError, TiledMatrix,
};
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
    /// starts from; every output tile does the same number of
    /// kernel flops).
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

/// Which matrix of a run a tile lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mat {
    /// The input, factorized in place by LU and Cholesky.
    A,
    /// GEMM's second input.
    B,
    /// The separate output SYRK and GEMM accumulate into.
    C,
}

impl Mat {
    /// Tile `(i, j)` of this matrix.
    #[must_use]
    pub fn at(self, i: usize, j: usize) -> TileRef {
        TileRef { mat: self, i, j }
    }
}

/// One tile operand of a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileRef {
    /// The matrix the tile belongs to.
    pub mat: Mat,
    /// Tile row.
    pub i: usize,
    /// Tile column.
    pub j: usize,
}

/// The kernel table: everything a graph builder, an executor or the
/// recovery planner needs to know about a task is read from here
/// ([`Op::kernel`], [`Op::write`], [`Op::reads`], [`Op::epoch`]) or run
/// from here ([`Op::apply`]). `flexdist-verify`'s `access` module
/// re-derives the same facts on its own and the DAG linter diffs the two.
impl Op {
    /// `(kernel, tile updated in place, read-only operands in
    /// kernel-argument order, iteration)`.
    fn row(self) -> (Kernel, TileRef, [Option<TileRef>; 2], usize) {
        use Mat::{A, B, C};
        match self {
            Op::Getrf { l } => (Kernel::Getrf, A.at(l, l), [None, None], l),
            Op::Potrf { l } => (Kernel::Potrf, A.at(l, l), [None, None], l),
            Op::TrsmColUpper { i, l } | Op::TrsmLowerTrans { i, l } => {
                (Kernel::Trsm, A.at(i, l), [Some(A.at(l, l)), None], l)
            }
            Op::TrsmRowLower { l, j } => (Kernel::Trsm, A.at(l, j), [Some(A.at(l, l)), None], l),
            Op::GemmNn { i, j, l } => (
                Kernel::Gemm,
                A.at(i, j),
                [Some(A.at(i, l)), Some(A.at(l, j))],
                l,
            ),
            Op::GemmNt { i, j, l } => (
                Kernel::Gemm,
                A.at(i, j),
                [Some(A.at(i, l)), Some(A.at(j, l))],
                l,
            ),
            Op::SyrkUpdate { j, l } => (Kernel::Syrk, A.at(j, j), [Some(A.at(j, l)), None], l),
            Op::SyrkAccumulate { i, j, l } if i == j => {
                (Kernel::Syrk, C.at(j, j), [Some(A.at(j, l)), None], l)
            }
            Op::SyrkAccumulate { i, j, l } => (
                Kernel::Gemm,
                C.at(i, j),
                [Some(A.at(i, l)), Some(A.at(j, l))],
                l,
            ),
            Op::GemmAb { i, j, l } => (
                Kernel::Gemm,
                C.at(i, j),
                [Some(A.at(i, l)), Some(B.at(l, j))],
                l,
            ),
        }
    }

    /// The cost-model kernel class (duration, flops, label).
    #[must_use]
    pub fn kernel(self) -> Kernel {
        self.row().0
    }

    /// The tile updated in place; its owner runs the task.
    #[must_use]
    pub fn write(self) -> TileRef {
        self.row().1
    }

    /// The read-only operands, in kernel-argument order.
    #[must_use]
    pub fn reads(self) -> [Option<TileRef>; 2] {
        self.row().2
    }

    /// The factorization iteration the task belongs to (its `l`) — the
    /// epoch scale of crash schedules and of broadcast tile versions.
    #[must_use]
    pub fn epoch(self) -> u32 {
        self.row().3 as u32
    }

    /// Run the kernel on `out` (the [`Op::write`] tile) with `reads` (the
    /// [`Op::reads`] tiles, same order), all `nb × nb` row-major.
    ///
    /// # Errors
    /// The panel kernels' numerical failures (zero pivot, not positive
    /// definite).
    ///
    /// # Panics
    /// Panics if `reads` does not hold exactly the operands of
    /// [`Op::reads`].
    pub fn apply(
        self,
        out: &mut [f64],
        reads: [Option<&[f64]>; 2],
        nb: usize,
    ) -> Result<(), KernelError> {
        match (self, reads) {
            (Op::Getrf { .. }, [None, None]) => return getrf_nopiv(out, nb),
            (Op::Potrf { .. }, [None, None]) => return potrf(out, nb),
            (Op::TrsmColUpper { .. }, [Some(diag), None]) => trsm_right_upper(diag, out, nb),
            (Op::TrsmRowLower { .. }, [Some(diag), None]) => trsm_left_lower_unit(diag, out, nb),
            (Op::TrsmLowerTrans { .. }, [Some(diag), None]) => {
                trsm_right_lower_trans(diag, out, nb);
            }
            (Op::GemmNn { .. }, [Some(left), Some(right)]) => {
                gemm_nn(-1.0, left, right, 1.0, out, nb);
            }
            (Op::GemmNt { .. }, [Some(left), Some(right)]) => {
                gemm_nt(-1.0, left, right, 1.0, out, nb);
            }
            (Op::SyrkUpdate { .. }, [Some(src), None]) => syrk_ln(-1.0, src, 1.0, out, nb),
            (Op::SyrkAccumulate { .. }, [Some(src), None]) => syrk_ln(1.0, src, 1.0, out, nb),
            (Op::SyrkAccumulate { .. }, [Some(left), Some(right)]) => {
                gemm_nt(1.0, left, right, 1.0, out, nb);
            }
            (Op::GemmAb { .. }, [Some(left), Some(right)]) => {
                gemm_nn(1.0, left, right, 1.0, out, nb);
            }
            (op, _) => panic!("{op:?} applied to the wrong number of operands"),
        }
        Ok(())
    }
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
    /// Data handle of tile (i, j) of each registered matrix, indexed by
    /// [`Mat`].
    handles: [Vec<DataId>; 3],
    t: usize,
}

impl<'a> Builder<'a> {
    fn new(a: &'a TileAssignment, cost: &'a KernelCostModel) -> Self {
        let mut b = Self {
            gb: GraphBuilder::new(),
            ops: Vec::new(),
            cost,
            a,
            handles: [Vec::new(), Vec::new(), Vec::new()],
            t: a.tiles(),
        };
        b.register(Mat::A, false);
        b
    }

    /// Register the next matrix's tiles in row-major order (with
    /// `lower_only`, the lower triangle including the diagonal), each
    /// homed like the same tile of `A`. `flexdist-verify`'s `access`
    /// module pins the resulting handle layout.
    fn register(&mut self, mat: Mat, lower_only: bool) {
        let t = self.t;
        let bytes = self.cost.tile_bytes();
        let mut handles = vec![DataId::MAX; t * t];
        for i in 0..t {
            for j in 0..if lower_only { i + 1 } else { t } {
                handles[i * t + j] = self.gb.add_data(self.a.owner(i, j), bytes);
            }
        }
        self.handles[mat as usize] = handles;
    }

    /// Submit the task of `op`: node, cost, label and access list all
    /// come from the kernel table. Inlined into every builder loop, where
    /// the op's variant is known, so the table row folds to constants per
    /// call site (without it `build_graph` measured 8 % slower on
    /// `lu_g2dbc_p7_fine`'s 299 536 tasks).
    #[inline(always)]
    fn submit(&mut self, op: Op, priority: i64) {
        let h = |r: TileRef| self.handles[r.mat as usize][r.i * self.t + r.j];
        let (kernel, write, reads, _) = op.row();
        let rw = Access::read_write(h(write));
        let accesses = match reads.map(|r| r.map(|r| Access::read(h(r)))) {
            [Some(a), Some(b)] => vec![a, b, rw],
            [Some(a), None] => vec![a, rw],
            [None, _] => vec![rw],
        };
        self.gb.submit(TaskSpec {
            node: self.a.owner(write.i, write.j),
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
/// followed by the lower triangle of the output `C`; for
/// [`Operation::Gemm`], `A`, then `B`, then `C`, all full grids. Every
/// matrix follows the same assignment.
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
        Operation::Syrk => build_syrk(&mut b, t),
        Operation::Gemm => build_gemm(&mut b, t),
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
        b.submit(Op::Getrf { l }, prio(t, l, 2));
        for i in (l + 1)..t {
            b.submit(Op::TrsmColUpper { i, l }, prio(t, l, 1));
        }
        for j in (l + 1)..t {
            b.submit(Op::TrsmRowLower { l, j }, prio(t, l, 1));
        }
        for i in (l + 1)..t {
            for j in (l + 1)..t {
                b.submit(Op::GemmNn { i, j, l }, prio(t, l, 0));
            }
        }
    }
}

fn build_cholesky(b: &mut Builder<'_>, t: usize) {
    for l in 0..t {
        b.submit(Op::Potrf { l }, prio(t, l, 2));
        for i in (l + 1)..t {
            b.submit(Op::TrsmLowerTrans { i, l }, prio(t, l, 1));
        }
        for j in (l + 1)..t {
            b.submit(Op::SyrkUpdate { j, l }, prio(t, l, 0));
            for i in (j + 1)..t {
                b.submit(Op::GemmNt { i, j, l }, prio(t, l, 0));
            }
        }
    }
}

fn build_syrk(b: &mut Builder<'_>, t: usize) {
    b.register(Mat::C, true);
    for l in 0..t {
        for j in 0..t {
            for i in j..t {
                b.submit(Op::SyrkAccumulate { i, j, l }, prio(t, l, 0));
            }
        }
    }
}

fn build_gemm(b: &mut Builder<'_>, t: usize) {
    b.register(Mat::B, false);
    b.register(Mat::C, false);
    for l in 0..t {
        for i in 0..t {
            for j in 0..t {
                b.submit(Op::GemmAb { i, j, l }, 0);
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
