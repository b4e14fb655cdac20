//! The conformance contract, stated once.
//!
//! The paper explains every GFlop/s curve by one number, the Eq. 1/2
//! communication volume. The executed form of that claim is a contract
//! on every distributed run of a [`Problem`], whatever the backend, the
//! noise or the crashes recovered from: the five [`Clause`]s, compared
//! in [`Problem::judge`] and nowhere else. The test suites keep their
//! own spelled-out assertions on purpose: the judge is checked against
//! them.

use crate::dexec::{execute_distributed_with, DexecOptions, DexecOutput};
use crate::execute::{execute_with, ExecOptions};
use crate::graphs::{build_graph, Operation, TaskList};
use crate::recovery::{derive_recovery, RecoverPlan};
use flexdist_core::{Pattern, PatternError};
use flexdist_dist::{CommBreakdown, TileAssignment};
use flexdist_kernels::{KernelCostModel, KernelError, TiledMatrix};
use flexdist_net::{FaultPlan, FullMesh, NetError, NetReport};
use std::fmt;

/// Why [`Problem::new`] refused its arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// The named size, `t` or `nb`, is zero.
    Zero(&'static str),
    /// GEMM takes two inputs; a problem factors one seeded matrix.
    TwoInputs,
    /// The pattern cannot be replicated over a tile grid.
    Pattern(PatternError),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Zero(size) => write!(f, "{size} must be positive"),
            Self::TwoInputs => write!(f, "gemm takes two input matrices"),
            Self::Pattern(e) => write!(f, "pattern: {e}"),
        }
    }
}

/// One factorization instance: everything a run derives from
/// `(operation, pattern, t, nb, seed)` before any kernel executes, built
/// once and shared by every leg of the run.
#[derive(Debug, Clone)]
pub struct Problem {
    /// Tile → node map: the pattern extended over the `t × t` grid.
    pub assignment: TileAssignment,
    /// Task graph and kernel list (`tl.operation`, `tl.t`).
    pub tl: TaskList,
    /// The seeded input, [`Operation::input`].
    pub input: TiledMatrix,
    /// Crash-free closed form, [`Operation::comm_volume`] (`None`: SYRK).
    pub volume: Option<CommBreakdown>,
}

/// The clauses of the contract, in the order [`Problem::judge`] checks them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clause {
    /// No kernel failed.
    KernelStatus,
    /// The factors equal the reference bit for bit (moot after a kernel
    /// failure).
    Bitwise,
    /// Measured wire traffic equals the closed-form volume: the
    /// crash-free form, or the composed spliced form of the last plan.
    Goodput,
    /// Recovery-only sends equal the plan's flagged share; zero without
    /// a crash.
    RecoveredSends,
    /// A repeat of the same seeded run, in this process or one process
    /// per rank, reproduces every counter of the report.
    Replay,
}

/// One broken clause, with measured against expected spelled out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which clause.
    pub clause: Clause,
    /// What was measured and what the contract says.
    pub detail: String,
}

impl Problem {
    /// Validate the arguments once and derive the instance.
    ///
    /// # Errors
    /// Every panic of the layers beneath, as a typed refusal.
    pub fn new(
        op: Operation,
        pattern: &Pattern,
        t: usize,
        nb: usize,
        seed: u64,
    ) -> Result<Self, ProblemError> {
        if t == 0 {
            return Err(ProblemError::Zero("t"));
        }
        if nb == 0 {
            return Err(ProblemError::Zero("nb"));
        }
        if op == Operation::Gemm {
            return Err(ProblemError::TwoInputs);
        }
        pattern.validate().map_err(ProblemError::Pattern)?;
        let assignment = TileAssignment::extended(pattern, t);
        Ok(Self {
            tl: build_graph(op, &assignment, &KernelCostModel::uniform(nb, 30.0)),
            input: op.input(t, nb, seed),
            volume: op.comm_volume(&assignment),
            assignment,
        })
    }

    /// The shared-memory factors every distributed outcome must equal.
    ///
    /// # Errors
    /// The kernel failure, when the input itself does not factor.
    pub fn reference(&self) -> Result<TiledMatrix, KernelError> {
        let (factors, report, _) = execute_with(&self.tl, self.input.clone(), ExecOptions::new(2));
        report.error.map_or(Ok(factors), Err)
    }

    /// One distributed run, see [`execute_distributed_with`].
    ///
    /// # Errors
    /// Protocol violations of the fabric.
    pub fn run(&self, opts: &DexecOptions<'_>) -> Result<DexecOutput, NetError> {
        execute_distributed_with(&self.tl, &self.assignment, &self.input, opts)
    }

    /// The recovery plans of a fault plan's crash list (empty without a
    /// crash), see [`derive_recovery`].
    ///
    /// # Errors
    /// A crash list the run cannot recover from.
    pub fn plans(&self, faults: Option<&FaultPlan>) -> Result<Vec<RecoverPlan>, NetError> {
        derive_recovery(&self.tl, &self.assignment, faults, &FullMesh)
    }

    /// Hold one outcome to the contract. `plans` is the recovery plan
    /// list of the run (empty = crash-free); `replays`, when given, is
    /// the report of an earlier run of the same seeded configuration.
    /// Returns one violation per broken [`Clause`]; empty = conformant.
    #[must_use]
    pub fn judge(
        &self,
        reference: &TiledMatrix,
        plans: &[RecoverPlan],
        out: &DexecOutput,
        replays: Option<&NetReport>,
    ) -> Vec<Violation> {
        let rep = &out.report;
        let (expected, planned) = plans.last().map_or((self.volume, 0), |rp| {
            (Some(rp.expected), rp.recovered.total())
        });
        let replayed = replays.is_none_or(|first| {
            (rep.wire, rep.bytes, rep.faults) == (first.wire, first.bytes, first.faults)
                && rep.per_rank == first.per_rank
                && rep.links == first.links
        });
        let clauses = [
            (
                Clause::KernelStatus,
                rep.error.is_none(),
                format!("kernel error {:?}", rep.error),
            ),
            (
                Clause::Bitwise,
                rep.error.is_some() || out.matrix.diff_norm(reference) == 0.0,
                "result differs bitwise from the reference".to_string(),
            ),
            (
                Clause::Goodput,
                Some(rep.wire) == expected,
                format!("goodput {:?}, closed-form volume {expected:?}", rep.wire),
            ),
            (
                Clause::RecoveredSends,
                rep.recovered_msgs == planned,
                format!(
                    "{} recovery sends counted, the plan says {planned}",
                    rep.recovered_msgs
                ),
            ),
            (
                Clause::Replay,
                replayed,
                "repeating the run did not reproduce its NetReport".to_string(),
            ),
        ];
        let broken = clauses.into_iter().filter(|(_, holds, _)| !holds);
        broken
            .map(|(clause, _, detail)| Violation { clause, detail })
            .collect()
    }
}
