//! The four pinned workloads and the set-up stage that turns one into
//! the inputs every later stage runs on.

use crate::spans::Recorder;
use flexdist_core::{g2dbc, gcrm, Pattern};
use flexdist_dist::{cholesky_comm_volume, lu_comm_volume, CommBreakdown, TileAssignment};
use flexdist_factor::{build_graph, derive_schedule, Operation, TaskList};
use flexdist_kernels::{KernelCostModel, TiledMatrix};
use flexdist_net::FaultPlan;

/// How a workload's pattern is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Generalized 2D block-cyclic: deterministic, closed form.
    G2dbc,
    /// GCR&M randomized search with this many restarts per size.
    Gcrm { n_seeds: u64 },
}

/// One pinned problem. Every workload runs every stage.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub op: Operation,
    pub scheme: Scheme,
    /// Ranks (= nodes of the pattern).
    pub p: u32,
    /// Tiles per matrix dimension.
    pub t: usize,
    /// Tile size.
    pub nb: usize,
}

/// The GCR&M search seed is part of the pinned problem, not of
/// `--seed`: different search seeds find patterns of equal cost T(G)
/// whose exact volumes differ by a few tiles, and `wire_bytes` is held
/// to a bound of zero.
const GCRM_BASE_SEED: u64 = 1;

/// Simulated core speed the task graph's durations are built with; the
/// value the CLI's `dexec` uses.
pub const CORE_GFLOPS: f64 = 30.0;

/// Sizes were chosen on the 2-core reference box so that one round
/// (every stage once) fits the per-run budget at least five times; see
/// the README for the timings behind them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lu_g2dbc_p7_compute",
        op: Operation::Lu,
        scheme: Scheme::G2dbc,
        p: 7,
        t: 12,
        nb: 192,
    },
    Workload {
        name: "chol_gcrm_p7_compute",
        op: Operation::Cholesky,
        scheme: Scheme::Gcrm { n_seeds: 20 },
        p: 7,
        t: 15,
        nb: 192,
    },
    Workload {
        name: "lu_g2dbc_p7_fine",
        op: Operation::Lu,
        scheme: Scheme::G2dbc,
        p: 7,
        t: 96,
        nb: 8,
    },
    Workload {
        name: "lu_g2dbc_p23_paper",
        op: Operation::Lu,
        scheme: Scheme::G2dbc,
        p: 23,
        t: 80,
        nb: 16,
    },
];

impl Workload {
    /// Look a workload up by name.
    #[must_use]
    pub fn named(name: &str) -> Option<Self> {
        WORKLOADS.into_iter().find(|w| w.name == name)
    }

    /// The same layers at a size that finishes in well under a second.
    #[must_use]
    pub fn smoke(self) -> Self {
        Self {
            t: 6,
            nb: 8,
            ..self
        }
    }

    /// Nominal flop count of the factorization.
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.op.total_flops(self.t, self.nb)
    }

    /// The crash cascade of the recovery run: rank 2 dies before epoch
    /// t/4, rank 5 before t/2, on an otherwise quiet wire.
    ///
    /// # Panics
    /// Panics if the cascade is rejected, which the pinned sizes rule
    /// out (both ranks exist and the epochs differ).
    #[must_use]
    pub fn fault_plan(&self, seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_crash(2, (self.t / 4) as u32)
            .and_then(|plan| plan.with_crash(5, (self.t / 2) as u32))
            .expect("pinned crash cascade is admissible")
    }

    fn pattern(&self) -> Pattern {
        match self.scheme {
            Scheme::G2dbc => g2dbc::g2dbc(self.p),
            Scheme::Gcrm { n_seeds } => {
                let config = gcrm::GcrmConfig {
                    n_seeds,
                    base_seed: GCRM_BASE_SEED,
                    ..gcrm::GcrmConfig::default()
                };
                gcrm::search(self.p, &config)
                    .expect("GCR&M finds a pattern for the pinned P")
                    .best
            }
        }
    }

    /// The seeded input matrix of the workload's operation.
    #[must_use]
    pub fn matrix(&self, seed: u64) -> TiledMatrix {
        match self.op {
            Operation::Lu => TiledMatrix::random_diag_dominant(self.t, self.nb, seed),
            _ => {
                let mut m = TiledMatrix::random_spd(self.t, self.nb, seed);
                m.symmetrize_from_lower();
                m
            }
        }
    }
}

/// What the set-up stage produces and every later stage consumes.
pub struct Problem {
    pub pattern: Pattern,
    pub assignment: TileAssignment,
    pub tl: TaskList,
    pub a0: TiledMatrix,
}

/// The per-layer metric each part of set-up is reported under, in the
/// order the parts run.
pub const SETUP_PARTS: [&str; 5] = [
    "core.pattern_build_s",
    "dist.assignment_build_s",
    "factor.build_graph_s",
    "factor.derive_schedule_s",
    "kernels.matgen_s",
];

/// Seconds spent in one set-up: per part (as [`SETUP_PARTS`]) and
/// overall.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub parts: [f64; 5],
    pub total: f64,
}

impl Problem {
    /// Run the set-up stage once: pattern (including the GCR&M search),
    /// tile assignment the way the CLI builds it, task graph,
    /// communication schedule, input matrix.
    ///
    /// # Panics
    /// Panics if the schedule cannot be derived, which only an
    /// unsupported operation causes.
    pub fn build(w: &Workload, seed: u64, rec: &mut Recorder) -> (Self, SetupTimes) {
        let stage = rec.begin("setup");
        let (pattern, t_pattern) = rec.time("core.pattern_build", || w.pattern());
        let (assignment, t_assignment) = rec.time("dist.assignment_build", || {
            TileAssignment::extended(&pattern, w.t)
        });
        let cost = KernelCostModel::uniform(w.nb, CORE_GFLOPS);
        let (tl, t_graph) = rec.time("factor.build_graph", || {
            build_graph(w.op, &assignment, &cost)
        });
        // A user pays for the communication schedule before the first
        // kernel runs; the rank executor derives its own copy again
        // inside every run, so this one is only timed.
        let ((), t_schedule) = rec.time("factor.derive_schedule", || {
            let schedule = derive_schedule(&tl, &assignment)
                .expect("LU and Cholesky have a broadcast schedule");
            std::hint::black_box(&schedule);
        });
        let (a0, t_matgen) = rec.time("kernels.matgen", || w.matrix(seed));
        let total = rec.end(stage);
        (
            Self {
                pattern,
                assignment,
                tl,
                a0,
            },
            SetupTimes {
                parts: [t_pattern, t_assignment, t_graph, t_schedule, t_matgen],
                total,
            },
        )
    }

    /// The closed-form crash-free volume the measured wire must equal.
    #[must_use]
    pub fn closed_form_volume(&self) -> CommBreakdown {
        match self.tl.operation {
            Operation::Lu => lu_comm_volume(&self.assignment),
            _ => cholesky_comm_volume(&self.assignment),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn workload_names_are_valid_and_unique() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(Workload::named(w.name).map(|x| x.name), Some(w.name));
        }
        assert!(Workload::named("nope").is_none());
    }

    #[test]
    fn gcrm_pattern_does_not_depend_on_the_run_seed() {
        let w = Workload::named("chol_gcrm_p7_compute").unwrap().smoke();
        let mut rec = Recorder::default();
        let (a, _) = Problem::build(&w, 1, &mut rec);
        let (b, _) = Problem::build(&w, 2, &mut rec);
        assert_eq!(a.closed_form_volume(), b.closed_form_volume());
        assert_ne!(
            a.a0.diff_norm(&b.a0),
            0.0,
            "the matrix does follow the seed"
        );
    }

    #[test]
    fn setup_times_add_up() {
        let w = WORKLOADS[0].smoke();
        let mut rec = Recorder::default();
        let (_, st) = Problem::build(&w, 1, &mut rec);
        assert!(st.parts.iter().sum::<f64>() <= st.total);
    }
}
