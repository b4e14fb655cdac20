//! Running one factorization through a layer's public entry point,
//! timing it from outside, and judging the result. Both modes (end to
//! end and per layer) are built from these calls.

use crate::spans::Recorder;
use crate::workload::{Problem, SetupTimes, Workload};
use flexdist_dist::CommBreakdown;
use flexdist_factor::{
    cholesky_solve, derive_recovery, execute_distributed_with, execute_with, lu_solve,
    solve_residual, Backend, DexecOptions, DexecOutput, ExecOptions, ExecReport, ExecTrace,
    Operation,
};
use flexdist_kernels::TiledMatrix;
use flexdist_net::{cleanup_socket_dir, frame_len, FaultPlan, FullMesh, NetError, SocketConfig};
use std::path::PathBuf;

/// How long the harness dwells on each measurement.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    /// A cheap stage is repeated until it has run this long, and
    /// reported per call, so that a 0.2 ms simulate is not one timer
    /// tick.
    pub batch_s: f64,
    /// A factorization shorter than this is repeated within the round
    /// until this much time has passed, and reported per call: a 0.1 s
    /// run is at the mercy of one scheduling hiccup.
    pub factor_s: f64,
    /// A kernel, codec or transport loop runs at least this long.
    pub micro_s: f64,
    /// Times each cheap layer call is sampled (each sample a batch).
    pub layer_reps: usize,
}

impl Pace {
    pub const FULL: Self = Self {
        batch_s: 0.05,
        factor_s: 0.3,
        micro_s: 0.2,
        layer_reps: 5,
    };
    /// Every call still happens; nothing is dwelt on.
    pub const SMOKE: Self = Self {
        batch_s: 0.0,
        factor_s: 0.0,
        micro_s: 0.0,
        layer_reps: 1,
    };
}

/// The shared-memory result must solve `A·X = B` to this relative
/// residual.
const RESIDUAL_LIMIT: f64 = 1e-12;

/// Operations attempted and failed. Every factorization, protocol
/// verdict and simulation is one operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Count one operation; a failure is reported on stderr so that the
    /// result line stays the last line of stdout.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }
}

/// The four ways the rank executor is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Channel,
    Uds,
    Tcp,
    Recover,
}

impl Path {
    #[must_use]
    pub fn span(self) -> &'static str {
        match self {
            Self::Channel => "factor.dexec_channel",
            Self::Uds => "factor.dexec_uds",
            Self::Tcp => "factor.dexec_tcp",
            Self::Recover => "factor.dexec_recover",
        }
    }
}

/// One timed shared-memory run.
pub struct ShmRun {
    pub wall: f64,
    pub report: ExecReport,
    pub trace: Option<ExecTrace>,
}

/// One timed rank-executor run that completed.
pub struct DexecRun {
    pub wall: f64,
    pub out: DexecOutput,
}

/// Everything a process keeps across rounds.
pub struct Context {
    pub w: Workload,
    pub seed: u64,
    /// Workers of the shared-memory run: the machine's parallelism.
    pub workers: usize,
    pub pace: Pace,
    pub rec: Recorder,
    pub ops: Ops,
    sock_dir: PathBuf,
    fault_plan: FaultPlan,
    /// First shared-memory result; everything later must equal it bit
    /// for bit.
    reference: Option<TiledMatrix>,
    /// Composed closed-form goodput and recovery-only message count of
    /// the crash cascade.
    recover_target: Option<(CommBreakdown, u64)>,
}

impl Context {
    /// # Errors
    /// Reports an uncreatable socket directory.
    pub fn new(
        w: Workload,
        seed: u64,
        pace: Pace,
        out_dir: &std::path::Path,
    ) -> Result<Self, String> {
        // Per-process, so concurrent runs sharing an output directory do
        // not bind each other's socket paths.
        let sock_dir = out_dir.join(format!("sock-{}", std::process::id()));
        std::fs::create_dir_all(&sock_dir)
            .map_err(|e| format!("cannot create {}: {e}", sock_dir.display()))?;
        Ok(Self {
            w,
            seed,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            pace,
            rec: Recorder::default(),
            ops: Ops::default(),
            sock_dir,
            fault_plan: w.fault_plan(seed),
            reference: None,
            recover_target: None,
        })
    }

    /// The set-up stage, repeated until the batch time has passed:
    /// the last problem built and the mean seconds per part.
    pub fn setup(&mut self) -> (Problem, SetupTimes) {
        let batch = self.rec.begin("setup_batch");
        let start = self.rec.now();
        let mut sum = SetupTimes::default();
        let mut calls = 0u32;
        loop {
            let (problem, st) = Problem::build(&self.w, self.seed, &mut self.rec);
            calls += 1;
            for (acc, part) in sum.parts.iter_mut().zip(st.parts) {
                *acc += part;
            }
            sum.total += st.total;
            if self.rec.now() - start >= self.pace.batch_s {
                self.rec.end_calls(batch, calls);
                let n = f64::from(calls);
                let mean = SetupTimes {
                    parts: sum.parts.map(|part| part / n),
                    total: sum.total / n,
                };
                return (problem, mean);
            }
        }
    }

    /// Derive the recovery plan of the pinned cascade (timed) and keep
    /// its closed-form targets for judging recovered runs.
    pub fn derive_recovery(&mut self, p: &Problem) -> f64 {
        let plan = &self.fault_plan;
        let (plans, per_call) =
            self.rec
                .time_batch("factor.derive_recovery", self.pace.batch_s, || {
                    derive_recovery(&p.tl, &p.assignment, Some(plan), &FullMesh)
                });
        let target = plans.map_err(|e| e.to_string()).and_then(|plans| {
            plans
                .last()
                .map(|rp| (rp.expected, rp.recovered.total()))
                .ok_or_else(|| "no plan".to_string())
        });
        match target {
            Ok(t) => self.recover_target = Some(t),
            Err(e) => self.ops.record("derive_recovery", Err(e)),
        }
        per_call
    }

    /// One shared-memory factorization through `execute_with`.
    pub fn shm(&mut self, p: &Problem, workers: usize, trace: bool, span: &'static str) -> ShmRun {
        let input = p.a0.clone();
        let opts = ExecOptions {
            trace,
            ..ExecOptions::new(workers)
        };
        let ((matrix, report, trace), wall) =
            self.rec.time(span, || execute_with(&p.tl, input, opts));
        let verdict = match (&report.error, &self.reference) {
            (Some(e), _) => Err(format!("kernel error {e}")),
            (None, Some(reference)) if !bitwise_eq(&matrix, reference) => Err(format!(
                "{workers}-worker result differs bitwise from the first run"
            )),
            (None, Some(_)) => Ok(()),
            (None, None) => {
                let verdict = residual_ok(&self.w, p, &matrix, self.seed);
                self.reference = Some(matrix);
                verdict
            }
        };
        self.ops.record(span, verdict);
        ShmRun {
            wall,
            report,
            trace,
        }
    }

    /// One rank-executor factorization through
    /// `execute_distributed_with`; `None` when it failed.
    pub fn dexec(&mut self, p: &Problem, path: Path, trace: bool) -> Option<DexecRun> {
        let backend = match path {
            Path::Channel | Path::Recover => Backend::Channel,
            Path::Uds => Backend::Socket(SocketConfig::uds(&self.sock_dir)),
            Path::Tcp => Backend::Socket(SocketConfig::tcp(&self.sock_dir)),
        };
        let recover = path == Path::Recover;
        if recover && self.recover_target.is_none() {
            // The closed-form targets a recovered run is judged against.
            // `execute_distributed_with` derives the same plan again
            // inside every recovered run, as part of that run's wall.
            self.derive_recovery(p);
        }
        let opts = DexecOptions {
            trace,
            backend,
            recover,
            faults: recover.then(|| self.fault_plan.clone()),
            ..DexecOptions::default()
        };
        let span = if trace {
            "factor.dexec_channel_traced"
        } else {
            path.span()
        };
        let (result, wall) = self.rec.time(span, || {
            execute_distributed_with(&p.tl, &p.assignment, &p.a0, &opts)
        });
        if matches!(path, Path::Uds | Path::Tcp) {
            cleanup_socket_dir(&self.sock_dir, self.w.p);
        }
        let verdict = self.judge(p, path, &result);
        self.ops.record(span, verdict);
        result.ok().map(|out| DexecRun { wall, out })
    }

    fn judge(
        &self,
        p: &Problem,
        path: Path,
        result: &Result<DexecOutput, NetError>,
    ) -> Result<(), String> {
        let out = result.as_ref().map_err(ToString::to_string)?;
        let rep = &out.report;
        if let Some(e) = &rep.error {
            return Err(format!("kernel error {e}"));
        }
        let reference = self
            .reference
            .as_ref()
            .ok_or("no shared-memory reference yet")?;
        if !bitwise_eq(&out.matrix, reference) {
            return Err("result differs bitwise from the shared-memory run".to_string());
        }
        if path == Path::Recover {
            let (expected, recovered) = self.recover_target.ok_or("no recovery plan derived")?;
            if rep.wire != expected {
                return Err(format!(
                    "recovered goodput {:?} != composed closed-form volume {expected:?}",
                    rep.wire
                ));
            }
            if rep.recovered_msgs != recovered {
                return Err(format!(
                    "{} recovery sends counted, the plan says {recovered}",
                    rep.recovered_msgs
                ));
            }
            return Ok(());
        }
        let expected = p.closed_form_volume();
        if rep.wire != expected {
            return Err(format!(
                "wire {:?} != closed-form volume {expected:?}",
                rep.wire
            ));
        }
        let frame = frame_len(self.w.nb).map_err(|e| e.to_string())? as u64;
        if rep.bytes != expected.total() * frame {
            return Err(format!(
                "{} bytes on the wire, {} frames of {frame} expected",
                rep.bytes,
                expected.total()
            ));
        }
        if !rep.faults.is_clean() {
            return Err(format!(
                "fault counters on a fault-free run: {:?}",
                rep.faults
            ));
        }
        Ok(())
    }

    /// Directory the socket backends keep their per-rank files in.
    #[must_use]
    pub fn sock_dir(&self) -> &std::path::Path {
        &self.sock_dir
    }

    /// Remove what the socket backends left behind.
    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.sock_dir);
    }
}

/// Bit-for-bit equality, stricter than a zero difference norm: it tells
/// `-0.0` from `0.0` and NaN payloads apart.
fn bitwise_eq(a: &TiledMatrix, b: &TiledMatrix) -> bool {
    let t = a.tiles();
    t == b.tiles()
        && a.nb() == b.nb()
        && (0..t).all(|i| {
            (0..t).all(|j| {
                let (x, y) = (a.tile(i, j).as_slice(), b.tile(i, j).as_slice());
                x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            })
        })
}

/// Solve against a seeded right-hand side with the computed factors and
/// hold the relative residual to [`RESIDUAL_LIMIT`].
fn residual_ok(w: &Workload, p: &Problem, factored: &TiledMatrix, seed: u64) -> Result<(), String> {
    let b = flexdist_factor::solve::random_block_vector(w.t, w.nb, seed ^ 0x5EED);
    let x = match w.op {
        Operation::Lu => lu_solve(factored, &b),
        _ => cholesky_solve(factored, &b),
    };
    let residual = solve_residual(&p.a0, &x, &b);
    if residual <= RESIDUAL_LIMIT {
        Ok(())
    } else {
        Err(format!(
            "solve residual {residual:e} exceeds {RESIDUAL_LIMIT:e}"
        ))
    }
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
///
/// # Errors
/// Reports a missing or unparsable `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
