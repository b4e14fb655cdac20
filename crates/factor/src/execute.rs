//! Real multithreaded execution of a tiled factorization.
//!
//! The same task graph that drives the simulator is replayed with the
//! actual `f64` kernels on a pool of worker threads, validating the whole
//! distributed algorithm numerically. "Nodes" share memory here (this is
//! the laptop-scale stand-in for the MPI cluster), but the DAG, the
//! owner-computes mapping and the dependency structure are identical, and
//! inter-node tile reads are counted so the communication profile can be
//! checked against the simulator's.
//!
//! ## Scheduling
//!
//! Execution is driven by a **work-stealing executor**: every worker owns
//! a lock-free [`WorkDeque`](crate::steal::WorkDeque) of ready task ids.
//! Completing a task decrements its successors' dependency counters
//! (tile-level RAW/WAR/WAW hazards inferred at submission by
//! `flexdist_runtime::graph::GraphBuilder`), and the tasks that become
//! ready are pushed onto the completing worker's own deque, ordered so
//! that the owner's LIFO pop honors the configured
//! [`SchedulerPolicy`] — by task priority (panels before stale updates,
//! as in Chameleon's right-looking LU/Cholesky), or FIFO/LIFO by
//! submission order. An idle worker steals the *oldest* entry from a
//! victim's deque, so panel and update tasks overlap instead of
//! serializing behind a single shared queue.
//!
//! ## Observability
//!
//! [`execute_traced`] additionally records an [`ExecTrace`]: one start
//! and one end event per task and one event per successful steal, all
//! stamped against a common monotonic epoch. [`ExecReport`] carries
//! per-worker counters (tasks executed and stolen, peak ready-queue
//! depth, idle time) so schedule quality is visible without a profiler.

use crate::graphs::{Mat, Op, Operation, TaskList, TileRef};
use crate::steal::{Steal, WorkDeque};
use flexdist_kernels::matrix::TiledMatrix;
use flexdist_kernels::{KernelError, Tile};
use flexdist_runtime::SchedulerPolicy;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

/// Per-worker scheduling counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks this worker executed.
    pub executed: u64,
    /// Tasks this worker obtained by stealing from another worker.
    pub stolen: u64,
    /// Peak length of this worker's own ready deque.
    pub max_queue_depth: usize,
    /// Time spent looking for work (own deque and victims all empty).
    pub idle: Duration,
}

/// Outcome of a real execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// Tasks executed.
    pub tasks: usize,
    /// Task reads whose tile owner differs from the executing node — the
    /// shared-memory analogue of an inter-node transfer (no per-version
    /// dedup, so this upper-bounds the simulator's message count).
    pub remote_reads: u64,
    /// First kernel error encountered (the run still drains the DAG).
    pub error: Option<KernelError>,
    /// Per-worker scheduling counters, one entry per worker thread.
    pub workers: Vec<WorkerStats>,
}

impl ExecReport {
    /// Total tasks obtained by stealing, across all workers.
    #[must_use]
    pub fn tasks_stolen(&self) -> u64 {
        self.workers.iter().map(|w| w.stolen).sum()
    }

    /// Peak ready-queue depth observed on any worker.
    #[must_use]
    pub fn max_queue_depth(&self) -> usize {
        self.workers
            .iter()
            .map(|w| w.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// Summed idle time across workers.
    #[must_use]
    pub fn total_idle(&self) -> Duration {
        self.workers.iter().map(|w| w.idle).sum()
    }
}

/// What happened, per [`ExecEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEventKind {
    /// The worker began running the task's kernel.
    Start,
    /// The kernel returned; recorded *before* successors are released.
    End,
    /// The worker took the task from `victim`'s deque.
    Steal {
        /// Worker index the task was stolen from.
        victim: usize,
    },
}

impl ExecEventKind {
    fn as_str(self) -> &'static str {
        match self {
            ExecEventKind::Start => "start",
            ExecEventKind::End => "end",
            ExecEventKind::Steal { .. } => "steal",
        }
    }

    fn order_rank(self) -> u8 {
        match self {
            ExecEventKind::Steal { .. } => 0,
            ExecEventKind::Start => 1,
            ExecEventKind::End => 2,
        }
    }
}

/// One timestamped scheduling event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEvent {
    /// Task id in the graph's submission order.
    pub task: u32,
    /// Worker thread index.
    pub worker: usize,
    /// Time since the executor's epoch.
    pub at: Duration,
    /// Event kind.
    pub kind: ExecEventKind,
}

/// Span-level event log of one execution, sorted by timestamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecTrace {
    /// All events, sorted by `(at, task, kind)`.
    pub events: Vec<ExecEvent>,
    /// Number of tasks in the traced run.
    pub n_tasks: usize,
}

impl ExecTrace {
    /// Check well-formedness against the task list that produced it:
    /// every task has exactly one start and one matching end, steals
    /// precede their task's start on the same worker, and no task starts
    /// before all of its dependencies have ended.
    ///
    /// # Errors
    /// Describes the first violated invariant.
    pub fn validate(&self, tl: &TaskList) -> Result<(), String> {
        let n = tl.graph.n_tasks();
        if n != self.n_tasks {
            return Err(format!(
                "trace covers {} tasks, graph has {n}",
                self.n_tasks
            ));
        }
        let mut start: Vec<Option<(Duration, usize)>> = vec![None; n];
        let mut end: Vec<Option<Duration>> = vec![None; n];
        for e in &self.events {
            let slot = e.task as usize;
            if slot >= n {
                return Err(format!("event references unknown task {}", e.task));
            }
            match e.kind {
                ExecEventKind::Start => {
                    if start[slot].replace((e.at, e.worker)).is_some() {
                        return Err(format!("task {} started twice", e.task));
                    }
                }
                ExecEventKind::End => {
                    let Some((s, w)) = start[slot] else {
                        return Err(format!("task {} ended before starting", e.task));
                    };
                    if w != e.worker {
                        return Err(format!("task {} ended on a different worker", e.task));
                    }
                    if e.at < s {
                        return Err(format!("task {} ends before its start", e.task));
                    }
                    if end[slot].replace(e.at).is_some() {
                        return Err(format!("task {} ended twice", e.task));
                    }
                }
                ExecEventKind::Steal { victim } => {
                    if victim == e.worker {
                        return Err(format!("task {} stolen from self", e.task));
                    }
                    if let Some((s, w)) = start[slot] {
                        if w != e.worker || s < e.at {
                            return Err(format!("task {} ran before being stolen", e.task));
                        }
                    }
                }
            }
        }
        for id in 0..n as u32 {
            let Some(ended) = end[id as usize] else {
                return Err(format!("task {id} has no matching start/end"));
            };
            for &s in tl.graph.successors_of(id) {
                let (started, _) = start[s as usize].expect("checked above");
                if started < ended {
                    return Err(format!("task {s} started before its dependency {id} ended"));
                }
            }
        }
        Ok(())
    }

    /// JSON document: task metadata plus the event log, parseable by
    /// `flexdist_json::parse`.
    #[must_use]
    pub fn to_json_value(&self, tl: &TaskList) -> flexdist_json::Value {
        use flexdist_json::Value;
        let events = self
            .events
            .iter()
            .map(|e| {
                let mut fields = vec![
                    ("type", Value::from(e.kind.as_str())),
                    ("task", Value::from(e.task)),
                    ("worker", Value::from(e.worker)),
                    ("t", Value::from(e.at.as_secs_f64())),
                ];
                if let ExecEventKind::Steal { victim } = e.kind {
                    fields.push(("victim", Value::from(victim)));
                }
                flexdist_json::object(fields)
            })
            .collect();
        let tasks = (0..self.n_tasks as u32)
            .map(|id| {
                flexdist_json::object(vec![
                    ("task", Value::from(id)),
                    ("label", Value::from(tl.graph.label_of(id))),
                    ("node", Value::from(tl.graph.node_of(id))),
                    ("priority", Value::from(tl.graph.priority_of(id) as f64)),
                ])
            })
            .collect();
        flexdist_json::object(vec![
            ("kind", Value::from("exec-trace")),
            ("n_tasks", Value::from(self.n_tasks)),
            ("tasks", Value::Array(tasks)),
            ("events", Value::Array(events)),
        ])
    }

    /// Pretty-printed JSON (see [`ExecTrace::to_json_value`]).
    #[must_use]
    pub fn to_json(&self, tl: &TaskList) -> String {
        self.to_json_value(tl).to_pretty()
    }
}

/// Tunables for [`execute_with`].
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Worker thread count (must be positive).
    pub n_threads: usize,
    /// Order in which a worker's freshly-readied tasks are popped.
    pub policy: SchedulerPolicy,
    /// Record an [`ExecTrace`].
    pub trace: bool,
}

impl ExecOptions {
    /// Priority scheduling, no tracing.
    #[must_use]
    pub fn new(n_threads: usize) -> Self {
        Self {
            n_threads,
            policy: SchedulerPolicy::Priority,
            trace: false,
        }
    }
}

/// Execute the task list against `matrix` on `n_threads` workers.
///
/// The matrix is consumed and returned factorized in place (packed `L`/`U`
/// for LU, `L` in the lower triangle for Cholesky). For
/// [`crate::Operation::Syrk`] an extra zero output matrix is allocated
/// internally and returned instead of the input.
///
/// # Panics
/// Panics if the task list was built for a different tile count than the
/// matrix, or if `n_threads == 0`.
pub fn execute(tl: &TaskList, matrix: TiledMatrix, n_threads: usize) -> (TiledMatrix, ExecReport) {
    let (out, report, _) = execute_impl(tl, matrix, None, ExecOptions::new(n_threads));
    (out, report)
}

/// Like [`execute`], also returning the span-level event trace.
///
/// # Panics
/// Same conditions as [`execute`].
pub fn execute_traced(
    tl: &TaskList,
    matrix: TiledMatrix,
    n_threads: usize,
) -> (TiledMatrix, ExecReport, ExecTrace) {
    let opts = ExecOptions {
        trace: true,
        ..ExecOptions::new(n_threads)
    };
    let (out, report, trace) = execute_impl(tl, matrix, None, opts);
    (out, report, trace.expect("tracing enabled"))
}

/// Single-input execution with explicit [`ExecOptions`].
///
/// # Panics
/// Same conditions as [`execute`].
pub fn execute_with(
    tl: &TaskList,
    matrix: TiledMatrix,
    opts: ExecOptions,
) -> (TiledMatrix, ExecReport, Option<ExecTrace>) {
    execute_impl(tl, matrix, None, opts)
}

/// Execute a two-input task list (`Operation::Gemm`): `C ← A·B`. Returns
/// the freshly-allocated `C` and the report.
///
/// # Panics
/// Panics on tile-count/size mismatches or `n_threads == 0`.
pub fn execute_pair(
    tl: &TaskList,
    a: TiledMatrix,
    b: TiledMatrix,
    n_threads: usize,
) -> (TiledMatrix, ExecReport) {
    assert_eq!(a.tiles(), b.tiles(), "A/B tile mismatch");
    assert_eq!(a.nb(), b.nb(), "A/B tile size mismatch");
    let (out, report, _) = execute_impl(tl, a, Some(b), ExecOptions::new(n_threads));
    (out, report)
}

/// Order `batch` so that the owner's LIFO pop matches `policy`: the task
/// the policy wants first must be pushed last.
fn order_for_push(batch: &mut [u32], policy: SchedulerPolicy, tl: &TaskList) {
    match policy {
        // Pop highest priority first → push ascending priority.
        SchedulerPolicy::Priority => {
            batch.sort_unstable_by_key(|&id| (tl.graph.priority_of(id), std::cmp::Reverse(id)));
        }
        // Pop lowest id first → push descending id.
        SchedulerPolicy::Fifo => batch.sort_unstable_by_key(|&id| std::cmp::Reverse(id)),
        // Pop highest id first → push ascending id.
        SchedulerPolicy::Lifo => batch.sort_unstable(),
    }
}

struct WorkerOutcome {
    stats: WorkerStats,
    events: Vec<ExecEvent>,
}

fn execute_impl(
    tl: &TaskList,
    matrix: TiledMatrix,
    second: Option<TiledMatrix>,
    opts: ExecOptions,
) -> (TiledMatrix, ExecReport, Option<ExecTrace>) {
    assert!(
        second.is_some() || tl.operation != Operation::Gemm,
        "GEMM task lists need two inputs; use execute_pair"
    );
    assert!(opts.n_threads > 0, "need at least one worker thread");
    assert_eq!(tl.t, matrix.tiles(), "task list / matrix tile mismatch");
    let t = tl.t;
    let nb = matrix.nb();
    let n_tasks = tl.graph.n_tasks();
    let n_workers = opts.n_threads;

    let to_store = |m: &TiledMatrix| -> Vec<RwLock<Tile>> {
        let mut v = Vec::with_capacity(t * t);
        for i in 0..t {
            for j in 0..t {
                v.push(RwLock::new(m.tile(i, j).clone()));
            }
        }
        v
    };
    // Tile storage, indexed by `Mat`: the input/in-place matrix, an
    // optional second input (GEMM's B), and a zero C output for the
    // SYRK/GEMM accumulations.
    let result = match tl.operation {
        Operation::Lu | Operation::Cholesky => Mat::A,
        Operation::Syrk | Operation::Gemm => Mat::C,
    };
    let c_tiles = if result == Mat::C {
        (0..t * t).map(|_| RwLock::new(Tile::zeros(nb))).collect()
    } else {
        Vec::new()
    };
    let stores: Stores = [
        to_store(&matrix),
        second.as_ref().map(&to_store).unwrap_or_default(),
        c_tiles,
    ];

    // Dependency counters, one per task, decremented as predecessors end.
    let deps: Vec<AtomicU32> = (0..n_tasks)
        .map(|id| AtomicU32::new(tl.graph.n_deps_of(id as u32)))
        .collect();

    // Per-worker ready deques. A task id enters a deque at most once, so
    // sizing each deque to the task count makes overflow impossible.
    let deques: Vec<WorkDeque> = (0..n_workers)
        .map(|_| WorkDeque::with_capacity(n_tasks.max(2)))
        .collect();

    // Seed initially-ready tasks round-robin across workers, in policy
    // order so worker 0 holds the most urgent task at its pop end.
    let mut seeds: Vec<u32> = (0..n_tasks as u32)
        .filter(|&id| deps[id as usize].load(Ordering::Relaxed) == 0)
        .collect();
    order_for_push(&mut seeds, opts.policy, tl);
    // `order_for_push` produces push order (least urgent first); deal the
    // most urgent seeds to distinct workers by walking it in reverse.
    for (k, &id) in seeds.iter().rev().enumerate() {
        deques[k % n_workers].push(id);
    }

    let completed = AtomicUsize::new(0);
    let remote_reads = AtomicU64::new(0);
    let first_error: Mutex<Option<KernelError>> = Mutex::new(None);
    let epoch = Instant::now();

    let mut outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_workers)
            .map(|me| {
                let deques = &deques;
                let deps = &deps;
                let stores = &stores;
                let completed = &completed;
                let remote_reads = &remote_reads;
                let first_error = &first_error;
                scope.spawn(move || {
                    worker_loop(WorkerCtx {
                        me,
                        tl,
                        t,
                        nb,
                        opts,
                        epoch,
                        deques,
                        deps,
                        stores,
                        completed,
                        remote_reads,
                        first_error,
                        n_tasks,
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    assert_eq!(
        completed.load(Ordering::Acquire),
        n_tasks,
        "DAG not drained"
    );

    // Collect the result.
    let c_lower_only = tl.operation == Operation::Syrk;
    let mut out = TiledMatrix::zeros(t, nb);
    let src = &stores[result as usize];
    for i in 0..t {
        for j in 0..t {
            if c_lower_only && j > i {
                continue; // SYRK output is lower-triangular.
            }
            *out.tile_mut(i, j) = src[i * t + j].read().expect("tile lock").clone();
        }
    }

    let trace = opts.trace.then(|| {
        let mut events: Vec<ExecEvent> = outcomes
            .iter_mut()
            .flat_map(|o| o.events.drain(..))
            .collect();
        events.sort_unstable_by_key(|e| (e.at, e.task, e.kind.order_rank()));
        ExecTrace { events, n_tasks }
    });
    let report = ExecReport {
        tasks: n_tasks,
        remote_reads: remote_reads.load(Ordering::Acquire),
        error: first_error.into_inner().expect("error lock"),
        workers: outcomes.into_iter().map(|o| o.stats).collect(),
    };
    (out, report, trace)
}

/// The tiles of a run, one row-major `t × t` store per [`Mat`] (empty
/// where the operation has no such matrix).
type Stores = [Vec<RwLock<Tile>>; 3];

struct WorkerCtx<'a> {
    me: usize,
    tl: &'a TaskList,
    t: usize,
    nb: usize,
    opts: ExecOptions,
    epoch: Instant,
    deques: &'a [WorkDeque],
    deps: &'a [AtomicU32],
    stores: &'a Stores,
    completed: &'a AtomicUsize,
    remote_reads: &'a AtomicU64,
    first_error: &'a Mutex<Option<KernelError>>,
    n_tasks: usize,
}

fn worker_loop(ctx: WorkerCtx<'_>) -> WorkerOutcome {
    let mut stats = WorkerStats::default();
    let mut events: Vec<ExecEvent> = Vec::new();
    let mut record = |task: u32, at: Duration, kind: ExecEventKind, me: usize| {
        events.push(ExecEvent {
            task,
            worker: me,
            at,
            kind,
        });
    };
    let n_workers = ctx.deques.len();
    loop {
        // Fast path: own deque.
        let id = if let Some(id) = ctx.deques[ctx.me].pop() {
            id
        } else {
            // Slow path: scan victims until work appears or all is done.
            let idle_from = Instant::now();
            let mut found = None;
            'search: while ctx.completed.load(Ordering::Acquire) < ctx.n_tasks {
                for offset in 1..n_workers {
                    let victim = (ctx.me + offset) % n_workers;
                    loop {
                        match ctx.deques[victim].steal() {
                            Steal::Success(id) => {
                                stats.stolen += 1;
                                if ctx.opts.trace {
                                    record(
                                        id,
                                        ctx.epoch.elapsed(),
                                        ExecEventKind::Steal { victim },
                                        ctx.me,
                                    );
                                }
                                found = Some(id);
                                break 'search;
                            }
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => break,
                        }
                    }
                }
                // A task released locally while we scanned?
                if let Some(id) = ctx.deques[ctx.me].pop() {
                    found = Some(id);
                    break 'search;
                }
                std::thread::yield_now();
            }
            stats.idle += idle_from.elapsed();
            match found {
                Some(id) => id,
                None => break, // every task completed
            }
        };

        // Run the kernel.
        if ctx.opts.trace {
            record(id, ctx.epoch.elapsed(), ExecEventKind::Start, ctx.me);
        }
        count_remote_reads(ctx.tl, id, ctx.remote_reads);
        let op = ctx.tl.ops[id as usize];
        if let Err(e) = run_op(op, ctx.t, ctx.nb, ctx.stores) {
            ctx.first_error.lock().expect("error lock").get_or_insert(e);
        }
        stats.executed += 1;
        // The end event must precede the release of successors so that
        // dependency ends always timestamp before dependent starts.
        if ctx.opts.trace {
            record(id, ctx.epoch.elapsed(), ExecEventKind::End, ctx.me);
        }

        // Release successors; push the newly-ready batch in policy order.
        let mut ready: Vec<u32> = ctx
            .tl
            .graph
            .successors_of(id)
            .iter()
            .copied()
            .filter(|&s| ctx.deps[s as usize].fetch_sub(1, Ordering::AcqRel) == 1)
            .collect();
        if !ready.is_empty() {
            order_for_push(&mut ready, ctx.opts.policy, ctx.tl);
            for &s in &ready {
                ctx.deques[ctx.me].push(s);
            }
            stats.max_queue_depth = stats.max_queue_depth.max(ctx.deques[ctx.me].len());
        }
        ctx.completed.fetch_add(1, Ordering::AcqRel);
    }
    WorkerOutcome { stats, events }
}

/// Count reads of data whose home node differs from the executing node —
/// the transfers an MPI execution would perform (before replica caching).
fn count_remote_reads(tl: &TaskList, id: u32, counter: &AtomicU64) {
    let node = tl.graph.node_of(id);
    let remote = tl
        .graph
        .reads_of(id)
        .iter()
        .filter(|&&d| tl.graph.data_owner(d) != node)
        .count() as u64;
    if remote > 0 {
        counter.fetch_add(remote, Ordering::Relaxed);
    }
}

/// Execute one kernel against the shared tile storage. The DAG orders
/// every writer of a tile against all its other accessors, so the write
/// lock is never contended and the read locks only ever meet other
/// readers: no acquisition order can deadlock.
fn run_op(op: Op, t: usize, nb: usize, stores: &Stores) -> Result<(), KernelError> {
    fn read(store: &[RwLock<Tile>], at: usize) -> std::sync::RwLockReadGuard<'_, Tile> {
        store[at].read().expect("tile lock")
    }
    fn write(store: &[RwLock<Tile>], at: usize) -> std::sync::RwLockWriteGuard<'_, Tile> {
        store[at].write().expect("tile lock")
    }
    let at = |r: TileRef| r.i * t + r.j;
    let reads = op
        .reads()
        .map(|r| r.map(|r| read(&stores[r.mat as usize], at(r))));
    let w = op.write();
    let mut out = write(&stores[w.mat as usize], at(w));
    op.apply(
        out.as_mut_slice(),
        reads.each_ref().map(|g| g.as_deref().map(Tile::as_slice)),
        nb,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graphs::{build_graph, Operation};
    use crate::residual::{cholesky_residual, lu_residual, syrk_residual};
    use flexdist_core::{g2dbc, sbc, twodbc};
    use flexdist_dist::TileAssignment;
    use flexdist_kernels::KernelCostModel;

    fn cost(nb: usize) -> KernelCostModel {
        KernelCostModel::uniform(nb, 10.0)
    }

    #[test]
    fn lu_factorization_is_numerically_correct() {
        let (t, nb) = (6, 8);
        let a0 = TiledMatrix::random_diag_dominant(t, nb, 11);
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(2, 2), t);
        let tl = build_graph(Operation::Lu, &assign, &cost(nb));
        let (factored, rep) = execute(&tl, a0.clone(), 4);
        assert!(rep.error.is_none(), "{:?}", rep.error);
        assert_eq!(rep.tasks, tl.graph.n_tasks());
        assert_eq!(rep.workers.len(), 4);
        assert_eq!(
            rep.workers.iter().map(|w| w.executed).sum::<u64>() as usize,
            rep.tasks
        );
        let res = lu_residual(&a0, &factored);
        assert!(res < 1e-11, "LU residual {res}");
    }

    #[test]
    fn lu_with_g2dbc_distribution_matches_single_thread() {
        let (t, nb) = (5, 6);
        let a0 = TiledMatrix::random_diag_dominant(t, nb, 7);
        let assign = TileAssignment::cyclic(&g2dbc::g2dbc(10), t);
        let tl = build_graph(Operation::Lu, &assign, &cost(nb));
        let (par, _) = execute(&tl, a0.clone(), 4);
        let (seq, _) = execute(&tl, a0.clone(), 1);
        // The DAG forces a deterministic result up to FP addition order,
        // which is itself fixed per-kernel: results must match exactly.
        assert!(par.diff_norm(&seq) == 0.0, "parallel != sequential");
        assert!(lu_residual(&a0, &par) < 1e-11);
    }

    #[test]
    fn cholesky_on_sbc_is_numerically_correct() {
        let (t, nb) = (7, 8);
        let mut a0 = TiledMatrix::random_spd(t, nb, 5);
        a0.symmetrize_from_lower();
        let pat = sbc::sbc_extended(21).unwrap();
        let assign = TileAssignment::extended(&pat, t);
        let tl = build_graph(Operation::Cholesky, &assign, &cost(nb));
        let (factored, rep) = execute(&tl, a0.clone(), 4);
        assert!(rep.error.is_none(), "{:?}", rep.error);
        let res = cholesky_residual(&a0, &factored);
        assert!(res < 1e-11, "Cholesky residual {res}");
    }

    #[test]
    fn cholesky_on_gcrm_is_numerically_correct() {
        let (t, nb) = (8, 6);
        let a0 = TiledMatrix::random_spd(t, nb, 9);
        let pat =
            flexdist_core::gcrm::run_once(13, 12, 3, flexdist_core::gcrm::LoadMetric::Colrows)
                .unwrap();
        let assign = TileAssignment::extended(&pat, t);
        let tl = build_graph(Operation::Cholesky, &assign, &cost(nb));
        let (factored, rep) = execute(&tl, a0.clone(), 3);
        assert!(rep.error.is_none());
        assert!(cholesky_residual(&a0, &factored) < 1e-11);
    }

    #[test]
    fn syrk_matches_reference_product() {
        let (t, nb) = (4, 5);
        let a0 = TiledMatrix::random_uniform(t, nb, 13);
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(2, 2), t);
        let tl = build_graph(Operation::Syrk, &assign, &cost(nb));
        let (c, rep) = execute(&tl, a0.clone(), 4);
        assert!(rep.error.is_none());
        let res = syrk_residual(&a0, &c);
        assert!(res < 1e-12, "SYRK residual {res}");
    }

    #[test]
    fn remote_reads_counted() {
        let (t, nb) = (4, 4);
        let a0 = TiledMatrix::random_diag_dominant(t, nb, 3);
        // Single node: no remote reads. Multi-node: some.
        let one = TileAssignment::cyclic(&twodbc::two_dbc(1, 1), t);
        let tl1 = build_graph(Operation::Lu, &one, &cost(nb));
        let (_, rep1) = execute(&tl1, a0.clone(), 2);
        assert_eq!(rep1.remote_reads, 0);

        let four = TileAssignment::cyclic(&twodbc::two_dbc(2, 2), t);
        let tl4 = build_graph(Operation::Lu, &four, &cost(nb));
        let (_, rep4) = execute(&tl4, a0, 2);
        assert!(rep4.remote_reads > 0);
    }

    #[test]
    fn potrf_error_is_reported_not_swallowed() {
        let (t, nb) = (3, 4);
        // Definitely not SPD.
        let mut a0 = TiledMatrix::zeros(t, nb);
        for d in 0..t {
            for k in 0..nb {
                a0.tile_mut(d, d).set(k, k, -1.0);
            }
        }
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(1, 1), t);
        let tl = build_graph(Operation::Cholesky, &assign, &cost(nb));
        let (_, rep) = execute(&tl, a0, 2);
        assert!(matches!(
            rep.error,
            Some(KernelError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn tile_count_mismatch_rejected() {
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(1, 1), 4);
        let tl = build_graph(Operation::Lu, &assign, &cost(4));
        let m = TiledMatrix::zeros(5, 4);
        let _ = execute(&tl, m, 1);
    }

    #[test]
    fn trace_is_well_formed_and_policies_drain() {
        let (t, nb) = (5, 4);
        let a0 = TiledMatrix::random_diag_dominant(t, nb, 21);
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(2, 2), t);
        let tl = build_graph(Operation::Lu, &assign, &cost(nb));
        let (_, rep, trace) = execute_traced(&tl, a0.clone(), 3);
        assert!(rep.error.is_none());
        trace.validate(&tl).expect("trace well-formed");
        // Two events per task plus one per steal.
        assert_eq!(
            trace.events.len(),
            2 * rep.tasks + rep.tasks_stolen() as usize
        );
        // Every policy drains the same DAG to the same factorization.
        for policy in [
            SchedulerPolicy::Priority,
            SchedulerPolicy::Fifo,
            SchedulerPolicy::Lifo,
        ] {
            let opts = ExecOptions {
                n_threads: 2,
                policy,
                trace: false,
            };
            let (out, rep, _) = execute_with(&tl, a0.clone(), opts);
            assert!(rep.error.is_none());
            assert!(lu_residual(&a0, &out) < 1e-11);
        }
    }

    #[test]
    fn exec_trace_serializes_to_parseable_json() {
        let (t, nb) = (4, 4);
        let a0 = TiledMatrix::random_diag_dominant(t, nb, 17);
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(2, 1), t);
        let tl = build_graph(Operation::Lu, &assign, &cost(nb));
        let (_, rep, trace) = execute_traced(&tl, a0, 2);
        let doc = flexdist_json::parse(&trace.to_json(&tl)).expect("parseable trace");
        assert_eq!(
            doc.get("n_tasks").and_then(flexdist_json::Value::as_u64),
            Some(rep.tasks as u64)
        );
        let events = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), trace.events.len());
        assert!(events.iter().all(|e| e
            .get("type")
            .and_then(flexdist_json::Value::as_str)
            .is_some()));
    }
}

#[cfg(test)]
mod gemm_tests {
    use super::*;
    use crate::graphs::{build_graph, Operation};
    use crate::residual::gemm_residual;
    use flexdist_core::{g2dbc, twodbc};
    use flexdist_dist::TileAssignment;
    use flexdist_kernels::KernelCostModel;

    #[test]
    fn gemm_matches_reference_product() {
        let (t, nb) = (5, 6);
        let a0 = TiledMatrix::random_uniform(t, nb, 1);
        let b0 = TiledMatrix::random_uniform(t, nb, 2);
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(2, 2), t);
        let tl = build_graph(
            Operation::Gemm,
            &assign,
            &KernelCostModel::uniform(nb, 10.0),
        );
        let (c, rep) = execute_pair(&tl, a0.clone(), b0.clone(), 4);
        assert!(rep.error.is_none());
        assert_eq!(rep.tasks, t * t * t);
        let res = gemm_residual(&a0, &b0, &c);
        assert!(res < 1e-13, "GEMM residual {res}");
    }

    #[test]
    fn gemm_deterministic_across_threads() {
        let (t, nb) = (4, 5);
        let a0 = TiledMatrix::random_uniform(t, nb, 3);
        let b0 = TiledMatrix::random_uniform(t, nb, 4);
        let assign = TileAssignment::cyclic(&g2dbc::g2dbc(5), t);
        let tl = build_graph(
            Operation::Gemm,
            &assign,
            &KernelCostModel::uniform(nb, 10.0),
        );
        let (c1, _) = execute_pair(&tl, a0.clone(), b0.clone(), 1);
        let (c4, _) = execute_pair(&tl, a0, b0, 4);
        assert_eq!(c1.diff_norm(&c4), 0.0);
    }

    #[test]
    #[should_panic(expected = "two inputs")]
    fn single_input_entry_rejects_gemm_lists() {
        let assign = TileAssignment::cyclic(&twodbc::two_dbc(1, 1), 2);
        let tl = build_graph(Operation::Gemm, &assign, &KernelCostModel::uniform(4, 10.0));
        let m = TiledMatrix::zeros(2, 4);
        let _ = execute(&tl, m, 1);
    }
}
