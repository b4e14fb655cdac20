//! Subcommand implementations. Each returns its rendered output.

use crate::args::Args;
use crate::mp::{self, RunSpec};
use crate::scheme::{pattern_from_args, SchemeKind};
use flexdist_core::db::{PatternDb, Purpose};
use flexdist_core::{cost, g2dbc, gcrm, sbc, twodbc};
use flexdist_dist::{cholesky_comm_volume, lu_comm_volume, TileAssignment};
use flexdist_factor::net::{RankPhases, SocketConfig, SocketKind};
use flexdist_factor::{
    build_graph, execute_rank_socket, execute_traced, replay_trace_str, Backend, DexecOptions,
    Operation, Problem, ReplayOptions, SimSetup, SweepBuilder, Violation,
};
use flexdist_kernels::{KernelCostModel, TiledMatrix};
use flexdist_runtime::{
    render_gantt, render_worker_gantt, sim_trace_to_json_string, simulate_traced,
    HierarchicalTopology, MachineConfig, NetworkModel,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Write a JSON trace document to `path`.
fn write_trace(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

pub(crate) fn parse_op(token: &str) -> Result<Operation, String> {
    match token {
        "lu" => Ok(Operation::Lu),
        "chol" | "cholesky" => Ok(Operation::Cholesky),
        "syrk" => Ok(Operation::Syrk),
        other => Err(format!("unknown op {other:?} (expected lu, chol or syrk)")),
    }
}

fn parse_op_any(token: &str) -> Result<Operation, String> {
    match token {
        "gemm" => Ok(Operation::Gemm),
        other => parse_op(other)
            .map_err(|_| format!("unknown op {other:?} (expected lu, chol, syrk or gemm)")),
    }
}

/// The scheme a command defaults to: G-2DBC for LU, GCR&M for the
/// symmetric operations.
fn default_scheme(op: Operation) -> &'static str {
    match op {
        Operation::Lu => "g2dbc",
        _ => "gcrm",
    }
}

/// A size flag that must be at least 1 (`--t`, `--tile`, `--threads`):
/// zero is a typed error here, not a panic two layers down.
fn positive(args: &Args, key: &str, default: usize) -> Result<usize, String> {
    match args.get(key, default)? {
        0 => Err(format!("--{key} must be positive")),
        n => Ok(n),
    }
}

/// A comma-separated list flag; `what` names one entry in the error.
fn list<T: std::str::FromStr>(
    args: &Args,
    key: &str,
    default: &str,
    what: &str,
) -> Result<Vec<T>, String> {
    let entry = |tok: &str| {
        let parsed = tok.trim().parse();
        parsed.map_err(|_| format!("bad {what} {tok:?} in --{key}"))
    };
    args.get_str(key, default).split(',').map(entry).collect()
}

/// The run an executing command describes with `--op`, the scheme flags,
/// `--t`, `--nb`, `--seed` and `--watchdog` (the tuple is the command's
/// defaults for `--t`, `--nb`, `--watchdog`): quiet wire, no crash.
fn spec_from_args(
    args: &Args,
    (t_default, nb_default, watchdog_default): (usize, usize, u64),
) -> Result<(SchemeKind, RunSpec), String> {
    let op = parse_op(&args.get_str("op", "lu"))?;
    let (kind, pattern) = pattern_from_args(args, default_scheme(op))?;
    let spec = RunSpec {
        op,
        pattern,
        t: args.get("t", t_default)?,
        nb: args.get("nb", nb_default)?,
        seed: args.get("seed", 42)?,
        crashes: Vec::new(),
        noise_rate: 0.0,
        recover: false,
        watchdog_ms: args.get("watchdog", watchdog_default)?,
    };
    Ok((kind, spec))
}

/// The spec's problem, for the commands that hand it to rank executors:
/// those exist for the operations with a broadcast walk only.
fn distributed_problem(cmd: &str, spec: &RunSpec) -> Result<Problem, String> {
    if spec.op.walk().is_none() {
        return Err(format!("{cmd} supports --op lu or chol only"));
    }
    spec.problem()
}

/// The shared-memory factors every leg of a command is judged against.
fn reference_of(problem: &Problem) -> Result<TiledMatrix, String> {
    let reference = problem.reference();
    reference.map_err(|e| format!("reference execution failed: {e}"))
}

/// Fail with every broken clause of a judged outcome, named by `what`.
fn conformant(what: &str, broken: Vec<Violation>) -> Result<(), String> {
    if broken.is_empty() {
        return Ok(());
    }
    let details: Vec<String> = broken.into_iter().map(|v| v.detail).collect();
    Err(format!("{what}: {}", details.join("; ")))
}

/// The `RANK@EPOCH[,RANK@EPOCH...]` form of a crash list, the inverse of
/// [`parse_crash_list`].
pub(crate) fn crash_list_label(crashes: &[(u32, u32)]) -> String {
    let points: Vec<String> = crashes.iter().map(|(r, e)| format!("{r}@{e}")).collect();
    points.join(",")
}

/// A `RANK@EPOCH[,RANK@EPOCH...]` crash-point list, empty for the empty
/// string: a whole cascade of casualties, recovered by composing the
/// P→P−1 re-map once per crash in (epoch, rank) order. Ranks must be
/// distinct — a rank dies exactly once — which `FaultPlan::with_crash`
/// enforces with its typed `DuplicateCrash` refusal.
pub(crate) fn parse_crash_list(list: &str) -> Result<Vec<(u32, u32)>, String> {
    match list {
        "" => Ok(Vec::new()),
        list => list.split(',').map(parse_crash).collect(),
    }
}

/// Parse a `--crash RANK@EPOCH` crash point.
fn parse_crash(token: &str) -> Result<(u32, u32), String> {
    let (r, e) = token
        .split_once('@')
        .ok_or_else(|| format!("bad crash point {token:?} (expected RANK@EPOCH)"))?;
    let rank: u32 = r
        .trim()
        .parse()
        .map_err(|_| format!("bad crash rank {r:?} in {token:?}"))?;
    let epoch: u32 = e
        .trim()
        .parse()
        .map_err(|_| format!("bad crash epoch {e:?} in {token:?}"))?;
    Ok((rank, epoch))
}

/// `flexdist pattern --p N [--scheme ...] [--seeds K] [--print]`
///
/// # Errors
/// Propagates flag and admissibility errors.
pub fn pattern(args: &Args) -> Result<String, String> {
    let (kind, pat) = pattern_from_args(args, "g2dbc")?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} pattern for P = {}: {} x {} ({} undefined cells)",
        kind.name(),
        pat.n_nodes(),
        pat.rows(),
        pat.cols(),
        pat.n_undefined()
    );
    let _ = writeln!(
        out,
        "LU cost T = {:.3}   symmetric cost = {:.3}   imbalance = {}",
        cost::lu_cost(&pat),
        cost::symmetric_cost(&pat, 4096),
        pat.imbalance()
    );
    let _ = writeln!(
        out,
        "references: 2*sqrt(P) = {:.3}, sqrt(2P) = {:.3}, sqrt(3P/2) = {:.3}",
        cost::ideal_lu_cost(pat.n_nodes()),
        cost::sbc_cost_reference(pat.n_nodes()),
        cost::gcrm_cost_reference(pat.n_nodes())
    );
    if args.flag("print") {
        let _ = writeln!(out, "\n{pat}");
    }
    Ok(out)
}

/// `flexdist plan --p N [--tiles T]`
///
/// # Errors
/// Propagates flag errors.
pub fn plan(args: &Args) -> Result<String, String> {
    let p: u32 = args.require("p")?;
    if p == 0 {
        return Err("--p must be positive".to_string());
    }
    let t = positive(args, "tiles", 60)?;
    let seeds: u64 = args.get("seeds", 30)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "strategies for P = {p} nodes on a {t}x{t} tile matrix:\n"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>5} | {:>8} {:>10} | {:>8} {:>10}",
        "strategy", "nodes", "T(LU)", "LU sends", "T(sym)", "Chol sends"
    );

    let mut row = |name: &str, nodes: u32, pat: &flexdist_core::Pattern, lu_applicable: bool| {
        let assignment = TileAssignment::extended(pat, t);
        let lu_t = if lu_applicable {
            format!("{:.2}", cost::lu_cost(pat))
        } else {
            "-".into()
        };
        let lu_v = if lu_applicable {
            lu_comm_volume(&assignment).total().to_string()
        } else {
            "-".into()
        };
        let _ = writeln!(
            out,
            "{:<22} {:>5} | {:>8} {:>10} | {:>8.2} {:>10}",
            name,
            nodes,
            lu_t,
            lu_v,
            cost::symmetric_cost(pat, 4096),
            cholesky_comm_volume(&assignment).total()
        );
    };

    let (r, c) = twodbc::best_shape(p);
    row(&format!("2DBC {r}x{c}"), p, &twodbc::two_dbc(r, c), true);
    let (q, r2, c2) = twodbc::best_2dbc_at_most(p);
    if q != p {
        row(
            &format!("2DBC {r2}x{c2} (drop to {q})"),
            q,
            &twodbc::two_dbc(r2, c2),
            true,
        );
    }
    let g = g2dbc::g2dbc(p);
    row(&format!("G-2DBC {}x{}", g.rows(), g.cols()), p, &g, true);
    if let Some(ps) = sbc::largest_admissible_at_most(p) {
        if let Ok(pat) = sbc::sbc_extended(ps) {
            row(
                &format!("SBC {0}x{0} ({ps} nodes)", pat.rows()),
                ps,
                &pat,
                false,
            );
        }
    }
    if let Ok(res) = gcrm::search(
        p,
        &gcrm::GcrmConfig {
            n_seeds: seeds,
            ..Default::default()
        },
    ) {
        row(
            &format!("GCR&M {0}x{0}", res.best.rows()),
            p,
            &res.best,
            false,
        );
    }
    Ok(out)
}

/// Parse the `--net constant|shared|hier` family of flags into a
/// [`NetworkModel`] (`--switches`, `--nic-limit` and `--uplink` refine
/// the hierarchical topology).
fn network_from_args(args: &Args) -> Result<NetworkModel, String> {
    match args.get_str("net", "constant").as_str() {
        "constant" => Ok(NetworkModel::Constant),
        "shared" | "shared-bandwidth" => Ok(NetworkModel::SharedBandwidth),
        "hier" | "hierarchical" => {
            let switches: u32 = args.get("switches", 2)?;
            if switches == 0 {
                return Err("--switches must be positive".to_string());
            }
            let mut topo = HierarchicalTopology::new(switches);
            topo.nic_limit = args.get("nic-limit", topo.nic_limit)?;
            topo.uplink_capacity = args.get("uplink", topo.uplink_capacity)?;
            if !topo.uplink_capacity.is_finite() || topo.uplink_capacity <= 0.0 {
                return Err("--uplink must be positive".to_string());
            }
            Ok(NetworkModel::Hierarchical(topo))
        }
        other => Err(format!(
            "unknown network model {other:?} (expected constant, shared or hier)"
        )),
    }
}

/// Parse `--backend channel|uds|tcp`. `None` is the in-process channel
/// fabric, `Some(kind)` selects OS sockets of that family.
fn backend_from_args(args: &Args) -> Result<Option<SocketKind>, String> {
    match args.get_str("backend", "channel").as_str() {
        "channel" => Ok(None),
        other => SocketKind::parse(other)
            .map(Some)
            .ok_or_else(|| format!("unknown backend {other:?} (expected channel, uds or tcp)")),
    }
}

fn machine_from_args(args: &Args, p: u32) -> Result<MachineConfig, String> {
    let mut machine = MachineConfig::paper_testbed(p);
    machine.workers_per_node = args.get("workers", machine.workers_per_node)?;
    machine.network = network_from_args(args)?;
    Ok(machine)
}

/// `flexdist simulate --op lu|chol|syrk --p N [--scheme S] [--n M] [--tile NB]`
///
/// # Errors
/// Propagates flag and admissibility errors.
pub fn simulate(args: &Args) -> Result<String, String> {
    let op = parse_op(&args.get_str("op", "lu"))?;
    let (kind, pat) = pattern_from_args(args, default_scheme(op))?;
    let p = pat.n_nodes();
    let nb = positive(args, "tile", 500)?;
    let n: usize = args.get("n", 40_000)?;
    let t = (n / nb).max(1);
    let gflops: f64 = args.get("gflops", 30.0)?;
    let setup = SimSetup {
        operation: op,
        t,
        cost: KernelCostModel::uniform(nb, gflops),
        machine: machine_from_args(args, p)?,
    };
    let trace_out = args.get_str("trace-out", "");
    let rep = if trace_out.is_empty() {
        setup.run(&pat)
    } else {
        let assignment = TileAssignment::extended(&pat, t);
        let tl = build_graph(op, &assignment, &setup.cost);
        let (rep, trace) = simulate_traced(&tl.graph, &setup.machine);
        write_trace(&trace_out, &sim_trace_to_json_string(&trace, &rep))?;
        rep
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} with {} on {p} nodes, m = {} ({t}x{t} tiles of {nb}):",
        op.name(),
        kind.name(),
        t * nb
    );
    let _ = writeln!(out, "  makespan        {:.3} s", rep.makespan);
    let _ = writeln!(
        out,
        "  throughput      {:.1} GFlop/s total, {:.1} per node",
        rep.gflops(),
        rep.gflops_per_node()
    );
    let _ = writeln!(out, "  messages        {}", rep.messages);
    let _ = writeln!(
        out,
        "  peak memory     {:.1} MiB on the fullest node",
        rep.max_peak_memory() as f64 / (1024.0 * 1024.0)
    );
    let _ = writeln!(out, "  utilization     {:.1} %", 100.0 * rep.utilization());
    let _ = writeln!(out, "  network         {}", setup.machine.network.name());
    if !trace_out.is_empty() {
        let _ = writeln!(out, "  trace           wrote {trace_out}");
    }
    Ok(out)
}

/// `flexdist replay --trace FILE [--net constant|shared|hier]
/// [--latency S] [--bandwidth B] [--out FILE]`
///
/// Feeds a `dexec` net-trace back through the cluster simulator under
/// the chosen [`NetworkModel`] and compares per-link message counts and
/// byte volumes against the trace's goodput. The counts are decided at
/// transfer-schedule time, so they must agree **exactly** under every
/// model — contended models only reorder and stretch time. Fails (exits
/// non-zero) on any disagreeing link.
///
/// # Errors
/// Flag/IO problems, schema errors (traces without wire-departure
/// timestamps are rejected), and the full report on a mismatch.
pub fn replay(args: &Args) -> Result<String, String> {
    let trace_path = args.get_str("trace", "");
    if trace_path.is_empty() {
        return Err("replay: --trace FILE is required".to_string());
    }
    let defaults = ReplayOptions::default();
    let opts = ReplayOptions {
        network: network_from_args(args)?,
        latency: args.get("latency", defaults.latency)?,
        bandwidth: args.get("bandwidth", defaults.bandwidth)?,
    };
    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read trace {trace_path}: {e}"))?;
    let rep = replay_trace_str(&text, &opts).map_err(|e| e.to_string())?;
    let mut out = rep.to_text();
    let json_path = args.get_str("out", "");
    if !json_path.is_empty() {
        std::fs::write(&json_path, rep.to_json().to_pretty())
            .map_err(|e| format!("write {json_path}: {e}"))?;
        let _ = writeln!(out, "wrote {json_path}");
    }
    if rep.conformant() {
        Ok(out)
    } else {
        Err(out)
    }
}

/// `flexdist gantt --op lu|chol --p N [--t T] [--width W]`
///
/// # Errors
/// Propagates flag and admissibility errors.
pub fn gantt(args: &Args) -> Result<String, String> {
    let op = parse_op(&args.get_str("op", "lu"))?;
    let (kind, pat) = pattern_from_args(args, default_scheme(op))?;
    let p = pat.n_nodes();
    let t = positive(args, "t", 16)?;
    let width = positive(args, "width", 72)?;
    let machine = machine_from_args(args, p)?;
    let assignment = TileAssignment::extended(&pat, t);
    let tl = build_graph(op, &assignment, &KernelCostModel::uniform(500, 30.0));
    let (rep, trace) = simulate_traced(&tl.graph, &machine);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} with {} on {p} nodes, {t}x{t} tiles — makespan {:.4} s, {} tasks:\n",
        op.name(),
        kind.name(),
        rep.makespan,
        rep.tasks
    );
    if args.flag("lanes") {
        out.push_str(&render_worker_gantt(&trace, &machine, width));
    } else {
        out.push_str(&render_gantt(&trace, &machine, width));
    }
    let trace_out = args.get_str("trace-out", "");
    if !trace_out.is_empty() {
        write_trace(&trace_out, &sim_trace_to_json_string(&trace, &rep))?;
        let _ = writeln!(out, "wrote {trace_out}");
    }
    Ok(out)
}

/// `flexdist execute --op lu|chol|syrk --p N [--t T] [--nb NB] [--threads W]
/// [--scheme S] [--seed S] [--trace-out FILE]`
///
/// Runs the factorization for real (actual `f64` kernels on a local
/// work-stealing thread pool) and reports numerics plus scheduler counters.
///
/// # Errors
/// Propagates flag and admissibility errors, and trace write failures.
pub fn execute(args: &Args) -> Result<String, String> {
    let (kind, spec) = spec_from_args(args, (8, 64, 30_000))?;
    let threads = positive(args, "threads", 4)?;
    let problem = spec.problem()?;
    let started = Instant::now();
    let (result, rep, trace) = execute_traced(&problem.tl, problem.input.clone(), threads);
    let wall = started.elapsed().as_secs_f64();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} with {} on {} nodes, {t}x{t} tiles of {}, {threads} worker threads:",
        spec.op.name(),
        kind.name(),
        spec.pattern.n_nodes(),
        spec.nb,
        t = spec.t
    );
    if let Some(e) = &rep.error {
        let _ = writeln!(out, "  kernel error    {e}");
    } else if let Some(residual) = spec.op.residual(&problem.input, &result) {
        let _ = writeln!(out, "  residual        {residual:.3e}");
    }
    let _ = writeln!(out, "  tasks           {}", rep.tasks);
    let idlest = rep.workers.iter().map(|w| w.idle.as_secs_f64());
    let _ = writeln!(
        out,
        "  wall            {wall:.3} s, {:.1} GF/s (traced; idle at most {:.1} % of it on any worker)",
        spec.op.total_flops(spec.t, spec.nb) / wall / 1e9,
        100.0 * idlest.fold(0.0, f64::max) / wall
    );
    let _ = writeln!(out, "  remote reads    {}", rep.remote_reads);
    let _ = writeln!(
        out,
        "  tasks stolen    {} (peak queue depth {})",
        rep.tasks_stolen(),
        rep.max_queue_depth()
    );
    for (w, stats) in rep.workers.iter().enumerate() {
        let _ = writeln!(
            out,
            "  worker {w:>2}       {:>5} run, {:>4} stolen, idle {:.1} ms",
            stats.executed,
            stats.stolen,
            stats.idle.as_secs_f64() * 1e3
        );
    }
    let trace_out = args.get_str("trace-out", "");
    if !trace_out.is_empty() {
        write_trace(&trace_out, &trace.to_json(&problem.tl))?;
        let _ = writeln!(out, "  trace           wrote {trace_out}");
    }
    Ok(out)
}

/// `flexdist dexec --op lu|chol --p N [--t T] [--nb NB] [--scheme S]
/// [--seed S] [--backend channel|uds|tcp] [--trace-out FILE]
/// [--recover --crash RANK@EPOCH[,RANK@EPOCH...] [--watchdog MS]]`
///
/// Runs the factorization in distributed mode — one message-passing rank
/// per node of the assignment, each holding only its owned tiles, every
/// remote operand shipped as a serialized tile message — and holds every
/// leg to the contract of [`flexdist_factor::conformance`]: the traced
/// run against the shared-memory executor; a repeat that must replay its
/// report; with `--backend uds|tcp` the same [`RunSpec`] again as one
/// **OS process per rank** (see [`crate::mp`]); and with `--recover
/// --crash LIST` the crashed spec, over channels and then as rank
/// processes whose casualties really exit, against the crash-free run
/// and the composed spliced volume of its recovery plans.
///
/// # Errors
/// Propagates flag and admissibility errors, protocol errors from the
/// fabric, conformance violations, and trace write failures.
pub fn dexec(args: &Args) -> Result<String, String> {
    let backend = backend_from_args(args)?;
    let (kind, spec) = spec_from_args(args, (8, 16, 30_000))?;
    let crashes = parse_crash_list(&args.get_str("crash", ""))?;
    const CRASH: &str = "--crash RANK@EPOCH[,RANK@EPOCH...]";
    match (args.flag("recover"), crashes.is_empty()) {
        (true, true) => return Err(format!("dexec --recover needs {CRASH}")),
        (false, false) => return Err(format!("dexec {CRASH} needs --recover")),
        _ => {}
    }
    let problem = distributed_problem("dexec", &spec)?;
    let (p, t, nb) = (spec.pattern.n_nodes(), spec.t, spec.nb);
    // The crashed spec is parsed and planned before anything runs (no
    // crash, no plan: its legs are skipped below).
    let rspec = RunSpec {
        crashes,
        recover: true,
        ..spec.clone()
    };
    let ropts = rspec.options()?;
    let plans = problem
        .plans(ropts.faults.as_ref())
        .map_err(|e| e.to_string())?;

    // The contract, leg by leg: the traced run against the shared-memory
    // reference, a repeat that must replay it, and with a socket backend
    // the same spec again as one OS process per rank.
    let reference = reference_of(&problem)?;
    let traced = DexecOptions {
        trace: true,
        ..spec.options()?
    };
    let run = problem.run(&traced).map_err(|e| e.to_string())?;
    let rep = &run.report;
    conformant(
        "distributed run",
        problem.judge(&reference, &[], &run, None),
    )?;
    let again = problem.run(&spec.options()?).map_err(|e| e.to_string())?;
    conformant(
        "repeat of the distributed run",
        problem.judge(&reference, &[], &again, Some(rep)),
    )?;
    let mut legs = Vec::new();
    if let Some(sock) = backend {
        let out = mp::run_ranks(&spec, sock)?;
        conformant(
            &format!("multi-process run ({})", sock.name()),
            problem.judge(&reference, &[], &out, Some(rep)),
        )?;
        legs.push(format!(
            "  backend         {}: {p} rank processes, bitwise == in-process, \
             goodput conformant",
            sock.name()
        ));
    }
    // Crash-recovery legs: the crashed spec over channels, then as rank
    // processes, judged against the crash-free run and the composed
    // spliced volume of the plans.
    if !rspec.crashes.is_empty() {
        let rec = problem.run(&ropts).map_err(|e| e.to_string())?;
        conformant(
            "recovered run (channel)",
            problem.judge(&run.matrix, &plans, &rec, None),
        )?;
        legs.push(format!(
            "  recovery        crash(es) {} ({} active re-map(s)): {} recovered \
             send(s) / {} B, goodput == composed spliced volume, bitwise == crash-free",
            crash_list_label(&rspec.crashes),
            plans.iter().filter(|plan| plan.active).count(),
            rec.report.recovered_msgs,
            rec.report.recovered_bytes
        ));
        if let Some(sock) = backend {
            let out = mp::run_ranks(&rspec, sock)?;
            conformant(
                &format!("recovered run ({})", sock.name()),
                problem.judge(&run.matrix, &plans, &out, None),
            )?;
            legs.push(format!(
                "  recovery        {}: {p} rank processes, crashed rank(s) exited, bitwise == \
                 crash-free, goodput == composed spliced volume",
                sock.name()
            ));
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} with {} distributed over {p} ranks, {t}x{t} tiles of {nb}:",
        spec.op.name(),
        kind.name()
    );
    if let Some(residual) = spec.op.residual(&problem.input, &run.matrix) {
        let _ = writeln!(out, "  residual        {residual:.3e}");
    }
    let _ = writeln!(out, "  tasks           {}", rep.tasks);
    // Timing is read off the untraced repeat.
    let _ = writeln!(
        out,
        "  wall            {:.3} s, {:.1} GF/s",
        again.wall_s,
        spec.op.total_flops(t, nb) / again.wall_s / 1e9
    );
    let longest = RankPhases::longest(&again.phases);
    let shares = longest
        .named()
        .map(|(name, s)| format!("{name} {:.1}", 100.0 * s / again.wall_s));
    let _ = writeln!(
        out,
        "  phases          {} (max over ranks, % of wall)",
        shares.join(", ")
    );
    let _ = writeln!(
        out,
        "  wire            {} tiles ({} panel + {} trailing), {} bytes",
        rep.wire.total(),
        rep.wire.panel,
        rep.wire.trailing,
        rep.bytes
    );
    let _ = writeln!(
        out,
        "  conformance     ok (matches exact counters; bitwise == shared-memory; deterministic)"
    );
    for line in legs {
        let _ = writeln!(out, "{line}");
    }
    // Static protocol analysis: the proved peak-memory bound sits next
    // to each rank's measured goodput.
    let proto = flexdist_verify::check_protocol(&problem.tl, &problem.assignment, &[], None)
        .map_err(|e| format!("protocol derivation: {e}"))?;
    if let Some(cap) = proto.min_capacity {
        let _ = writeln!(
            out,
            "  protocol        statically verified: {} finding(s), min safe inbox capacity \
             {cap} frame(s)",
            proto.findings.len()
        );
    }
    for r in &rep.per_rank {
        let peak = proto
            .peaks
            .iter()
            .find(|q| q.rank == r.rank)
            .map_or_else(String::new, |q| {
                format!(
                    ", peak {:>3} tiles / {:>9} B",
                    q.owned + q.peak_replicas,
                    q.peak_bytes(nb)
                )
            });
        let _ = writeln!(
            out,
            "  rank {:>3}        {:>5} tasks, sent {:>5} msgs / {:>9} B, recv {:>5} msgs / {:>9} B{peak}",
            r.rank, r.tasks, r.sent_msgs, r.sent_bytes, r.recv_msgs, r.recv_bytes
        );
    }
    let _ = writeln!(out, "  links           {} carried traffic", rep.links.len());
    let trace_out = args.get_str("trace-out", "");
    if !trace_out.is_empty() {
        let trace = run
            .trace
            .as_ref()
            .ok_or_else(|| "trace requested but not recorded".to_string())?;
        write_trace(&trace_out, &trace.to_json_string())?;
        let _ = writeln!(out, "  trace           wrote {trace_out}");
    }
    Ok(out)
}

/// `flexdist chaos --op lu|chol [--p N] [--scheme S] [--t T] [--nb NB]
/// [--seeds K] [--seed BASE] [--rates r1,r2,...] [--watchdog MS]
/// [--backend channel|uds|tcp]`
///
/// Chaos gate for the distributed executor: sweeps fault seeds × fault
/// rates, injecting drops, duplicates, corruptions and delays on every
/// link at each rate. Every cell must complete despite the faults and
/// pass the judge of [`flexdist_factor::conformance`] twice: against the
/// shared-memory executor (retransmissions are accounted apart from the
/// goodput), and again as a replay of its seed, fault counters included.
/// `--backend uds|tcp` runs every cell over the socket fabric instead of
/// in-process channels; nothing else changes, because fault fates are a
/// pure function of the seed and the message identity, not of transport
/// timing. With `--recover` the dispatcher runs the crash-recovery gate,
/// [`chaos_recover`], instead.
///
/// # Errors
/// Propagates flag and admissibility errors, protocol errors from the
/// fabric, and every violation (named by cell).
pub fn chaos(args: &Args) -> Result<String, String> {
    let (kind, spec) = spec_from_args(args, (6, 8, 10_000))?;
    let (p, t, nb) = (spec.pattern.n_nodes(), spec.t, spec.nb);
    let n_seeds: u64 = args.get("seeds", 3)?;
    let sock = match backend_from_args(args)? {
        None => None,
        Some(kind) => Some((kind, mp::SocketDir::new()?)),
    };
    if n_seeds == 0 {
        return Err("--seeds must be positive".to_string());
    }
    let rates: Vec<f64> = list(args, "rates", "0.02,0.05,0.1", "rate")?;
    if let Some(r) = rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        return Err(format!("rate {r} outside [0, 1]"));
    }
    let problem = distributed_problem("chaos", &spec)?;
    // One shared-memory reference for every cell.
    let shared = reference_of(&problem)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {} with {} over {p} ranks ({} backend), {t}x{t} tiles of {nb}, \
         {n_seeds} seed(s) x {} rate(s):",
        spec.op.name(),
        kind.name(),
        sock.as_ref().map_or("channel", |(k, _)| k.name()),
        rates.len()
    );
    // The fault sweep runs against a statically verified protocol; the
    // proved memory bound holds for every cell because faults change
    // retransmissions, never the goodput schedule.
    let proto = flexdist_verify::check_protocol(&problem.tl, &problem.assignment, &[], None)
        .map_err(|e| format!("protocol derivation: {e}"))?;
    if let (Some(cap), Some(peak)) = (proto.min_capacity, proto.max_peak()) {
        let _ = writeln!(
            out,
            "  static protocol: {} finding(s), min safe inbox capacity {cap} frame(s), \
             peak resident {} tiles / {} B (rank {})",
            proto.findings.len(),
            peak.owned + peak.peak_replicas,
            peak.peak_bytes(nb),
            peak.rank
        );
    }
    let _ = writeln!(
        out,
        "  {:>6} {:>6} | {:>7} {:>7} {:>8} {:>7} {:>9} | verdict",
        "rate", "seed", "retrans", "dropped", "corrupt", "dups", "overhd B"
    );
    for &rate in &rates {
        for s in 0..n_seeds {
            let seed = spec.seed.wrapping_add(s);
            let cell = format!("cell rate={rate} seed={seed}");
            let opts = DexecOptions {
                faults: Some(mp::noise_plan(seed, rate)),
                watchdog: std::time::Duration::from_millis(spec.watchdog_ms),
                backend: sock.as_ref().map_or(Backend::Channel, |(kind, dir)| {
                    Backend::Socket(SocketConfig {
                        kind: *kind,
                        ..SocketConfig::uds(dir.path())
                    })
                }),
                ..DexecOptions::default()
            };
            let run = || problem.run(&opts).map_err(|e| format!("{cell}: {e}"));
            let first = run()?;
            conformant(&cell, problem.judge(&shared, &[], &first, None))?;
            let second = run()?;
            conformant(
                &format!("{cell}: replaying the seed"),
                problem.judge(&shared, &[], &second, Some(&first.report)),
            )?;
            let f = first.report.faults;
            let _ = writeln!(
                out,
                "  {rate:>6.3} {seed:>6} | {:>7} {:>7} {:>8} {:>7} {:>9} | ok",
                f.retransmits,
                f.dropped,
                f.corrupt_injected,
                f.duplicates_injected,
                f.overhead_bytes
            );
        }
    }
    let _ = writeln!(
        out,
        "  all {} cell(s): bitwise == shared-memory, goodput == exact counters, \
         reports replay from their seeds",
        rates.len() as u64 * n_seeds
    );
    Ok(out)
}

/// `flexdist chaos --recover [--op lu|chol] [--ps P1,P2,...] [--t T]
/// [--nb NB] [--seed S] [--seeds K] [--watchdog MS] [--rate R]
/// [--backend channel|uds|tcp] [--crash RANK@EPOCH[,RANK@EPOCH...]]`
///
/// The crash-recovery acceptance gate: for every op × rank-count
/// (default LU and Cholesky over `--ps 4,5,7,12`) a crash-count ×
/// noise-rate cell matrix. Every cell crashes the owner of the final
/// diagonal tile — a rank with work at every iteration, so the recovery
/// is always an active re-map — at an early and a middle epoch; the
/// cascade cells additionally kill the first casualty's heir mid-run.
/// Each crash list runs on a quiet wire and again under `--rate` noise,
/// in-process or (`--backend uds|tcp`) as rank processes, and is judged
/// against the crash-free run and its recovery plans. `--crash` replaces
/// the generated crash lists with the given one.
///
/// # Errors
/// As [`chaos`].
pub fn chaos_recover(args: &Args) -> Result<String, String> {
    let ops: Vec<Operation> = if args.flag("op") {
        vec![parse_op(&args.get_str("op", "lu"))?]
    } else {
        vec![Operation::Lu, Operation::Cholesky]
    };
    let ps: Vec<u32> = list(args, "ps", "4,5,7,12", "rank count")?;
    if ps.iter().any(|&p| p < 2) {
        return Err("--ps entries must be at least 2 (recovery needs a survivor)".to_string());
    }
    let t: usize = args.get("t", 6)?;
    let nb: usize = args.get("nb", 8)?;
    let seed: u64 = args.get("seed", 42)?;
    let seeds: u64 = args.get("seeds", 30)?;
    let watchdog_ms: u64 = args.get("watchdog", 30_000)?;
    let rate: f64 = args.get("rate", 0.05)?;
    if !(0.0..=0.5).contains(&rate) {
        return Err(format!("rate {rate} outside [0, 0.5]"));
    }
    let backend = backend_from_args(args)?;
    if t < 2 {
        return Err("--t must be at least 2".to_string());
    }
    let user_crashes = parse_crash_list(&args.get_str("crash", ""))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos --recover: crash-count x noise-rate cells over the {} backend, \
         {t}x{t} tiles of {nb}:",
        backend.map_or("channel", SocketKind::name)
    );
    let _ = writeln!(
        out,
        "  {:>4} {:>3} {:>7} {:>11} {:>5} | {:>9} {:>9} {:>10} | verdict",
        "op", "p", "scheme", "crash", "noise", "wire", "recov", "recov B"
    );
    let mut cells = 0u64;
    for &op in &ops {
        let op_tok = match op {
            Operation::Cholesky => "chol",
            other => other.name(),
        };
        let scheme_tok = default_scheme(op);
        for &p in &ps {
            // The crash-free spec of this (op, p); every cell is this
            // spec with a crash list and a noise rate filled in.
            let crash_free = RunSpec {
                op,
                pattern: SchemeKind::parse(scheme_tok)?.build(p, seeds)?,
                t,
                nb,
                seed,
                crashes: Vec::new(),
                noise_rate: 0.0,
                recover: true,
                watchdog_ms,
            };
            let problem = distributed_problem("chaos --recover", &crash_free)?;
            // One crash-free reference per (op, p): the bitwise oracle.
            let base = problem
                .run(&DexecOptions::default())
                .map_err(|e| e.to_string())?;
            conformant(
                &format!("crash-free reference op={op_tok} p={p}"),
                problem.judge(&reference_of(&problem)?, &[], &base, None),
            )?;
            // The final diagonal tile's owner works at every iteration;
            // the cascade cell then kills its heir mid-run too.
            let dead = problem.assignment.owner(t - 1, t - 1);
            let mid = (t as u32) / 2;
            let mut crash_lists: Vec<Vec<(u32, u32)>> =
                vec![vec![(dead, 1)], vec![(dead, mid.max(1))]];
            if p >= 3 {
                let first = RunSpec {
                    crashes: vec![(dead, 1)],
                    ..crash_free.clone()
                };
                let plans = problem
                    .plans(first.options()?.faults.as_ref())
                    .map_err(|e| format!("op={op_tok} p={p}: {e}"))?;
                if let Some(rp) = plans.first() {
                    let heir = rp.remapped.owner(t - 1, t - 1);
                    crash_lists.push(vec![(dead, 1), (heir, mid.max(2))]);
                }
            }
            // An explicit `--crash` list replaces the generated ones.
            if !user_crashes.is_empty() {
                crash_lists = vec![user_crashes.clone()];
            }
            // `--rate 0` collapses the noise axis to the quiet wire.
            let noise_rates: &[f64] = if rate > 0.0 { &[0.0, rate] } else { &[0.0] };
            for crashes in crash_lists {
                for &noise_rate in noise_rates {
                    let desc = crash_list_label(&crashes);
                    let cell = format!("cell op={op_tok} p={p} crash={desc} noise={noise_rate}");
                    let spec = RunSpec {
                        crashes: crashes.clone(),
                        noise_rate,
                        ..crash_free.clone()
                    };
                    let opts = spec.options().map_err(|e| format!("{cell}: {e}"))?;
                    let plans = problem
                        .plans(opts.faults.as_ref())
                        .map_err(|e| format!("{cell}: {e}"))?;
                    let rec = match backend {
                        None => problem.run(&opts).map_err(|e| e.to_string()),
                        Some(sock) => mp::run_ranks(&spec, sock),
                    }
                    .map_err(|e| format!("{cell}: {e}"))?;
                    conformant(&cell, problem.judge(&base.matrix, &plans, &rec, None))?;
                    let rep = &rec.report;
                    let _ = writeln!(
                        out,
                        "  {:>4} {:>3} {:>7} {:>11} {:>5} | {:>9} {:>9} {:>10} | ok",
                        op_tok,
                        p,
                        scheme_tok,
                        desc,
                        format!("{noise_rate:.2}"),
                        rep.wire.total(),
                        rep.recovered_msgs,
                        rep.recovered_bytes
                    );
                    cells += 1;
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "  all {cells} cell(s): completed, bitwise == crash-free, goodput == spliced volume"
    );
    Ok(out)
}

/// `flexdist _rank --rank R --sock uds|tcp --dir DIR` with one
/// `run-spec` JSON document on stdin (hidden)
///
/// One rank process of a multi-process `dexec --backend uds|tcp` run:
/// reads the [`RunSpec`] the parent judged, derives problem and options
/// from it exactly as the parent did, executes this rank over the socket
/// fabric under `--dir`, and prints one `rank-outcome` control document
/// on stdout for the parent to collect (see [`crate::mp`]).
///
/// # Errors
/// Propagates flag and spec errors and any [`net
/// error`](flexdist_factor::net::NetError) of the rank, which the
/// parent reads from this process's stderr.
pub fn rank_worker(args: &Args) -> Result<String, String> {
    let rank: u32 = args.require("rank")?;
    let kind = SocketKind::parse(&args.get_str("sock", "uds"))
        .ok_or_else(|| "_rank: bad --sock (expected uds or tcp)".to_string())?;
    let dir = args.get_str("dir", "");
    if dir.is_empty() {
        return Err("_rank: --dir DIR is required".to_string());
    }
    let doc = std::io::read_to_string(std::io::stdin())
        .map_err(|e| format!("_rank: reading the run spec from stdin: {e}"))?;
    let spec = RunSpec::from_json(&doc).map_err(|e| format!("_rank: {e}"))?;
    let problem = distributed_problem("_rank", &spec)?;
    let n_ranks = problem.assignment.n_nodes();
    if rank >= n_ranks {
        return Err(format!(
            "_rank: rank {rank} out of range for {n_ranks} nodes"
        ));
    }
    let opts = spec.options().map_err(|e| format!("_rank: {e}"))?;
    let cfg = SocketConfig {
        kind,
        ..SocketConfig::uds(dir)
    };
    let outcome = execute_rank_socket(
        &problem.tl,
        &problem.assignment,
        &problem.input,
        rank,
        &cfg,
        &opts,
    )
    .map_err(|e| format!("rank {rank}: {e}"))?;
    let mut doc = mp::rank_outcome_to_json(&outcome).to_string();
    doc.push('\n');
    Ok(doc)
}

/// `flexdist sweep --op lu|chol|syrk --p N [--schemes s1,s2,...]
/// [--tiles t1,t2,...] [--tile NB] [--gflops G] [--seeds K] [--workers W]
/// [--out FILE] [--json FILE]`
///
/// Runs the cross-product of the listed schemes and tile counts on the
/// paper testbed sized for `P`, via the batch engine (each task graph is
/// built once, grid points run in parallel on reusable simulators).
/// Prints a TSV table; `--out` also writes the TSV to a file and
/// `--json` dumps the full per-node reports as JSON.
///
/// # Errors
/// Propagates flag, scheme and admissibility errors, and file I/O
/// failures.
pub fn sweep(args: &Args) -> Result<String, String> {
    let op = parse_op(&args.get_str("op", "lu"))?;
    let p: u32 = args.require("p")?;
    if p == 0 {
        return Err("--p must be positive".to_string());
    }
    let default_schemes = match op {
        Operation::Lu => "2dbc,g2dbc",
        _ => "gcrm",
    };
    let seeds: u64 = args.get("seeds", 30)?;
    let tiles: Vec<usize> = list(args, "tiles", "16,24,32", "tile count")?;
    if tiles.contains(&0) {
        return Err("--tiles entries must be positive".to_string());
    }
    let nb = positive(args, "tile", 500)?;
    let gflops: f64 = args.get("gflops", 30.0)?;
    let machine = machine_from_args(args, p)?;
    let machine_label = format!("p{p}w{}", machine.workers_per_node);
    let mut builder = SweepBuilder::new(op, KernelCostModel::uniform(nb, gflops));
    for tok in args.get_str("schemes", default_schemes).split(',') {
        let kind = SchemeKind::parse(tok.trim())?;
        let pattern = kind.build(p, seeds)?;
        for &t in &tiles {
            builder.case(
                &format!("{}@t{t}", kind.name()),
                &pattern,
                t,
                &machine_label,
                &machine,
            );
        }
    }
    let graphs = builder.graphs_built();
    let results = builder.finish().run();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# sweep: {} on P = {p}, {} points over {graphs} graphs, {:.3} s wall",
        op.name(),
        results.points.len(),
        results.wall_seconds
    );
    let tsv = results.to_tsv();
    out.push_str(&tsv);
    let path = args.get_str("out", "");
    if !path.is_empty() {
        std::fs::write(&path, &tsv).map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    let json_path = args.get_str("json", "");
    if !json_path.is_empty() {
        std::fs::write(&json_path, results.to_json().to_pretty())
            .map_err(|e| format!("write {json_path}: {e}"))?;
        let _ = writeln!(out, "wrote {json_path}");
    }
    Ok(out)
}

/// `flexdist verify [--lint [--root DIR] [--allow FILE]]
/// [--op lu|chol|syrk|gemm (--p N [--scheme S] | --pattern FILE) [--t T]
/// [--trace FILE]] [--protocol [--capacity N] [--nb NB] [--mutate M]]`
///
/// Machine-checked correctness gate. `--lint` runs the workspace source
/// rules (no `unwrap`/`expect` outside tests, NaN-safe `f64` ordering,
/// no lossy casts in the wire crates, `unsafe` confined to the
/// work-stealing deque) against the allowlist. With `--op` and a
/// distribution, builds the task graph and runs the static DAG linter
/// (access sets, owner-computes, cycles, missing/redundant dependency
/// edges); `--trace FILE` additionally replays a `simulate`/`execute`
/// trace through the vector-clock race detector. Any finding makes the
/// command fail.
///
/// `--protocol` (LU/Cholesky only) symbolically derives the complete
/// per-rank send/recv schedule and proves send/recv matching,
/// deadlock-freedom under bounded inbox buffers (reporting the minimum
/// safe capacity; `--capacity N` additionally simulates exactly `N`
/// frames and prints any wait-for cycle witness), replica eviction
/// safety, and the per-rank peak-memory table (`--nb` sets the tile
/// size the bytes column assumes). `--crash RANK@EPOCH[,RANK@EPOCH...]`
/// derives the **crashed** schedule instead — the fused survivor view
/// under the composed P→P−k re-map chain plus every casualty's
/// pre-crash tasks — and proves the same properties of the recovered
/// protocol, cross-checked against the k-fused spliced broadcast
/// walk. With `--trace FILE` the net-trace is also checked to be a
/// linearization of the derived schedule (a recovered run's trace
/// against its crashed schedule). `--mutate
/// drop-send|drop-recovery-send|swap-sends|evict-early|capacity-1`
/// seeds one protocol bug first — the run must then fail, which
/// `scripts/check.sh` uses to prove the verifier is not vacuous.
///
/// # Errors
/// Returns flag/IO problems, and the full report when findings exist
/// (so the process exits non-zero).
pub fn verify(args: &Args) -> Result<String, String> {
    let mut out = String::new();
    let mut n_findings = 0usize;
    let run_lint = args.flag("lint");
    let run_dag = args.flag("op") || args.flag("p") || args.flag("pattern");
    let run_protocol = args.flag("protocol");
    let replay_path = args.get_str("replay", "");
    if run_protocol && !run_dag {
        return Err(
            "verify --protocol needs the distribution context: pass --op with --p/--pattern"
                .to_string(),
        );
    }
    if !run_lint && !run_dag && replay_path.is_empty() {
        return Err(
            "verify: nothing to do — pass --lint, --replay FILE, and/or --op with --p/--pattern"
                .to_string(),
        );
    }
    if !replay_path.is_empty() {
        // A `replay-report` is replay-provenance output of `flexdist
        // replay`: lint it for exact per-link agreement.
        let text = std::fs::read_to_string(&replay_path)
            .map_err(|e| format!("cannot read replay report {replay_path}: {e}"))?;
        let doc = flexdist_json::parse(&text)
            .map_err(|e| format!("{replay_path}: replay-report JSON: {e}"))?;
        let rep = flexdist_verify::check_replay_report(&doc)
            .map_err(|e| format!("{replay_path}: {e}"))?;
        n_findings += rep.findings.len();
        out.push_str(&rep.to_text());
    }
    if run_lint {
        let root = args.get_str("root", ".");
        let allow_path = args.get_str("allow", &format!("{root}/scripts/lint_allow.txt"));
        let allow = if std::path::Path::new(&allow_path).exists() {
            flexdist_verify::Allowlist::load(std::path::Path::new(&allow_path))?
        } else {
            flexdist_verify::Allowlist::default()
        };
        let rep = flexdist_verify::lint_workspace(std::path::Path::new(&root), &allow)?;
        n_findings += rep.findings.len();
        out.push_str(&rep.to_text());
    }
    if run_dag {
        let op = parse_op_any(&args.get_str("op", "lu"))?;
        let (kind, pat) = pattern_from_args(args, default_scheme(op))?;
        let t = positive(args, "t", 16)?;
        let assignment = TileAssignment::extended(&pat, t);
        let tl = build_graph(op, &assignment, &KernelCostModel::uniform(500, 30.0));
        let _ = writeln!(
            out,
            "{} with {} on {} nodes, {t}x{t} tiles:",
            op.name(),
            kind.name(),
            pat.n_nodes()
        );
        let rep = flexdist_verify::lint_graph(&tl);
        n_findings += rep.findings.len();
        out.push_str(&rep.to_text());
        if run_protocol {
            if !matches!(op, Operation::Lu | Operation::Cholesky) {
                return Err("verify --protocol supports --op lu or chol only".to_string());
            }
            let nb: usize = args.get("nb", 16)?;
            let capacity: u32 = args.get("capacity", 0)?;
            let capacity = (capacity > 0).then_some(capacity);
            let mutate = args.get_str("mutate", "");
            let crash_pts = parse_crash_list(&args.get_str("crash", ""))?;
            let mut sched = flexdist_verify::ProtocolSchedule::derive_crashed_cascade(
                &tl,
                &assignment,
                &crash_pts,
            )?;
            if !crash_pts.is_empty() {
                let pts: Vec<String> = crash_pts
                    .iter()
                    .map(|(d, e)| format!("rank {d} at epoch {e}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "protocol crash cascade: {}; checking the fused survivor + casualty \
                     schedule",
                    pts.join(", ")
                );
            }
            let mut cap = capacity;
            if !mutate.is_empty() {
                let applied = match mutate.as_str() {
                    "drop-send" => sched
                        .drop_send(0)
                        .map(|task| format!("dropped task {task}'s broadcast")),
                    "drop-recovery-send" => sched.drop_recovery_send(0).map(|(task, to)| {
                        format!("dropped task {task}'s recovery-only send(s) to ranks {to:?}")
                    }),
                    "swap-sends" => sched
                        .swap_sends(0)
                        .map(|(u, v)| format!("swapped the broadcasts of tasks {u} and {v}")),
                    "evict-early" => sched.evict_early(0).map(|(r, k)| {
                        format!(
                            "decremented rank {r}'s readers_left of tile ({},{})@{}",
                            k.i, k.j, k.epoch
                        )
                    }),
                    "capacity-1" => {
                        cap = Some(1);
                        Some("simulating one-frame inboxes".to_string())
                    }
                    other => {
                        return Err(format!(
                            "unknown --mutate {other:?} (expected drop-send, drop-recovery-send, \
                             swap-sends, evict-early or capacity-1)"
                        ))
                    }
                }
                .ok_or_else(|| format!("--mutate {mutate}: schedule has no applicable site"))?;
                let _ = writeln!(out, "protocol mutation: {applied}");
            }
            let prep = if mutate.is_empty() {
                // The unmutated path also cross-checks the schedule
                // against the independent broadcast walk: Fig. 2 when
                // crash-free, the k-fused spliced chain across crashes.
                flexdist_verify::check_protocol(&tl, &assignment, &crash_pts, cap)?
            } else {
                flexdist_verify::check_schedule(&sched, cap)
            };
            n_findings += prep.findings.len();
            out.push_str(&prep.to_text());
            out.push_str(&prep.peak_table(nb));
            let trace_path = args.get_str("trace", "");
            if !trace_path.is_empty() {
                let text = std::fs::read_to_string(&trace_path)
                    .map_err(|e| format!("cannot read trace {trace_path}: {e}"))?;
                let doc = flexdist_json::parse(&text)
                    .map_err(|e| format!("{trace_path}: trace JSON: {e}"))?;
                let check = flexdist_verify::check_trace_linearization(&sched, &doc)
                    .map_err(|e| format!("{trace_path}: {e}"))?;
                n_findings += check.findings.len();
                out.push_str(&check.to_text());
            }
        }
        let trace_path = args.get_str("trace", "");
        if !trace_path.is_empty() {
            let text = std::fs::read_to_string(&trace_path)
                .map_err(|e| format!("cannot read trace {trace_path}: {e}"))?;
            let doc = flexdist_json::parse(&text)
                .map_err(|e| format!("{trace_path}: trace JSON: {e}"))?;
            let trace = flexdist_verify::TraceView::from_json(&doc)
                .map_err(|e| format!("{trace_path}: {e}"))?;
            let view = flexdist_verify::GraphView::from_graph(&tl.graph);
            let rep = flexdist_verify::detect_races(&view, &trace);
            n_findings += rep.findings.len();
            out.push_str(&rep.to_text());
            if trace.kind == "net-trace" {
                // Distributed traces also carry the wire messages: lint
                // them for exactly-once delivery, with the reliability
                // layer's retransmitted/duplicated frames deduplicated
                // rather than flagged. Both provenances are accepted —
                // live executor traces and simulator replays.
                let _ = writeln!(
                    out,
                    "net-trace provenance: {}",
                    flexdist_verify::trace_provenance(&doc)
                );
                let msgs = flexdist_verify::net_messages_from_json(&doc)
                    .map_err(|e| format!("{trace_path}: {e}"))?;
                let rep = flexdist_verify::check_net_messages(&msgs);
                n_findings += rep.findings.len();
                out.push_str(&rep.to_text());
            }
        }
    }
    if n_findings > 0 {
        let _ = writeln!(out, "verify: FAILED with {n_findings} finding(s)");
        Err(out)
    } else {
        let _ = writeln!(out, "verify: ok");
        Ok(out)
    }
}

/// `flexdist db --purpose lu|sym [--pmax P] [--seeds K] [--out FILE]`
///
/// # Errors
/// Propagates flag errors and file I/O failures.
pub fn db(args: &Args) -> Result<String, String> {
    let purpose = match args.get_str("purpose", "sym").as_str() {
        "lu" => Purpose::Lu,
        "sym" | "symmetric" => Purpose::Symmetric,
        other => return Err(format!("unknown purpose {other:?} (expected lu or sym)")),
    };
    let p_max: u32 = args.get("pmax", 32)?;
    let seeds: u64 = args.get("seeds", 20)?;
    let db = PatternDb::build(purpose, p_max, seeds).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for e in db.iter() {
        let _ = writeln!(
            out,
            "P = {:>3}: {:?} {}x{}  T = {:.3}",
            e.p,
            e.scheme,
            e.pattern.rows(),
            e.pattern.cols(),
            e.cost
        );
    }
    let _ = writeln!(out, "{} entries ({purpose:?})", db.len());
    let path = args.get_str("out", "");
    if !path.is_empty() {
        std::fs::write(&path, db.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        let _ = writeln!(out, "wrote {path}");
    }
    Ok(out)
}
