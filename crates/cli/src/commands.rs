//! Subcommand implementations. Each returns its rendered output.

use crate::args::Args;
use crate::mp;
use crate::scheme::{pattern_from_args, SchemeKind};
use flexdist_core::db::{PatternDb, Purpose};
use flexdist_core::{cost, g2dbc, gcrm, sbc, twodbc};
use flexdist_dist::{cholesky_comm_volume, lu_comm_volume, TileAssignment};
use flexdist_factor::net::{FaultPlan, FullMesh, SocketConfig, SocketKind};
use flexdist_factor::{
    build_graph, derive_recovery, execute_distributed_with, execute_rank_socket, execute_traced,
    replay_trace_str, Backend, DexecOptions, Operation, ReplayOptions, SimSetup, SweepBuilder,
};
use flexdist_kernels::{KernelCostModel, TiledMatrix};
use flexdist_runtime::{
    render_gantt, render_worker_gantt, sim_trace_to_json_string, simulate_traced,
    HierarchicalTopology, MachineConfig, NetworkModel,
};
use std::fmt::Write as _;

/// Write a JSON trace document to `path`.
fn write_trace(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

fn parse_op(token: &str) -> Result<Operation, String> {
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

/// Parse a `--crash RANK@EPOCH[,RANK@EPOCH...]` crash-point list: a
/// whole cascade of casualties, recovered by composing the P→P−1
/// re-map once per crash in (epoch, rank) order. Ranks must be
/// distinct — a rank dies exactly once — which `FaultPlan::with_crash`
/// enforces with its typed `DuplicateCrash` refusal.
fn parse_crash_list(token: &str) -> Result<Vec<(u32, u32)>, String> {
    token.split(',').map(parse_crash).collect()
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
    let t: usize = args.get("tiles", 60)?;
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

/// A socket config of the given family rooted at `dir`.
fn socket_config(kind: SocketKind, dir: &std::path::Path) -> SocketConfig {
    match kind {
        SocketKind::Uds => SocketConfig::uds(dir),
        SocketKind::Tcp => SocketConfig::tcp(dir),
    }
}

/// Removes a fabric directory when dropped, so every early `return Err`
/// of a command still cleans up its sockets.
struct SockDirCleanup(Option<(std::path::PathBuf, u32)>);

impl Drop for SockDirCleanup {
    fn drop(&mut self) {
        if let Some((dir, n_ranks)) = self.0.take() {
            mp::remove_socket_dir(&dir, n_ranks);
        }
    }
}

/// The scheme flags a rank process needs to rebuild the identical
/// pattern: `--pattern FILE` verbatim, or `--scheme/--p/--seeds` with
/// the defaults made explicit.
fn replicated_scheme_flags(args: &Args, default_scheme: &str) -> Result<Vec<String>, String> {
    let file = args.get_str("pattern", "");
    if !file.is_empty() {
        return Ok(vec!["--pattern".to_string(), file]);
    }
    let p: u32 = args.require("p")?;
    let seeds: u64 = args.get("seeds", 30)?;
    Ok(vec![
        "--scheme".to_string(),
        args.get_str("scheme", default_scheme),
        "--p".to_string(),
        p.to_string(),
        "--seeds".to_string(),
        seeds.to_string(),
    ])
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
    let default_scheme = match op {
        Operation::Lu => "g2dbc",
        _ => "gcrm",
    };
    let (kind, pat) = pattern_from_args(args, default_scheme)?;
    let p = pat.n_nodes();
    let nb: usize = args.get("tile", 500)?;
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
    let default_scheme = match op {
        Operation::Lu => "g2dbc",
        _ => "gcrm",
    };
    let (kind, pat) = pattern_from_args(args, default_scheme)?;
    let p = pat.n_nodes();
    let t: usize = args.get("t", 16)?;
    let width: usize = args.get("width", 72)?;
    if width == 0 {
        return Err("--width must be positive".to_string());
    }
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
    let op = parse_op(&args.get_str("op", "lu"))?;
    let default_scheme = match op {
        Operation::Lu => "g2dbc",
        _ => "gcrm",
    };
    let (kind, pat) = pattern_from_args(args, default_scheme)?;
    let p = pat.n_nodes();
    let t: usize = args.get("t", 8)?;
    let nb: usize = args.get("nb", 64)?;
    let threads: usize = args.get("threads", 4)?;
    let seed: u64 = args.get("seed", 42)?;
    if threads == 0 {
        return Err("--threads must be positive".to_string());
    }
    let assignment = TileAssignment::extended(&pat, t);
    let tl = build_graph(op, &assignment, &KernelCostModel::uniform(nb, 30.0));
    let a0 = match op {
        Operation::Lu => TiledMatrix::random_diag_dominant(t, nb, seed),
        Operation::Cholesky => {
            let mut m = TiledMatrix::random_spd(t, nb, seed);
            m.symmetrize_from_lower();
            m
        }
        Operation::Syrk => TiledMatrix::random_uniform(t, nb, seed),
        Operation::Gemm => return Err("execute does not support --op gemm".to_string()),
    };
    let (result, rep, trace) = execute_traced(&tl, a0.clone(), threads);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} with {} on {p} nodes, {t}x{t} tiles of {nb}, {threads} worker threads:",
        op.name(),
        kind.name()
    );
    if let Some(e) = &rep.error {
        let _ = writeln!(out, "  kernel error    {e}");
    } else {
        let residual = match op {
            Operation::Lu => flexdist_factor::residual::lu_residual(&a0, &result),
            Operation::Cholesky => flexdist_factor::residual::cholesky_residual(&a0, &result),
            Operation::Syrk => flexdist_factor::residual::syrk_residual(&a0, &result),
            Operation::Gemm => unreachable!("rejected above"),
        };
        let _ = writeln!(out, "  residual        {residual:.3e}");
    }
    let _ = writeln!(out, "  tasks           {}", rep.tasks);
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
        write_trace(&trace_out, &trace.to_json(&tl))?;
        let _ = writeln!(out, "  trace           wrote {trace_out}");
    }
    Ok(out)
}

/// `flexdist dexec --op lu|chol --p N [--t T] [--nb NB] [--scheme S]
/// [--seed S] [--backend channel|uds|tcp] [--trace-out FILE]
/// [--recover --crash RANK@EPOCH[,RANK@EPOCH...] [--watchdog MS]]`
///
/// Runs the factorization in distributed mode: one message-passing rank
/// per node of the assignment, each holding only its owned tiles, with
/// every remote operand shipped as a serialized tile message. On top of
/// the numerics, the command enforces the wire-level conformance
/// contract: the measured message counts must equal the exact
/// communication-volume counters of `flexdist-dist`, the factorized
/// matrix must be bitwise identical to the shared-memory executor's, and
/// a second distributed run must reproduce both bit-for-bit.
///
/// With `--backend uds|tcp` the run is additionally repeated with one
/// **OS process per rank** over the socket fabric (see [`crate::mp`]):
/// the parent collects every rank's outcome over the stdout control
/// channel, merges them, and requires the multi-process result to be
/// bitwise identical to the in-process run with the identical traffic
/// counters.
///
/// With `--recover --crash RANK@EPOCH[,RANK@EPOCH...]` the run is
/// repeated once more with each listed rank scheduled to die at the
/// start of its iteration and recovery armed: survivors compose the
/// P→P−1 re-map once per casualty in (epoch, rank) order, splice the
/// post-crash schedules in, and the recovered result must stay bitwise
/// identical to the crash-free run with goodput equal to the
/// *composed spliced* closed-form volume. Under a socket backend the
/// recovered run also repeats multi-process, where every crashed rank
/// is a real child process that exits.
///
/// # Errors
/// Propagates flag and admissibility errors, protocol errors from the
/// fabric, conformance violations, and trace write failures.
pub fn dexec(args: &Args) -> Result<String, String> {
    let op = parse_op(&args.get_str("op", "lu"))?;
    let default_scheme = match op {
        Operation::Lu => "g2dbc",
        _ => "gcrm",
    };
    let backend = backend_from_args(args)?;
    let (kind, pat) = pattern_from_args(args, default_scheme)?;
    let p = pat.n_nodes();
    let t: usize = args.get("t", 8)?;
    let nb: usize = args.get("nb", 16)?;
    let seed: u64 = args.get("seed", 42)?;
    let assignment = TileAssignment::extended(&pat, t);
    let tl = build_graph(op, &assignment, &KernelCostModel::uniform(nb, 30.0));
    let (a0, expected) = match op {
        Operation::Lu => (
            TiledMatrix::random_diag_dominant(t, nb, seed),
            lu_comm_volume(&assignment),
        ),
        Operation::Cholesky => {
            let mut m = TiledMatrix::random_spd(t, nb, seed);
            m.symmetrize_from_lower();
            (m, cholesky_comm_volume(&assignment))
        }
        _ => return Err("dexec supports --op lu or chol only".to_string()),
    };

    let traced = DexecOptions {
        trace: true,
        ..DexecOptions::default()
    };
    let run =
        execute_distributed_with(&tl, &assignment, &a0, &traced).map_err(|e| e.to_string())?;
    let rep = &run.report;

    // Conformance: measured wire traffic == exact counters, per class.
    if rep.wire != expected {
        return Err(format!(
            "wire conformance violation: measured panel {} trailing {}, \
             exact counters say panel {} trailing {}",
            rep.wire.panel, rep.wire.trailing, expected.panel, expected.trailing
        ));
    }
    // Bitwise identity against the shared-memory executor.
    let (shared, shared_rep) = flexdist_factor::execute(&tl, a0.clone(), 2);
    if rep.error != shared_rep.error {
        return Err(format!(
            "kernel status diverged: distributed {:?}, shared-memory {:?}",
            rep.error, shared_rep.error
        ));
    }
    if rep.error.is_none() && run.matrix.diff_norm(&shared) != 0.0 {
        return Err("distributed result differs bitwise from shared-memory executor".to_string());
    }
    // Determinism: a second distributed run reproduces everything.
    let again = execute_distributed_with(&tl, &assignment, &a0, &DexecOptions::default())
        .map_err(|e| e.to_string())?;
    if run.matrix.diff_norm(&again.matrix) != 0.0
        || rep.wire != again.report.wire
        || rep.bytes != again.report.bytes
    {
        return Err("distributed run is not deterministic across repeats".to_string());
    }
    // With a socket backend: the same run again, one OS process per
    // rank, judged against the in-process result.
    let mp_line = match backend {
        None => None,
        Some(kind) => {
            let spec = mp::MpSpec {
                op: args.get_str("op", "lu"),
                scheme_flags: replicated_scheme_flags(args, default_scheme)?,
                t,
                nb,
                seed,
                kind,
                n_ranks: p,
                crashes: Vec::new(),
                noise_rate: 0.0,
                recover: false,
            };
            let (mp_matrix, mp_rep) = mp::run_ranks(&spec)?;
            if mp_rep.error != rep.error {
                return Err(format!(
                    "multi-process kernel status diverged: {:?} vs in-process {:?}",
                    mp_rep.error, rep.error
                ));
            }
            if rep.error.is_none() && mp_matrix.diff_norm(&run.matrix) != 0.0 {
                return Err(format!(
                    "multi-process ({}) result differs bitwise from in-process run",
                    kind.name()
                ));
            }
            if mp_rep.wire != expected || mp_rep.bytes != rep.bytes {
                return Err(format!(
                    "multi-process ({}) wire conformance violation: \
                     panel {} trailing {} ({} bytes), in-process {} / {} ({} bytes)",
                    kind.name(),
                    mp_rep.wire.panel,
                    mp_rep.wire.trailing,
                    mp_rep.bytes,
                    expected.panel,
                    expected.trailing,
                    rep.bytes
                ));
            }
            Some(format!(
                "  backend         {}: {p} rank processes, bitwise == in-process, \
                 goodput conformant",
                kind.name()
            ))
        }
    };

    // Crash-recovery leg: schedule the crashes, recover, and judge the
    // recovered run against the crash-free run and the composed
    // spliced volume.
    let mut recover_lines = Vec::new();
    if args.flag("recover") {
        let crash = args.get_str("crash", "");
        if crash.is_empty() {
            return Err("dexec --recover needs --crash RANK@EPOCH[,RANK@EPOCH...]".to_string());
        }
        let points = parse_crash_list(&crash)?;
        let mut fault_plan = FaultPlan::new(seed);
        for &(r, e) in &points {
            fault_plan = fault_plan.with_crash(r, e).map_err(|err| err.to_string())?;
        }
        let watchdog_ms: u64 = args.get("watchdog", 30_000)?;
        let plans = derive_recovery(&tl, &assignment, Some(&fault_plan), &FullMesh)
            .map_err(|e| e.to_string())?;
        let rp = plans
            .last()
            .ok_or_else(|| "recovery derivation returned no plan".to_string())?;
        let n_active = plans.iter().filter(|plan| plan.active).count();
        let opts = DexecOptions {
            faults: Some(fault_plan),
            recover: true,
            watchdog: std::time::Duration::from_millis(watchdog_ms),
            ..DexecOptions::default()
        };
        let rec =
            execute_distributed_with(&tl, &assignment, &a0, &opts).map_err(|e| e.to_string())?;
        let judge = |what: &str, matrix: &TiledMatrix, rep: &flexdist_factor::net::NetReport| {
            if let Some(e) = &rep.error {
                return Err(format!("{what}: kernel error {e}"));
            }
            if matrix.diff_norm(&run.matrix) != 0.0 {
                return Err(format!(
                    "{what}: recovered result differs bitwise from the crash-free run"
                ));
            }
            if rep.wire != rp.expected {
                return Err(format!(
                    "{what}: recovered goodput violates the spliced volume — measured panel {} \
                     trailing {}, spliced counters say panel {} trailing {}",
                    rep.wire.panel, rep.wire.trailing, rp.expected.panel, rp.expected.trailing
                ));
            }
            if rep.recovered_msgs != rp.recovered.total() {
                return Err(format!(
                    "{what}: recovered-send accounting diverged — counted {}, spliced stream \
                     says {}",
                    rep.recovered_msgs,
                    rp.recovered.total()
                ));
            }
            Ok(())
        };
        judge("recovered run (channel)", &rec.matrix, &rec.report)?;
        let crashes_desc: Vec<String> = points.iter().map(|(r, e)| format!("{r}@{e}")).collect();
        recover_lines.push(format!(
            "  recovery        crash(es) {} ({n_active} active re-map(s)): {} recovered \
             send(s) / {} B, goodput == composed spliced volume, bitwise == crash-free",
            crashes_desc.join(","),
            rec.report.recovered_msgs,
            rec.report.recovered_bytes
        ));
        if let Some(kind) = backend {
            let spec = mp::MpSpec {
                op: args.get_str("op", "lu"),
                scheme_flags: replicated_scheme_flags(args, default_scheme)?,
                t,
                nb,
                seed,
                kind,
                n_ranks: p,
                crashes: points.clone(),
                noise_rate: 0.0,
                recover: true,
            };
            let (mp_matrix, mp_rep) = mp::run_ranks(&spec)?;
            judge(
                &format!("recovered run ({})", kind.name()),
                &mp_matrix,
                &mp_rep,
            )?;
            recover_lines.push(format!(
                "  recovery        {}: {p} rank processes, crashed rank(s) exited, bitwise == \
                 crash-free, goodput == composed spliced volume",
                kind.name()
            ));
        }
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} with {} distributed over {p} ranks, {t}x{t} tiles of {nb}:",
        op.name(),
        kind.name()
    );
    if let Some(e) = &rep.error {
        let _ = writeln!(out, "  kernel error    {e}");
    } else {
        let residual = match op {
            Operation::Lu => flexdist_factor::residual::lu_residual(&a0, &run.matrix),
            _ => flexdist_factor::residual::cholesky_residual(&a0, &run.matrix),
        };
        let _ = writeln!(out, "  residual        {residual:.3e}");
    }
    let _ = writeln!(out, "  tasks           {}", rep.tasks);
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
    if let Some(line) = mp_line {
        let _ = writeln!(out, "{line}");
    }
    for line in recover_lines {
        let _ = writeln!(out, "{line}");
    }
    // Static protocol analysis: the proved peak-memory bound sits next
    // to each rank's measured goodput.
    let proto = flexdist_verify::check_protocol(&tl, &assignment, &[], None)
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
/// link at each rate. Every cell must (a) complete despite the faults,
/// (b) stay bitwise-identical to the shared-memory executor, (c) keep
/// the measured goodput equal to the exact comm-volume counters
/// (retransmissions are accounted separately), and (d) replay the
/// identical `NetReport` — fault counters included — when its seed is
/// rerun. Any violation fails the command.
///
/// With `--backend uds|tcp` every cell runs over the socket fabric
/// (length-delimited frames on real OS streams) instead of in-process
/// channels; the reliability layer and all four guarantees are
/// unchanged, because fault fates are a pure function of the seed and
/// the message identity, not of transport timing.
///
/// With `--recover` the command switches to the **crash-recovery
/// gate** instead: for every op × rank-count cell (default LU and
/// Cholesky over `--ps 4,5,7,12`) it sweeps crash-count × noise-rate
/// cells — two single crash points plus a two-crash cascade, each on a
/// quiet wire and under `--rate` noise — arms recovery, and requires
/// each cell to complete with factors bitwise-identical to the
/// crash-free run and goodput equal to the composed spliced
/// closed-form volume. `--backend uds|tcp`
/// runs every cell multi-process, the crashed rank being a real child
/// process that exits after its pre-crash work.
///
/// # Errors
/// Propagates flag and admissibility errors, protocol errors from the
/// fabric, and every chaos-invariant violation (named by cell).
pub fn chaos(args: &Args) -> Result<String, String> {
    if args.flag("recover") {
        return chaos_recover(args);
    }
    let op = parse_op(&args.get_str("op", "lu"))?;
    let default_scheme = match op {
        Operation::Lu => "g2dbc",
        _ => "gcrm",
    };
    let (kind, pat) = pattern_from_args(args, default_scheme)?;
    let p = pat.n_nodes();
    let t: usize = args.get("t", 6)?;
    let nb: usize = args.get("nb", 8)?;
    let n_seeds: u64 = args.get("seeds", 3)?;
    let base_seed: u64 = args.get("seed", 42)?;
    let watchdog_ms: u64 = args.get("watchdog", 10_000)?;
    let sock = match backend_from_args(args)? {
        None => None,
        Some(kind) => Some((kind, mp::fresh_socket_dir()?)),
    };
    let _cleanup = SockDirCleanup(sock.as_ref().map(|(_, dir)| (dir.clone(), p)));
    if n_seeds == 0 {
        return Err("--seeds must be positive".to_string());
    }
    let mut rates = Vec::new();
    for tok in args.get_str("rates", "0.02,0.05,0.1").split(',') {
        let r: f64 = tok
            .trim()
            .parse()
            .map_err(|_| format!("bad rate {tok:?} in --rates"))?;
        if !(0.0..=1.0).contains(&r) {
            return Err(format!("rate {r} outside [0, 1]"));
        }
        rates.push(r);
    }
    let assignment = TileAssignment::extended(&pat, t);
    let tl = build_graph(op, &assignment, &KernelCostModel::uniform(nb, 30.0));
    let (a0, expected) = match op {
        Operation::Lu => (
            TiledMatrix::random_diag_dominant(t, nb, base_seed),
            lu_comm_volume(&assignment),
        ),
        Operation::Cholesky => {
            let mut m = TiledMatrix::random_spd(t, nb, base_seed);
            m.symmetrize_from_lower();
            (m, cholesky_comm_volume(&assignment))
        }
        _ => return Err("chaos supports --op lu or chol only".to_string()),
    };
    // One shared-memory reference for every cell.
    let (shared, shared_rep) = flexdist_factor::execute(&tl, a0.clone(), 2);
    if let Some(e) = &shared_rep.error {
        return Err(format!("reference execution failed: {e}"));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos: {} with {} over {p} ranks ({} backend), {t}x{t} tiles of {nb}, \
         {n_seeds} seed(s) x {} rate(s):",
        op.name(),
        kind.name(),
        sock.as_ref().map_or("channel", |(k, _)| k.name()),
        rates.len()
    );
    // The fault sweep runs against a statically verified protocol; the
    // proved memory bound holds for every cell because faults change
    // retransmissions, never the goodput schedule.
    let proto = flexdist_verify::check_protocol(&tl, &assignment, &[], None)
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
            let seed = base_seed.wrapping_add(s);
            let cell = format!("cell rate={rate} seed={seed}");
            let opts = DexecOptions {
                faults: Some(
                    FaultPlan::new(seed)
                        .with_rates(rate, rate, rate)
                        .with_delay(rate),
                ),
                watchdog: std::time::Duration::from_millis(watchdog_ms),
                backend: match &sock {
                    Some((kind, dir)) => Backend::Socket(socket_config(*kind, dir)),
                    None => Backend::Channel,
                },
                ..DexecOptions::default()
            };
            let run = || {
                execute_distributed_with(&tl, &assignment, &a0, &opts)
                    .map_err(|e| format!("{cell}: {e}"))
            };
            let first = run()?;
            if let Some(e) = &first.report.error {
                return Err(format!("{cell}: kernel error {e}"));
            }
            if first.report.wire != expected {
                return Err(format!(
                    "{cell}: goodput conformance violation — measured panel {} trailing {}, \
                     exact counters say panel {} trailing {}",
                    first.report.wire.panel,
                    first.report.wire.trailing,
                    expected.panel,
                    expected.trailing
                ));
            }
            if first.matrix.diff_norm(&shared) != 0.0 {
                return Err(format!(
                    "{cell}: result differs bitwise from shared-memory executor"
                ));
            }
            let second = run()?;
            let (a, b) = (&first.report, &second.report);
            if a.wire != b.wire
                || a.bytes != b.bytes
                || a.faults != b.faults
                || a.per_rank != b.per_rank
                || a.links != b.links
            {
                return Err(format!(
                    "{cell}: replaying the seed did not reproduce the NetReport \
                     (faults first {:?}, second {:?})",
                    a.faults, b.faults
                ));
            }
            let f = a.faults;
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
/// The crash-recovery acceptance gate (see [`chaos`]): a crash-count ×
/// noise-rate cell matrix. Every cell crashes the owner of the final
/// diagonal tile — a rank with work at every iteration, so the
/// recovery is always an active re-map — at an early and a middle
/// epoch; the cascade cells additionally kill the first casualty's
/// heir mid-run (second-generation resurrection). Each crash list runs
/// on a quiet wire and again under `--rate` drop/duplicate/corrupt/
/// delay noise, and must complete bitwise-identical to the crash-free
/// run with goodput equal to the composed spliced volume and the
/// recovered-send counters equal to the spliced stream's flagged share
/// — retransmit overhead floats freely on top. `--crash` replaces the
/// generated crash lists with the given one (it used to be ignored).
fn chaos_recover(args: &Args) -> Result<String, String> {
    let ops: Vec<Operation> = if args.flag("op") {
        vec![parse_op(&args.get_str("op", "lu"))?]
    } else {
        vec![Operation::Lu, Operation::Cholesky]
    };
    let mut ps = Vec::new();
    for tok in args.get_str("ps", "4,5,7,12").split(',') {
        let p: u32 = tok
            .trim()
            .parse()
            .map_err(|_| format!("bad rank count {tok:?} in --ps"))?;
        if p < 2 {
            return Err("--ps entries must be at least 2 (recovery needs a survivor)".to_string());
        }
        ps.push(p);
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
    let user_crashes = match args.get_str("crash", "").as_str() {
        "" => None,
        list => Some(parse_crash_list(list)?),
    };

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
        let (op_tok, scheme_tok) = match op {
            Operation::Lu => ("lu", "g2dbc"),
            Operation::Cholesky => ("chol", "gcrm"),
            _ => return Err("chaos --recover supports --op lu or chol only".to_string()),
        };
        let kind = SchemeKind::parse(scheme_tok)?;
        for &p in &ps {
            let pat = kind.build(p, seeds)?;
            let assignment = TileAssignment::extended(&pat, t);
            let tl = build_graph(op, &assignment, &KernelCostModel::uniform(nb, 30.0));
            let a0 = match op {
                Operation::Lu => TiledMatrix::random_diag_dominant(t, nb, seed),
                _ => {
                    let mut m = TiledMatrix::random_spd(t, nb, seed);
                    m.symmetrize_from_lower();
                    m
                }
            };
            // One crash-free reference per (op, p): the bitwise oracle.
            let base = execute_distributed_with(&tl, &assignment, &a0, &DexecOptions::default())
                .map_err(|e| e.to_string())?;
            if let Some(e) = &base.report.error {
                return Err(format!("crash-free reference op={op_tok} p={p}: {e}"));
            }
            let base = base.matrix;
            // The final diagonal tile's owner works at every iteration;
            // the cascade cell then kills its heir mid-run too.
            let dead = assignment.owner(t - 1, t - 1);
            let mid = (t as u32) / 2;
            let mut crash_lists: Vec<Vec<(u32, u32)>> =
                vec![vec![(dead, 1)], vec![(dead, mid.max(1))]];
            if p >= 3 {
                let first = FaultPlan::new(seed)
                    .with_crash(dead, 1)
                    .map_err(|e| e.to_string())?;
                let plans = derive_recovery(&tl, &assignment, Some(&first), &FullMesh)
                    .map_err(|e| format!("op={op_tok} p={p}: {e}"))?;
                if let Some(rp) = plans.first() {
                    let heir = rp.remapped.owner(t - 1, t - 1);
                    crash_lists.push(vec![(dead, 1), (heir, mid.max(2))]);
                }
            }
            // An explicit `--crash` list replaces the generated ones.
            if let Some(list) = &user_crashes {
                crash_lists = vec![list.clone()];
            }
            // `--rate 0` collapses the noise axis to the quiet wire.
            let noise_rates: &[f64] = if rate > 0.0 { &[0.0, rate] } else { &[0.0] };
            for crashes in &crash_lists {
                for &noise in noise_rates {
                    let desc: Vec<String> =
                        crashes.iter().map(|(r, e)| format!("{r}@{e}")).collect();
                    let cell = format!(
                        "cell op={op_tok} p={p} crash={} noise={noise}",
                        desc.join(",")
                    );
                    let mut fp = FaultPlan::new(seed);
                    for &(r, e) in crashes {
                        fp = fp.with_crash(r, e).map_err(|e| format!("{cell}: {e}"))?;
                    }
                    if noise > 0.0 {
                        fp = fp.with_rates(noise, noise, noise).with_delay(noise);
                    }
                    let plans = derive_recovery(&tl, &assignment, Some(&fp), &FullMesh)
                        .map_err(|e| format!("{cell}: {e}"))?;
                    let rp = plans
                        .last()
                        .ok_or_else(|| format!("{cell}: no recovery plan"))?;
                    let (matrix, rep) = match backend {
                        None => {
                            let opts = DexecOptions {
                                faults: Some(fp),
                                recover: true,
                                watchdog: std::time::Duration::from_millis(watchdog_ms),
                                ..DexecOptions::default()
                            };
                            let rec = execute_distributed_with(&tl, &assignment, &a0, &opts)
                                .map_err(|e| format!("{cell}: {e}"))?;
                            (rec.matrix, rec.report)
                        }
                        Some(kind) => {
                            let spec = mp::MpSpec {
                                op: op_tok.to_string(),
                                scheme_flags: vec![
                                    "--scheme".to_string(),
                                    scheme_tok.to_string(),
                                    "--p".to_string(),
                                    p.to_string(),
                                    "--seeds".to_string(),
                                    seeds.to_string(),
                                ],
                                t,
                                nb,
                                seed,
                                kind,
                                n_ranks: p,
                                crashes: crashes.clone(),
                                noise_rate: noise,
                                recover: true,
                            };
                            mp::run_ranks(&spec).map_err(|e| format!("{cell}: {e}"))?
                        }
                    };
                    if let Some(e) = &rep.error {
                        return Err(format!("{cell}: kernel error {e}"));
                    }
                    if matrix.diff_norm(&base) != 0.0 {
                        return Err(format!(
                            "{cell}: recovered result differs bitwise from the crash-free run"
                        ));
                    }
                    if rep.wire != rp.expected {
                        return Err(format!(
                            "{cell}: goodput violates the spliced volume — measured panel {} \
                             trailing {}, spliced counters say panel {} trailing {}",
                            rep.wire.panel,
                            rep.wire.trailing,
                            rp.expected.panel,
                            rp.expected.trailing
                        ));
                    }
                    if rep.recovered_msgs != rp.recovered.total() {
                        return Err(format!(
                            "{cell}: recovered-send accounting diverged — counted {}, spliced \
                             stream says {}",
                            rep.recovered_msgs,
                            rp.recovered.total()
                        ));
                    }
                    let _ = writeln!(
                        out,
                        "  {:>4} {:>3} {:>7} {:>11} {:>5} | {:>9} {:>9} {:>10} | ok",
                        op_tok,
                        p,
                        scheme_tok,
                        desc.join(","),
                        format!("{noise:.2}"),
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

/// `flexdist _rank --rank R --op lu|chol --scheme S --p N --seeds K
/// --t T --nb NB --seed S --sock uds|tcp --dir DIR [--watchdog MS]
/// [--fault-seed F [--rate R]] [--crash RANK@EPOCH[,RANK@EPOCH...]
/// [--noise-rate R] [--recover]]` (hidden)
///
/// One rank process of a multi-process `dexec --backend uds|tcp` run:
/// rebuilds the identical deterministic configuration from the
/// replicated flags, executes exactly this rank over the socket fabric
/// under `--dir`, and prints one `rank-outcome` control document on
/// stdout for the parent to collect (see [`crate::mp`]).
///
/// # Errors
/// Propagates flag and admissibility errors and any [`net
/// error`](flexdist_factor::net::NetError) of the rank, which the
/// parent reads from this process's stderr.
pub fn rank_worker(args: &Args) -> Result<String, String> {
    let rank: u32 = args.require("rank")?;
    let op = parse_op(&args.get_str("op", "lu"))?;
    let default_scheme = match op {
        Operation::Lu => "g2dbc",
        _ => "gcrm",
    };
    let (_, pat) = pattern_from_args(args, default_scheme)?;
    let t: usize = args.get("t", 8)?;
    let nb: usize = args.get("nb", 16)?;
    let seed: u64 = args.get("seed", 42)?;
    let kind = SocketKind::parse(&args.get_str("sock", "uds"))
        .ok_or_else(|| "_rank: bad --sock (expected uds or tcp)".to_string())?;
    let dir = args.get_str("dir", "");
    if dir.is_empty() {
        return Err("_rank: --dir DIR is required".to_string());
    }
    let watchdog_ms: u64 = args.get("watchdog", 30_000)?;
    let crash = args.get_str("crash", "");
    let recover = args.flag("recover");
    let noise_rate: f64 = args.get("noise-rate", 0.0)?;
    if !(0.0..=1.0).contains(&noise_rate) {
        return Err(format!("noise-rate {noise_rate} outside [0, 1]"));
    }
    let faults = if !crash.is_empty() {
        // Crashes and noise compose: the same deterministic plan is
        // rebuilt by every rank process from the replicated seed.
        let mut fp = FaultPlan::new(seed);
        for (dead, cepoch) in parse_crash_list(&crash)? {
            fp = fp
                .with_crash(dead, cepoch)
                .map_err(|e| format!("_rank: {e}"))?;
        }
        if noise_rate > 0.0 {
            fp = fp
                .with_rates(noise_rate, noise_rate, noise_rate)
                .with_delay(noise_rate);
        }
        Some(fp)
    } else if args.flag("fault-seed") {
        let fault_seed: u64 = args.require("fault-seed")?;
        let rate: f64 = args.get("rate", 0.05)?;
        if !(0.0..=1.0).contains(&rate) {
            return Err(format!("rate {rate} outside [0, 1]"));
        }
        Some(
            FaultPlan::new(fault_seed)
                .with_rates(rate, rate, rate)
                .with_delay(rate),
        )
    } else if noise_rate > 0.0 {
        Some(
            FaultPlan::new(seed)
                .with_rates(noise_rate, noise_rate, noise_rate)
                .with_delay(noise_rate),
        )
    } else {
        None
    };
    let assignment = TileAssignment::extended(&pat, t);
    if rank >= assignment.n_nodes() {
        return Err(format!(
            "_rank: rank {rank} out of range for {} nodes",
            assignment.n_nodes()
        ));
    }
    let tl = build_graph(op, &assignment, &KernelCostModel::uniform(nb, 30.0));
    let a0 = match op {
        Operation::Lu => TiledMatrix::random_diag_dominant(t, nb, seed),
        Operation::Cholesky => {
            let mut m = TiledMatrix::random_spd(t, nb, seed);
            m.symmetrize_from_lower();
            m
        }
        _ => return Err("_rank supports --op lu or chol only".to_string()),
    };
    let cfg = socket_config(kind, std::path::Path::new(&dir));
    let opts = DexecOptions {
        faults,
        recover,
        watchdog: std::time::Duration::from_millis(watchdog_ms),
        ..DexecOptions::default()
    };
    let outcome = execute_rank_socket(&tl, &assignment, &a0, rank, &cfg, &opts)
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
    let mut tiles = Vec::new();
    for tok in args.get_str("tiles", "16,24,32").split(',') {
        let t: usize = tok
            .trim()
            .parse()
            .map_err(|_| format!("bad tile count {tok:?} in --tiles"))?;
        if t == 0 {
            return Err("--tiles entries must be positive".to_string());
        }
        tiles.push(t);
    }
    let nb: usize = args.get("tile", 500)?;
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
        let default_scheme = match op {
            Operation::Lu => "g2dbc",
            _ => "gcrm",
        };
        let (kind, pat) = pattern_from_args(args, default_scheme)?;
        let t: usize = args.get("t", 16)?;
        if t == 0 {
            return Err("--t must be positive".to_string());
        }
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
            let crash = args.get_str("crash", "");
            let crash_pts = if crash.is_empty() {
                Vec::new()
            } else {
                parse_crash_list(&crash)?
            };
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
