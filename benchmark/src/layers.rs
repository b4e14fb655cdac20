//! The traced mode: each layer's public calls timed on their own, at
//! the workload's sizes (`micro`), then rounds of the factor paths with
//! one traced shared-memory and one traced rank-executor run each. The
//! harness's spans go to `<out>/<workload>.trace.json`.

use crate::micro;
use crate::report::{Budget, Metric};
use crate::run::{Context, Path};
use crate::stats::{median, Samples};
use crate::workload::Problem;
use flexdist_factor::{ExecEventKind, ExecTrace, TaskList};
use flexdist_json::{object, Value};
use flexdist_net::{MsgKind, NetTrace};

/// The metrics of a traced run as they accumulate, with the timed
/// samples their medians are taken from.
#[derive(Default)]
pub struct Out {
    pub metrics: Vec<Metric>,
    samples: Samples,
}

impl Out {
    /// One timed sample of `name` (a metric or a private intermediate).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push(name, value);
    }

    /// Median of the samples recorded under `name`.
    pub fn median(&self, name: &str) -> f64 {
        self.samples.median(name)
    }

    /// Report the median of the samples recorded under the metric's name.
    pub fn timed(&mut self, name: &'static str, unit: &'static str) {
        self.metrics.push(Metric::timed(name, unit, &self.samples));
    }

    /// Report a count, a deterministic figure or a derived number.
    pub fn exact(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::exact(name, unit, value));
    }
}

/// Run the per-layer mode and return its metrics.
///
/// # Errors
/// Reports a layer that could not be measured at all.
pub fn run(
    ctx: &mut Context,
    budget: Budget,
    out_dir: &std::path::Path,
) -> Result<Vec<Metric>, String> {
    let start = ctx.rec.now();
    let mut out = Out::default();
    let problem = micro::planning(ctx, &mut out);
    micro::kernels(ctx, &mut out);
    micro::verify(ctx, &problem, &mut out);
    micro::runtime(ctx, &problem, &mut out);
    micro::net(ctx, &mut out)?;
    micro::scheduler_rates(ctx, &problem, &mut out)?;
    for _ in 0..ctx.pace.layer_reps {
        let dt = ctx.derive_recovery(&problem);
        out.sample("factor.derive_recovery_s", dt);
    }
    out.timed("factor.derive_recovery_s", "s");

    let net_trace = factor_rounds(ctx, &problem, budget, start, &mut out)?;
    micro::json(ctx, &net_trace, &mut out)?;

    let w = ctx.w;
    let doc = object(vec![
        ("workload", Value::from(w.name)),
        ("seed", Value::from(ctx.seed)),
        ("harness", ctx.rec.to_json(w.name)),
    ]);
    let path = out_dir.join(format!("{}.trace.json", w.name));
    std::fs::write(&path, doc.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(out.metrics)
}

/// Rounds of: the plain single-thread baseline, the two untraced walls
/// the ratios stand on, the recovered run, and the traced pair, until
/// the budget that began at `start` is used up. Returns the last traced
/// rank run's trace.
fn factor_rounds(
    ctx: &mut Context,
    problem: &Problem,
    budget: Budget,
    start: f64,
    out: &mut Out,
) -> Result<NetTrace, String> {
    let (w, workers) = (ctx.w, ctx.workers);
    // The first call is the baseline, so it is also the reference every
    // later result must equal bit for bit.
    let warm = ctx.rec.begin("warmup_round");
    ctx.shm(problem, 1, false, "factor.shm_1w");
    ctx.shm(problem, workers, false, "factor.shm");
    ctx.dexec(problem, Path::Channel, false);
    ctx.rec.end(warm);

    let mut net_trace = None;
    let mut crash_free = None;
    let mut recovered_msgs = None;
    let mut busy = Busy::default();
    let (mut rounds, mut longest) = (0, 0.0f64);
    while budget.another_round(rounds, ctx.rec.now() - start, longest) {
        let open = ctx.rec.begin("round");
        let baseline = ctx.shm(problem, 1, false, "factor.shm_1w");
        out.sample("factor.shm_1w_wall_s", baseline.wall);
        let shm = ctx.shm(problem, workers, false, "factor.shm");
        out.sample("shm_wall_s", shm.wall);
        out.sample("factor.shm_idle_s", shm.report.total_idle().as_secs_f64());
        out.sample("factor.shm_steals", shm.report.tasks_stolen() as f64);
        if let Some(run) = ctx.dexec(problem, Path::Channel, false) {
            out.sample("dexec_channel_wall_s", run.wall);
            let per_rank = &run.out.report.per_rank;
            let max = per_rank.iter().map(|r| r.tasks).max().unwrap_or(0) as f64;
            let mean = per_rank.iter().map(|r| r.tasks).sum::<u64>() as f64 / per_rank.len() as f64;
            crash_free = Some((run.out.report.wire.total(), max / mean));
        }
        if let Some(run) = ctx.dexec(problem, Path::Recover, false) {
            out.sample("dexec_recover_wall_s", run.wall);
            recovered_msgs = Some(run.out.report.recovered_msgs);
        }
        let traced = ctx.shm(problem, workers, true, "factor.shm_traced");
        out.sample("shm_traced_wall_s", traced.wall);
        if let Some(trace) = &traced.trace {
            busy = Busy::of(trace, &problem.tl);
            let share = busy.total() / (workers as f64 * traced.wall);
            out.sample("trace.shm_busy_share", share);
        }
        if let Some(run) = ctx.dexec(problem, Path::Channel, true) {
            out.sample("dexec_traced_wall_s", run.wall);
            if let Some(trace) = run.out.trace {
                let span_sum: f64 = trace.spans.iter().map(|sp| sp.end - sp.start).sum();
                let lanes = (w.p as usize).min(workers) as f64;
                out.sample("trace.dexec_busy_share", span_sum / (lanes * run.wall));
                let latency: Vec<f64> = trace
                    .messages
                    .iter()
                    .filter(|msg| msg.kind == MsgKind::Goodput)
                    .map(|msg| (msg.dep - msg.at) * 1e6)
                    .collect();
                if !latency.is_empty() {
                    out.sample("trace.dexec_msg_latency_us_p50", median(&latency));
                }
                net_trace = Some(trace);
            }
        }
        longest = longest.max(ctx.rec.end(open));
        rounds += 1;
    }

    for name in [
        "dexec_channel_wall_s",
        "dexec_recover_wall_s",
        "dexec_traced_wall_s",
        "trace.shm_busy_share",
        "trace.dexec_busy_share",
        "trace.dexec_msg_latency_us_p50",
    ] {
        if out.samples.count(name) == 0 {
            return Err(format!("{name}: every run failed"));
        }
    }
    let (wire_msgs, imbalance) = crash_free.ok_or("no crash-free run completed")?;
    let recovered_msgs = recovered_msgs.ok_or("no recovered run completed")?;
    let shm_wall = out.median("shm_wall_s");
    let channel_wall = out.median("dexec_channel_wall_s");
    let tasks = problem.tl.graph.n_tasks() as f64;
    out.timed("factor.shm_1w_wall_s", "s");
    let speedup = out.median("factor.shm_1w_wall_s") / shm_wall;
    out.exact("factor.shm_speedup", "ratio", speedup);
    out.exact("factor.shm_gflops", "GF/s", w.flops() / shm_wall / 1e9);
    out.exact(
        "factor.dexec_channel_gflops",
        "GF/s",
        w.flops() / channel_wall / 1e9,
    );
    out.exact("factor.shm_tasks_per_s", "1/s", tasks / shm_wall);
    out.timed("factor.shm_idle_s", "s");
    out.timed("factor.shm_steals", "count");
    out.exact("factor.dexec_tasks_per_s", "1/s", tasks / channel_wall);
    out.exact("factor.dexec_rank_task_imbalance", "ratio", imbalance);
    out.exact(
        "factor.dexec_vs_shm_ratio",
        "ratio",
        channel_wall / shm_wall,
    );
    out.exact("net.wire_msgs", "count", wire_msgs as f64);
    out.exact("net.recovered_msgs", "count", recovered_msgs as f64);

    out.exact("trace.shm_busy_update_s", "s", busy.update);
    out.exact("trace.shm_busy_trsm_s", "s", busy.trsm);
    out.exact("trace.shm_busy_panel_s", "s", busy.panel);
    out.timed("trace.shm_busy_share", "ratio");
    out.timed("trace.dexec_busy_share", "ratio");
    out.timed("trace.dexec_msg_latency_us_p50", "us");
    let shm_overhead = (out.median("shm_traced_wall_s") - shm_wall) / shm_wall * 100.0;
    out.exact("trace.shm_overhead_pct", "%", shm_overhead);
    let dexec_overhead = (out.median("dexec_traced_wall_s") - channel_wall) / channel_wall * 100.0;
    out.exact("trace.dexec_overhead_pct", "%", dexec_overhead);
    net_trace.ok_or_else(|| "no traced rank run completed".to_string())
}

/// Seconds of kernel time in a traced shared-memory run, by class.
#[derive(Debug, Clone, Copy, Default)]
struct Busy {
    /// GEMM and SYRK: the trailing update.
    update: f64,
    trsm: f64,
    /// GETRF or POTRF.
    panel: f64,
}

impl Busy {
    fn of(trace: &ExecTrace, tl: &TaskList) -> Self {
        let mut started = vec![0.0f64; trace.n_tasks];
        let mut busy = Self::default();
        for e in &trace.events {
            let at = e.at.as_secs_f64();
            match e.kind {
                ExecEventKind::Start => started[e.task as usize] = at,
                ExecEventKind::End => {
                    let span = at - started[e.task as usize];
                    match tl.graph.label_of(e.task) {
                        "trsm" => busy.trsm += span,
                        "getrf" | "potrf" => busy.panel += span,
                        _ => busy.update += span,
                    }
                }
                ExecEventKind::Steal { .. } => {}
            }
        }
        busy
    }

    fn total(&self) -> f64 {
        self.update + self.trsm + self.panel
    }
}
