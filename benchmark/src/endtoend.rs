//! The untraced mode: rounds of plan → verify → simulate → factor five
//! ways, every stage timed from outside, medians over the rounds.

use crate::report::{Budget, Metric};
use crate::run::{peak_rss_mb, Context, Path};
use crate::stats::Samples;
use flexdist_factor::simulate;
use flexdist_runtime::MachineConfig;
use flexdist_verify::protocol::{check_schedule, ProtocolSchedule};

/// One round: every stage a user pays for, once (cheap stages and
/// short factorizations in batches). Returns the crash-free wire bytes
/// it measured.
fn round(ctx: &mut Context, samples: &mut Samples) -> u64 {
    let (problem, setup) = ctx.setup();
    samples.push("setup_s", setup.total);
    let volume = problem.closed_form_volume().total();

    let batch_s = ctx.pace.batch_s;
    let (report, verify_s) = ctx.rec.time_batch("verify", batch_s, || {
        ProtocolSchedule::derive(&problem.tl, &problem.assignment)
            .map(|schedule| check_schedule(&schedule, None))
    });
    samples.push("verify_s", verify_s);
    let verdict = report.and_then(|r| {
        if !r.is_clean() {
            Err(format!(
                "{} protocol finding(s): {}",
                r.findings.len(),
                r.to_text()
            ))
        } else if r.n_deliveries != volume {
            Err(format!(
                "{} deliveries proved, closed form says {volume}",
                r.n_deliveries
            ))
        } else {
            Ok(())
        }
    });
    ctx.ops.record("verify", verdict);

    let machine = MachineConfig::paper_testbed(ctx.w.p);
    let (sim, simulate_s) = ctx
        .rec
        .time_batch("simulate", batch_s, || simulate(&problem.tl, &machine));
    samples.push("simulate_s", simulate_s);
    let verdict = if sim.messages == volume && sim.tasks == problem.tl.graph.n_tasks() {
        Ok(())
    } else {
        Err(format!(
            "simulated {} messages, closed form says {volume}",
            sim.messages
        ))
    };
    ctx.ops.record("simulate", verdict);

    let (workers, factor_s) = (ctx.workers, ctx.pace.factor_s);
    let wall = per_call(factor_s, || {
        Some(ctx.shm(&problem, workers, false, "factor.shm").wall)
    });
    samples.push("shm_wall_s", wall.expect("the shared-memory run returns"));

    let mut wire_bytes = 0;
    for (path, name) in [
        (Path::Channel, "dexec_channel_wall_s"),
        (Path::Uds, "dexec_uds_wall_s"),
        (Path::Tcp, "dexec_tcp_wall_s"),
        (Path::Recover, "dexec_recover_wall_s"),
    ] {
        let wall = per_call(factor_s, || {
            let run = ctx.dexec(&problem, path, false)?;
            if path == Path::Channel {
                wire_bytes = run.out.report.bytes;
            }
            Some(run.wall)
        });
        if let Some(wall) = wall {
            samples.push(name, wall);
        }
    }
    wire_bytes
}

/// Repeat a factorization until `min_seconds` of it have been timed (at
/// least once) and return the mean wall per call; `None` as soon as a
/// call fails. Every call is judged and counted as an operation.
fn per_call(min_seconds: f64, mut run: impl FnMut() -> Option<f64>) -> Option<f64> {
    let (mut sum, mut calls) = (0.0, 0u32);
    loop {
        sum += run()?;
        calls += 1;
        if sum >= min_seconds {
            return Some(sum / f64::from(calls));
        }
    }
}

/// Run the end-to-end mode and return its ten metrics.
///
/// # Errors
/// Reports a metric that could not be measured at all (every run of a
/// path failed, or `/proc` is unreadable).
pub fn run(ctx: &mut Context, budget: Budget) -> Result<Vec<Metric>, String> {
    // Untimed warm-up round: first-touch page faults and lazy set-up
    // happen here, and the shared-memory reference is taken.
    let warm = ctx.rec.begin("warmup_round");
    round(ctx, &mut Samples::default());
    ctx.rec.end(warm);

    let mut samples = Samples::default();
    let mut wire_bytes = 0;
    let start = ctx.rec.now();
    let mut longest = 0.0f64;
    let mut rounds = 0;
    while budget.another_round(rounds, ctx.rec.now() - start, longest) {
        let open = ctx.rec.begin("round");
        wire_bytes = round(ctx, &mut samples);
        longest = longest.max(ctx.rec.end(open));
        rounds += 1;
    }

    let mut metrics = Vec::new();
    for name in [
        "setup_s",
        "verify_s",
        "simulate_s",
        "shm_wall_s",
        "dexec_channel_wall_s",
        "dexec_uds_wall_s",
        "dexec_tcp_wall_s",
        "dexec_recover_wall_s",
    ] {
        if samples.count(name) == 0 {
            return Err(format!("{name}: every run failed"));
        }
        metrics.push(Metric::timed(name, "s", &samples));
    }
    if wire_bytes == 0 {
        return Err("wire_bytes: the crash-free channel run failed".to_string());
    }
    metrics.push(Metric::exact("wire_bytes", "bytes", wire_bytes as f64));
    metrics.push(Metric::exact("peak_rss_mb", "MB", peak_rss_mb()?));
    Ok(metrics)
}
