//! Each layer's public calls timed on their own, at the workload's
//! sizes and on one thread unless stated: what the per-layer metrics
//! of the traced mode are made of.

use crate::layers::Out;
use crate::run::Context;
use crate::workload::{Problem, Workload, CORE_GFLOPS, SETUP_PARTS};
use flexdist_core::{cholesky_cost, lu_cost, Pattern};
use flexdist_dist::comm::{cholesky_comm_estimate, lu_comm_estimate};
use flexdist_dist::TileAssignment;
use flexdist_factor::{
    build_graph, execute_distributed_with, execute_with, simulate, DexecOptions, ExecOptions,
    Operation,
};
use flexdist_kernels::{
    gemm_nn, gemm_nt, getrf_nopiv, potrf, syrk_ln, trsm_left_lower_unit, trsm_right_lower_trans,
    trsm_right_upper, Kernel, KernelCostModel, Tile,
};
use flexdist_net::codec::checksum_of;
use flexdist_net::{
    build_fabric_with, build_socket_fabric, cleanup_socket_dir, decode, encode, Endpoint, FullMesh,
    MsgClass, NetTrace, SocketConfig, TileMsg,
};
use flexdist_runtime::{MachineConfig, NetworkModel, Simulator};
use flexdist_verify::protocol::{check_schedule, ProtocolSchedule};
use std::sync::Arc;

/// Tiles per side of the two-rank fabric the transport figures are
/// taken on: half of the 64 × 64 tiles belong to each rank, and each
/// owned tile crosses the wire at most once.
const FABRIC_TILES: usize = 64;

/// Bytes one streaming measurement moves (bounded by the owned tiles).
const STREAM_BYTES: usize = 32 << 20;

/// Round trips of one latency measurement.
const RTT_TRIPS: usize = 200;

/// The parts of set-up (`core`, `dist`, the planning half of `factor`,
/// `kernels.matgen`) and the closed-form volume. Returns the problem
/// every later measurement runs on.
pub fn planning(ctx: &mut Context, out: &mut Out) -> Problem {
    let w = ctx.w;
    let mut last = None;
    for _ in 0..ctx.pace.layer_reps {
        let (problem, st) = ctx.setup();
        for (name, seconds) in SETUP_PARTS.into_iter().zip(st.parts) {
            out.sample(name, seconds);
        }
        last = Some(problem);
    }
    let problem = last.expect("at least one repetition");
    let volume = problem.closed_form_volume();
    for _ in 0..ctx.pace.layer_reps {
        let (_, dt) = ctx
            .rec
            .time_batch("dist.comm_volume", ctx.pace.batch_s, || {
                problem.closed_form_volume()
            });
        out.sample("dist.comm_volume_s", dt);
    }
    let (cost, estimate) = match w.op {
        Operation::Lu => (
            lu_cost(&problem.pattern),
            lu_comm_estimate(&problem.pattern, w.t),
        ),
        _ => (
            cholesky_cost(&problem.pattern),
            cholesky_comm_estimate(&problem.pattern, w.t),
        ),
    };
    out.timed("core.pattern_build_s", "s");
    out.exact("core.pattern_cost", "nodes", cost);
    out.timed("dist.assignment_build_s", "s");
    out.timed("dist.comm_volume_s", "s");
    out.exact("dist.comm_volume_tiles", "count", volume.total() as f64);
    // Eq. 1/2 against the exact trailing volume, as `wire_volume` prints it.
    let rel_err = (estimate - volume.trailing as f64).abs() / estimate.max(1.0);
    out.exact("dist.eq_estimate_rel_err", "ratio", rel_err);
    out.timed("kernels.matgen_s", "s");
    out.timed("factor.build_graph_s", "s");
    out.timed("factor.derive_schedule_s", "s");
    problem
}

/// Single-thread kernel rates on `nb × nb` tiles. Every call starts
/// from the same operands (copied back in, a cost of `nb²` against the
/// kernel's `nb³`), so no value drifts towards overflow or denormals.
pub fn kernels(ctx: &mut Context, out: &mut Out) {
    let (op, nb, seed) = (ctx.w.op, ctx.w.nb, ctx.seed);
    let (rec, micro_s) = (&mut ctx.rec, ctx.pace.micro_s);
    let r = Tile::random(nb, seed);
    let b = Tile::random(nb, seed ^ 1);
    let diag = nb as f64;
    // Strictly diagonally dominant, and its symmetric part: safe to
    // factor without pivoting and positive definite.
    let dd = Tile::from_fn(nb, |i, j| r.get(i, j) + if i == j { diag } else { 0.0 });
    let spd = Tile::from_fn(nb, |i, j| {
        (r.get(i, j) + r.get(j, i)) / 2.0 + if i == j { diag } else { 0.0 }
    });
    let mut lu = dd.clone();
    getrf_nopiv(lu.as_mut_slice(), nb).expect("diagonally dominant tile factors");
    let mut chol = spd.clone();
    potrf(chol.as_mut_slice(), nb).expect("SPD tile factors");

    let mut work = Tile::zeros(nb);
    let mut rate =
        |name: &'static str, kernel: Kernel, from: &Tile, call: &mut dyn FnMut(&mut [f64])| {
            let (_, per_call) = rec.time_batch(name, micro_s, || {
                work.as_mut_slice().copy_from_slice(from.as_slice());
                call(work.as_mut_slice());
            });
            out.exact(name, "GF/s", kernel.flops(nb) / per_call / 1e9);
        };
    let (ra, rb) = (r.as_slice(), b.as_slice());
    rate("kernels.gemm_nn_gflops", Kernel::Gemm, &b, &mut |c| {
        gemm_nn(-1.0, ra, rb, 1.0, c, nb);
    });
    rate("kernels.gemm_nt_gflops", Kernel::Gemm, &b, &mut |c| {
        gemm_nt(-1.0, ra, rb, 1.0, c, nb);
    });
    // The triangular solves the workload's operation issues.
    let mut flip = false;
    let (lu_s, chol_s) = (lu.as_slice(), chol.as_slice());
    rate("kernels.trsm_gflops", Kernel::Trsm, &b, &mut |x| match op {
        Operation::Lu => {
            flip = !flip;
            if flip {
                trsm_right_upper(lu_s, x, nb);
            } else {
                trsm_left_lower_unit(lu_s, x, nb);
            }
        }
        _ => trsm_right_lower_trans(chol_s, x, nb),
    });
    rate("kernels.syrk_gflops", Kernel::Syrk, &spd, &mut |c| {
        syrk_ln(-1.0, ra, 1.0, c, nb);
    });
    rate("kernels.potrf_gflops", Kernel::Potrf, &spd, &mut |a| {
        potrf(a, nb).expect("SPD tile factors");
    });
    rate("kernels.getrf_gflops", Kernel::Getrf, &dd, &mut |a| {
        getrf_nopiv(a, nb).expect("diagonally dominant tile factors");
    });
}

/// `ProtocolSchedule::derive` and `check_schedule` apart, and what the
/// report proves.
pub fn verify(ctx: &mut Context, p: &Problem, out: &mut Out) {
    let mut report = None;
    for _ in 0..ctx.pace.layer_reps {
        let (schedule, dt) = ctx
            .rec
            .time_batch("verify.protocol_derive", ctx.pace.batch_s, || {
                ProtocolSchedule::derive(&p.tl, &p.assignment)
            });
        out.sample("verify.protocol_derive_s", dt);
        match schedule {
            Ok(schedule) => {
                let (r, dt) = ctx
                    .rec
                    .time_batch("verify.check_schedule", ctx.pace.batch_s, || {
                        check_schedule(&schedule, None)
                    });
                out.sample("verify.check_schedule_s", dt);
                report = Some(r);
            }
            Err(e) => ctx.ops.record("verify.protocol_derive", Err(e)),
        }
    }
    let Some(report) = report else { return };
    let verdict = if report.is_clean() {
        Ok(())
    } else {
        Err(report.to_text())
    };
    ctx.ops.record("verify.check_schedule", verdict);
    out.timed("verify.protocol_derive_s", "s");
    out.timed("verify.check_schedule_s", "s");
    out.exact("verify.deliveries", "count", report.n_deliveries as f64);
    out.exact(
        "verify.min_capacity",
        "count",
        f64::from(report.min_capacity.unwrap_or(0)),
    );
    let peak = report
        .peaks
        .iter()
        .map(|q| q.owned + q.peak_replicas)
        .max()
        .unwrap_or(0);
    out.exact("verify.peak_tiles_max", "count", peak as f64);
}

/// The simulator three ways: fresh, one `Simulator` reused, and under
/// the shared-bandwidth network model.
pub fn runtime(ctx: &mut Context, p: &Problem, out: &mut Out) {
    let machine = MachineConfig::paper_testbed(ctx.w.p);
    let shared = MachineConfig {
        network: NetworkModel::SharedBandwidth,
        ..machine.clone()
    };
    let mut reused = Simulator::new(&p.tl.graph);
    let mut report = None;
    for _ in 0..ctx.pace.layer_reps {
        let (r, dt) = ctx
            .rec
            .time_batch("runtime.simulate", ctx.pace.batch_s, || {
                simulate(&p.tl, &machine)
            });
        out.sample("fresh", dt);
        let (_, dt) = ctx
            .rec
            .time_batch("runtime.simulate_reused", ctx.pace.batch_s, || {
                reused.run(&machine)
            });
        out.sample("reused", dt);
        let (_, dt) = ctx
            .rec
            .time_batch("runtime.simulate_shared", ctx.pace.batch_s, || {
                reused.run(&shared)
            });
        out.sample("shared", dt);
        report = Some(r);
    }
    let report = report.expect("at least one repetition");
    let events = report.tasks as f64 + report.messages as f64;
    out.exact("runtime.graph_tasks", "count", report.tasks as f64);
    out.exact("runtime.sim_events", "count", events);
    for (name, samples) in [
        ("runtime.sim_events_per_s", "fresh"),
        ("runtime.sim_reused_events_per_s", "reused"),
        ("runtime.sim_shared_events_per_s", "shared"),
    ] {
        let rate = events / out.median(samples);
        out.exact(name, "1/s", rate);
    }
    out.exact("runtime.sim_makespan_s", "s", report.makespan);
    out.exact("runtime.sim_gflops", "GF/s", report.gflops());
}

/// Codec and checksum rates on one frame of the workload's tile size,
/// then latency, streaming rate and bring-up time of each transport.
pub fn net(ctx: &mut Context, out: &mut Out) -> Result<(), String> {
    let nb = ctx.w.nb;
    let msg = TileMsg {
        class: MsgClass::Panel,
        src: 0,
        i: 0,
        j: 0,
        epoch: 0,
        tile: Tile::random(nb, ctx.seed),
    };
    let frame = encode(&msg).map_err(|e| e.to_string())?;
    let gb = frame.len() as f64 / 1e9;
    let (_, dt) = ctx
        .rec
        .time_batch("net.encode", ctx.pace.micro_s, || encode(&msg));
    out.exact("net.encode_gbps", "GB/s", gb / dt);
    let (_, dt) = ctx
        .rec
        .time_batch("net.decode", ctx.pace.micro_s, || decode(&frame));
    out.exact("net.decode_gbps", "GB/s", gb / dt);
    let (_, dt) = ctx
        .rec
        .time_batch("net.checksum", ctx.pace.micro_s, || checksum_of(&frame));
    out.exact("net.checksum_gbps", "GB/s", gb / dt);

    // Latency and streaming rate of a two-rank fabric, then bring-up
    // time of the workload's P-rank fabric, per backend.
    let dir = ctx.sock_dir().to_path_buf();
    let (uds, tcp) = (SocketConfig::uds(&dir), SocketConfig::tcp(&dir));
    for (cfg, span, rtt_name, stream_name) in [
        (
            None,
            "net.channel",
            "net.channel_rtt_us",
            "net.channel_stream_gbps",
        ),
        (
            Some(&uds),
            "net.uds",
            "net.uds_rtt_us",
            "net.uds_stream_gbps",
        ),
        (
            Some(&tcp),
            "net.tcp",
            "net.tcp_rtt_us",
            "net.tcp_stream_gbps",
        ),
    ] {
        let (measured, _) = ctx
            .rec
            .time(span, || two_rank_figures(cfg, &msg.tile, frame.len()));
        cleanup_socket_dir(&dir, 2);
        let (rtt_us, stream_gbps) = measured.map_err(|e| format!("{span}: {e}"))?;
        out.exact(rtt_name, "us", rtt_us);
        out.exact(stream_name, "GB/s", stream_gbps);
    }
    for (cfg, span, name) in [
        (&uds, "net.uds_fabric_setup", "net.uds_fabric_setup_s"),
        (&tcp, "net.tcp_fabric_setup", "net.tcp_fabric_setup_s"),
    ] {
        for _ in 0..ctx.pace.layer_reps {
            let (fabric, dt) = ctx
                .rec
                .time(span, || build_socket_fabric(ctx.w.p, &FullMesh, cfg));
            cleanup_socket_dir(&dir, ctx.w.p);
            fabric.map_err(|e| format!("{span}: {e}"))?;
            out.sample(name, dt);
        }
        out.timed(name, "s");
    }
    Ok(())
}

/// Round-trip latency (µs) and one-way streaming rate (GB/s) between
/// the two ranks of a fresh fabric, through `Endpoint::send_tile` and
/// `Endpoint::recv`, every owned tile sent at most once.
fn two_rank_figures(
    cfg: Option<&SocketConfig>,
    tile: &Tile,
    frame_len: usize,
) -> Result<(f64, f64), String> {
    let pattern = Pattern::from_rows(2, &[vec![Some(0), Some(1)], vec![Some(1), Some(0)]]);
    let assignment = Arc::new(TileAssignment::cyclic(&pattern, FABRIC_TILES));
    let mut endpoints: Vec<Endpoint> = match cfg {
        None => build_fabric_with(&assignment, &FullMesh, None),
        Some(cfg) => build_socket_fabric(2, &FullMesh, cfg)
            .map_err(|e| e.to_string())?
            .into_iter()
            .enumerate()
            .map(|(rank, tr)| {
                Endpoint::from_transport(
                    rank as u32,
                    Arc::clone(&assignment),
                    &FullMesh,
                    Box::new(tr),
                    None,
                )
            })
            .collect(),
    };
    let mut one = endpoints.pop().ok_or("fabric has no rank 1")?;
    let mut zero = endpoints.pop().ok_or("fabric has no rank 0")?;
    let owned = |rank: u32| -> Vec<(u32, u32)> {
        (0..FABRIC_TILES as u32)
            .flat_map(|i| (0..FABRIC_TILES as u32).map(move |j| (i, j)))
            .filter(|&(i, j)| assignment.owner(i as usize, j as usize) == rank)
            .collect()
    };
    let (tiles_zero, tiles_one) = (owned(0), owned(1));
    let n_stream =
        (STREAM_BYTES / frame_len).clamp(64, FABRIC_TILES * FABRIC_TILES / 2 - RTT_TRIPS);
    let send = |ep: &mut Endpoint, to: u32, (i, j): (u32, u32)| {
        ep.send_tile(to, MsgClass::Trailing, i, j, i.min(j), tile)
            .map(|_| ())
            .map_err(|e| e.to_string())
    };

    std::thread::scope(|scope| {
        // Rank 1 echoes one of its own tiles per ping, then drains the
        // stream and reports how long the stream took to arrive.
        let peer = scope.spawn(move || -> Result<f64, String> {
            let mut mine = tiles_one.into_iter();
            for _ in 0..RTT_TRIPS {
                one.recv().map_err(|e| e.to_string())?;
                send(&mut one, 0, mine.next().ok_or("rank 1 ran out of tiles")?)?;
            }
            one.recv().map_err(|e| e.to_string())?;
            let t0 = std::time::Instant::now();
            for _ in 1..n_stream {
                one.recv().map_err(|e| e.to_string())?;
            }
            let took = t0.elapsed().as_secs_f64();
            one.finish_and_drain().map_err(|e| e.to_string())?;
            Ok(took)
        });
        let mut mine = tiles_zero.into_iter();
        let t0 = std::time::Instant::now();
        for _ in 0..RTT_TRIPS {
            send(&mut zero, 1, mine.next().ok_or("rank 0 ran out of tiles")?)?;
            zero.recv().map_err(|e| e.to_string())?;
        }
        let rtt_us = t0.elapsed().as_secs_f64() / RTT_TRIPS as f64 * 1e6;
        for _ in 0..n_stream {
            send(&mut zero, 1, mine.next().ok_or("rank 0 ran out of tiles")?)?;
        }
        zero.finish_and_drain().map_err(|e| e.to_string())?;
        let took = peer.join().map_err(|_| "rank 1 panicked".to_string())??;
        // Timed from the first streamed frame's arrival to the last.
        Ok((
            rtt_us,
            (n_stream - 1) as f64 * frame_len as f64 / took / 1e9,
        ))
    })
}

/// Scheduler-only rates: the same graph with one-element tiles, so the
/// kernels cost nothing and the work-stealing deque or the rank
/// progress loop is all that runs. Each call includes cloning the t²
/// one-element input tiles.
pub fn scheduler_rates(ctx: &mut Context, p: &Problem, out: &mut Out) -> Result<(), String> {
    let tiny = Workload { nb: 1, ..ctx.w };
    let tl = build_graph(
        tiny.op,
        &p.assignment,
        &KernelCostModel::uniform(1, CORE_GFLOPS),
    );
    let a0 = tiny.matrix(ctx.seed);
    let workers = ctx.workers;
    let tasks = tl.graph.n_tasks() as f64;
    for _ in 0..ctx.pace.layer_reps {
        let ((_, report, _), dt) = ctx
            .rec
            .time_batch("factor.sched_shm", ctx.pace.batch_s, || {
                execute_with(&tl, a0.clone(), ExecOptions::new(workers))
            });
        if let Some(e) = report.error {
            return Err(format!("factor.sched_shm: {e}"));
        }
        out.sample("sched_shm", dt);
        let (ran, dt) = ctx
            .rec
            .time_batch("factor.sched_rank", ctx.pace.batch_s, || {
                execute_distributed_with(&tl, &p.assignment, &a0, &DexecOptions::default())
            });
        ran.map_err(|e| format!("factor.sched_rank: {e}"))?;
        out.sample("sched_rank", dt);
    }
    let (shm_rate, rank_rate) = (
        tasks / out.median("sched_shm"),
        tasks / out.median("sched_rank"),
    );
    out.exact("factor.sched_shm_tasks_per_s", "1/s", shm_rate);
    out.exact("factor.sched_rank_tasks_per_s", "1/s", rank_rate);
    Ok(())
}

/// Emit and parse rates of the JSON layer on the traced run's net-trace
/// document, the input of `replay` and `verify --trace`.
pub fn json(ctx: &mut Context, trace: &NetTrace, out: &mut Out) -> Result<(), String> {
    let (rec, batch_s) = (&mut ctx.rec, ctx.pace.batch_s);
    let doc = trace.to_json();
    let (text, emit_s) = rec.time_batch("json.emit", batch_s, || doc.to_pretty());
    let mb = text.len() as f64 / 1e6;
    let (parsed, parse_s) = rec.time_batch("json.parse", batch_s, || flexdist_json::parse(&text));
    let parsed = parsed.map_err(|e| format!("json.parse: {e}"))?;
    if parsed != doc {
        return Err("json: the net-trace document does not survive a round trip".to_string());
    }
    out.exact("json.trace_emit_mbps", "MB/s", mb / emit_s);
    out.exact("json.trace_parse_mbps", "MB/s", mb / parse_s);
    Ok(())
}
