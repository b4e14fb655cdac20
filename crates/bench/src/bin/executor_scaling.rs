//! Strong-scaling of the real work-stealing executor.
//!
//! Factorizes the same seeded tile matrix at increasing worker counts and
//! reports wall-clock time, speedup over one worker, steal counts and idle
//! time — the executor-level analogue of the paper's strong-scaling
//! figures. Defaults to a 64×64-tile LU (the acceptance workload); shrink
//! with `--t`/`--nb` for quick runs.
//!
//! `cargo run --release -p flexdist-bench --bin executor_scaling \
//!     [-- --t 64 --nb 32 --p 16 --workers 1,2,4,8]`

use flexdist_bench::{tsv_header, tsv_row, Args};
use flexdist_core::g2dbc;
use flexdist_factor::residual::lu_residual;
use flexdist_factor::{execute_traced, Operation, Problem};
use std::time::Instant;

fn main() {
    let args = Args::parse(&["t", "nb", "p", "seed", "workers"]);
    let t: usize = args.get("t", 64);
    let nb: usize = args.get("nb", 32);
    let p: u32 = args.get("p", 16);
    let seed: u64 = args.get("seed", 1);
    let workers_spec: String = args.get("workers", "1,2,4,8".to_string());
    let worker_counts: Vec<usize> = workers_spec
        .split(',')
        .map(|w| w.trim().parse().expect("--workers takes a comma list"))
        .collect();

    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(p), t, nb, seed)
        .unwrap_or_else(|e| panic!("--t {t} --nb {nb} --p {p}: {e}"));
    let (tl, a0) = (&problem.tl, &problem.input);
    eprintln!(
        "# LU on {t}x{t} tiles of {nb} ({} tasks), G-2DBC P = {p}",
        tl.graph.n_tasks()
    );

    tsv_header(&[
        "workers",
        "seconds",
        "speedup",
        "tasks_stolen",
        "peak_queue",
        "idle_s",
        "residual",
    ]);
    let mut base = None;
    for &w in &worker_counts {
        let start = Instant::now();
        let (factored, rep, trace) = execute_traced(tl, a0.clone(), w);
        let secs = start.elapsed().as_secs_f64();
        assert!(rep.error.is_none(), "{:?}", rep.error);
        trace.validate(tl).expect("well-formed trace");
        let baseline = *base.get_or_insert(secs);
        tsv_row(&[
            w.to_string(),
            format!("{secs:.3}"),
            format!("{:.2}", baseline / secs),
            rep.tasks_stolen().to_string(),
            rep.max_queue_depth().to_string(),
            format!("{:.3}", rep.total_idle().as_secs_f64()),
            format!("{:.3e}", lu_residual(a0, &factored)),
        ]);
    }
}
