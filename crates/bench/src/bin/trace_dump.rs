//! Dump a per-task execution trace (Paje-style spans) of a simulated
//! factorization: one TSV row per task with node, kernel, start and end —
//! the raw material for Gantt charts of the runs behind the paper's
//! figures.
//!
//! `cargo run --release -p flexdist-bench --bin trace_dump [-- --p 6 --t 12 --op chol]`

use flexdist_bench::{paper_cost_model, paper_machine, tsv_header, tsv_row, Args};
use flexdist_core::{g2dbc, gcrm};
use flexdist_dist::TileAssignment;
use flexdist_factor::{build_graph, Operation};
use flexdist_runtime::simulate_traced;

fn main() {
    let args = Args::parse(&["p", "t", "op"]);
    let p: u32 = args.get("p", 6);
    let t: usize = args.get("t", 12);
    let op_name: String = args.get("op", "lu".to_string());

    let (operation, pattern) = match op_name.as_str() {
        "lu" => (Operation::Lu, g2dbc::g2dbc(p)),
        "chol" => (
            Operation::Cholesky,
            gcrm::search(
                p,
                &gcrm::GcrmConfig {
                    n_seeds: 10,
                    ..Default::default()
                },
            )
            .expect("GCR&M covers every P")
            .best,
        ),
        other => panic!("--op must be lu or chol, got {other:?}"),
    };

    let assignment = TileAssignment::extended(&pattern, t);
    let tl = build_graph(operation, &assignment, &paper_cost_model());
    let (report, trace) = simulate_traced(&tl.graph, &paper_machine(p));

    eprintln!(
        "# {} trace: P = {p}, t = {t}, {} tasks, makespan {:.4}s, {} messages",
        operation.name(),
        report.tasks,
        report.makespan,
        report.messages
    );
    tsv_header(&["task", "kernel", "node", "start_s", "end_s"]);
    for span in &trace {
        tsv_row(&[
            span.task.to_string(),
            format!("{:?}", tl.ops[span.task as usize]),
            span.node.to_string(),
            format!("{:.6}", span.start),
            format!("{:.6}", span.end),
        ]);
    }
}
