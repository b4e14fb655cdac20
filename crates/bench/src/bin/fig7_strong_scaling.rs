//! **Figure 7** — strong scaling at fixed matrix size `N = 200,000`:
//! (a) LU with 2DBC vs G-2DBC, (b) Cholesky with SBC vs GCR&M, as the node
//! budget `P` sweeps over the paper's range.
//!
//! For each `P`, the classical strategy uses the best exploitable subset of
//! nodes (most square 2DBC / largest admissible SBC), while the paper's
//! schemes use all `P`.
//!
//! The grid runs through the batch engine (`runtime::batch`): every case is
//! registered on a `SweepBuilder` first, duplicate graphs (several `P`
//! falling back to the same 2DBC/SBC shape) are built once, and the points
//! simulate in parallel on reusable simulators.
//!
//! `cargo run --release -p flexdist-bench --bin fig7_strong_scaling -- --op lu [--full]`

use flexdist_bench::{f3, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args};
use flexdist_core::{g2dbc, gcrm, sbc, twodbc, Pattern};
use flexdist_factor::{Operation, SweepBuilder};

/// Grid row metadata, parallel to the sweep's point order.
struct Row {
    p: u32,
    distribution: String,
    nodes_used: u32,
}

fn main() {
    let args = Args::parse(&["op", "full", "n", "seeds"]);
    let op_name: String = args.get("op", "lu".to_string());
    let full = args.flag("full");
    let n = args.get("n", if full { 200_000 } else { 80_000 });
    let seeds: u64 = args.get("seeds", 40);
    let t = tiles_for(n);

    let ps: Vec<u32> = vec![16, 20, 21, 22, 23, 25, 28, 30, 31, 32, 35, 36, 39];

    let operation = match op_name.as_str() {
        "lu" => Operation::Lu,
        "chol" => Operation::Cholesky,
        other => panic!("--op must be lu or chol, got {other:?}"),
    };
    let mut builder = SweepBuilder::new(operation, paper_cost_model());
    let mut rows: Vec<Row> = Vec::new();
    let mut case =
        |builder: &mut SweepBuilder, p: u32, label: String, nodes: u32, pat: &Pattern| {
            builder.case(&label, pat, t, &format!("p{nodes}"), &paper_machine(nodes));
            rows.push(Row {
                p,
                distribution: label,
                nodes_used: nodes,
            });
        };

    match operation {
        Operation::Lu => {
            eprintln!("# Figure 7a: LU strong scaling, N = {n} (t = {t})");
            for &p in &ps {
                // Classical: best 2DBC possibly dropping nodes.
                let (q, r, c) = twodbc::best_2dbc_at_most(p);
                case(
                    &mut builder,
                    p,
                    format!("2DBC {r}x{c}"),
                    q,
                    &twodbc::two_dbc(r, c),
                );
                // G-2DBC on all P nodes.
                let g = g2dbc::g2dbc(p);
                case(
                    &mut builder,
                    p,
                    format!("G-2DBC {}x{}", g.rows(), g.cols()),
                    p,
                    &g,
                );
            }
        }
        _ => {
            eprintln!("# Figure 7b: Cholesky strong scaling, N = {n} (t = {t})");
            for &p in &ps {
                let q = sbc::largest_admissible_at_most(p).expect("P >= 1");
                let pat = sbc::sbc_extended(q).expect("admissible");
                case(
                    &mut builder,
                    p,
                    format!("SBC {}x{}", pat.rows(), pat.cols()),
                    q,
                    &pat,
                );
                let res = gcrm::search(
                    p,
                    &gcrm::GcrmConfig {
                        n_seeds: seeds,
                        ..Default::default()
                    },
                )
                .expect("GCR&M covers every P");
                case(
                    &mut builder,
                    p,
                    format!("GCR&M {}x{}", res.best.rows(), res.best.cols()),
                    p,
                    &res.best,
                );
            }
        }
    }

    let graphs = builder.graphs_built();
    let results = builder.finish().run();
    eprintln!(
        "# {} points over {graphs} distinct graphs in {:.3} s",
        results.points.len(),
        results.wall_seconds
    );
    tsv_header(&[
        "P",
        "distribution",
        "nodes_used",
        "gflops_total",
        "makespan_s",
    ]);
    for (row, point) in rows.iter().zip(&results.points) {
        tsv_row(&[
            row.p.to_string(),
            row.distribution.clone(),
            row.nodes_used.to_string(),
            f3(point.report.gflops()),
            f3(point.report.makespan),
        ]);
    }
}
