//! **Figures 5 & 6** — LU performance (total and per node) versus matrix
//! size, comparing G-2DBC on all `P` nodes against the plain-2DBC fallbacks
//! that use fewer nodes.
//!
//! * `--pmax 23` (default) reproduces Fig. 5: 2DBC 4x4 (16 nodes),
//!   7x3 (21) and 23x1 (23) vs G-2DBC (23);
//! * `--pmax 39` reproduces Fig. 6: 2DBC 6x6 (36) and 13x3 (39) vs
//!   G-2DBC (39).
//!
//! The (distribution × matrix size) grid runs through the batch engine:
//! one task graph per (pattern, tile count), one machine per node budget,
//! all points simulated in parallel on reusable simulators.
//!
//! `cargo run --release -p flexdist-bench --bin fig5_6_lu_perf [-- --pmax 39 --full]`

use flexdist_bench::{
    f3, matrix_sizes, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args,
};
use flexdist_core::{g2dbc, twodbc, Pattern};
use flexdist_factor::{Operation, SweepBuilder};

fn main() {
    let args = Args::parse(&["pmax", "full"]);
    let p_max: u32 = args.get("pmax", 23);
    let sizes = matrix_sizes(args.flag("full"));

    // The 2DBC fallback shapes the paper compares against for each case.
    let fallback_shapes: Vec<(usize, usize)> = match p_max {
        23 => vec![(4, 4), (7, 3), (23, 1)],
        31 => vec![(5, 5), (6, 5), (31, 1)],
        35 => vec![(5, 5), (7, 5)],
        39 => vec![(6, 6), (13, 3)],
        _ => {
            let (q, r, c) = twodbc::best_2dbc_at_most(p_max);
            let (r2, c2) = twodbc::best_shape(p_max);
            if q == p_max {
                vec![(r, c)]
            } else {
                vec![(r, c), (r2, c2)]
            }
        }
    };

    eprintln!("# Figures 5/6: LU, G-2DBC vs 2DBC fallbacks, P = {p_max}");

    let mut candidates: Vec<(String, u32, Pattern)> = fallback_shapes
        .iter()
        .map(|&(r, c)| {
            (
                format!("2DBC {r}x{c}"),
                (r * c) as u32,
                twodbc::two_dbc(r, c),
            )
        })
        .collect();
    let g = g2dbc::g2dbc(p_max);
    candidates.push((format!("G-2DBC {}x{}", g.rows(), g.cols()), p_max, g));

    let mut builder = SweepBuilder::new(Operation::Lu, paper_cost_model());
    let mut rows: Vec<(usize, String, u32)> = Vec::new();
    for &m in &sizes {
        let t = tiles_for(m);
        for (name, nodes, pattern) in &candidates {
            builder.case(
                &format!("{name}@t{t}"),
                pattern,
                t,
                &format!("p{nodes}"),
                &paper_machine(*nodes),
            );
            rows.push((m, name.clone(), *nodes));
        }
    }
    let graphs = builder.graphs_built();
    let results = builder.finish().run();
    eprintln!(
        "# {} points over {graphs} graphs in {:.3} s",
        results.points.len(),
        results.wall_seconds
    );

    tsv_header(&[
        "m",
        "distribution",
        "nodes",
        "gflops_total",
        "gflops_per_node",
        "makespan_s",
        "messages",
    ]);
    for ((m, name, nodes), point) in rows.iter().zip(&results.points) {
        let rep = &point.report;
        tsv_row(&[
            m.to_string(),
            name.clone(),
            nodes.to_string(),
            f3(rep.gflops()),
            f3(rep.gflops_per_node()),
            f3(rep.makespan),
            rep.messages.to_string(),
        ]);
    }
}
