//! **Figure 1** — LU performance of plain 2DBC with different pattern
//! shapes (P = 16, 20, 21, 22, 23) as the matrix size grows.
//!
//! Reproduces the paper's motivating observation: per-node efficiency rises
//! as the grid gets squarer, but since squarer grids use fewer of the 23
//! available nodes, total performance stays similar across the options.
//!
//! `cargo run --release -p flexdist-bench --bin fig1_2dbc_shapes [-- --full]`

use flexdist_bench::{
    f3, matrix_sizes, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args,
};
use flexdist_core::twodbc;
use flexdist_factor::{Operation, SimSetup};

fn main() {
    let args = Args::parse(&["full"]);
    let shapes: [(usize, usize); 5] = [(4, 4), (5, 4), (7, 3), (11, 2), (23, 1)];
    let sizes = matrix_sizes(args.flag("full"));

    eprintln!("# Figure 1: LU with 2DBC pattern shapes (P = r*c nodes each)");
    tsv_header(&[
        "m",
        "shape",
        "nodes",
        "gflops_total",
        "gflops_per_node",
        "makespan_s",
        "messages",
    ]);
    for &m in &sizes {
        let t = tiles_for(m);
        for &(r, c) in &shapes {
            let p = (r * c) as u32;
            let setup = SimSetup {
                operation: Operation::Lu,
                t,
                cost: paper_cost_model(),
                machine: paper_machine(p),
            };
            let rep = setup.run(&twodbc::two_dbc(r, c));
            tsv_row(&[
                m.to_string(),
                format!("{r}x{c}"),
                p.to_string(),
                f3(rep.gflops()),
                f3(rep.gflops_per_node()),
                f3(rep.makespan),
                rep.messages.to_string(),
            ]);
        }
    }
}
