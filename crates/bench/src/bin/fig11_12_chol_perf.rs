//! **Figures 11 & 12** — Cholesky performance versus matrix size: GCR&M on
//! all `P` nodes against the largest usable SBC distribution.
//!
//! * `--pmax 31` (default) reproduces Fig. 11: SBC 8x8 on 28 nodes vs
//!   GCR&M on 31;
//! * `--pmax 35` reproduces Fig. 12: SBC 8x8 on 32 nodes vs GCR&M on 35.
//!
//! `cargo run --release -p flexdist-bench --bin fig11_12_chol_perf [-- --pmax 35 --full]`

use flexdist_bench::{
    f3, matrix_sizes, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args,
};
use flexdist_core::{gcrm, sbc};
use flexdist_factor::{Operation, SimSetup};

fn main() {
    let args = Args::parse(&["pmax", "seeds", "full"]);
    let p_max: u32 = args.get("pmax", 31);
    let seeds: u64 = args.get("seeds", 60);
    let sizes = matrix_sizes(args.flag("full"));

    let sbc_p = sbc::largest_admissible_at_most(p_max).expect("some SBC exists");
    let sbc_pat = sbc::sbc_extended(sbc_p).expect("admissible");
    let gcrm_res = gcrm::search(
        p_max,
        &gcrm::GcrmConfig {
            n_seeds: seeds,
            ..Default::default()
        },
    )
    .expect("GCR&M covers every P");

    eprintln!(
        "# Figures 11/12: Cholesky, P = {p_max}: SBC {}x{} ({sbc_p} nodes, T = {:.3}) vs GCR&M {}x{} (T = {:.3})",
        sbc_pat.rows(),
        sbc_pat.cols(),
        flexdist_core::cholesky_cost(&sbc_pat),
        gcrm_res.best.rows(),
        gcrm_res.best.cols(),
        gcrm_res.best_cost,
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

    for &m in &sizes {
        let t = tiles_for(m);
        for (name, nodes, pattern) in [
            (
                format!("SBC {}x{}", sbc_pat.rows(), sbc_pat.cols()),
                sbc_p,
                &sbc_pat,
            ),
            (
                format!("GCR&M {}x{}", gcrm_res.best.rows(), gcrm_res.best.cols()),
                p_max,
                &gcrm_res.best,
            ),
        ] {
            let rep = SimSetup {
                operation: Operation::Cholesky,
                t,
                cost: paper_cost_model(),
                machine: paper_machine(nodes),
            }
            .run(pattern);
            tsv_row(&[
                m.to_string(),
                name,
                nodes.to_string(),
                f3(rep.gflops()),
                f3(rep.gflops_per_node()),
                f3(rep.makespan),
                rep.messages.to_string(),
            ]);
        }
    }
}
