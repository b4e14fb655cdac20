//! **Ablation** — basic (statically pinned diagonal) versus extended
//! (greedy per-replica diagonal) SBC assignment: load balance and exact
//! communication volume.
//!
//! `cargo run --release -p flexdist-bench --bin ablation_diag [-- --p 28]`

use flexdist_bench::{f3, tiles_for, tsv_header, tsv_row, Args};
use flexdist_core::sbc;
use flexdist_dist::{cholesky_comm_volume, LoadReport, TileAssignment};

fn main() {
    let args = Args::parse(&["p", "n"]);
    let p: u32 = args.get("p", 28);
    let m: usize = args.get("n", 50_000);
    let t = tiles_for(m);

    let basic = sbc::sbc_basic(p).expect("P must be SBC-admissible");
    let extended = sbc::sbc_extended(p).expect("P must be SBC-admissible");

    eprintln!("# Ablation: SBC basic vs extended diagonal assignment, P = {p}, t = {t}");
    tsv_header(&[
        "variant",
        "comm_total",
        "comm_trailing",
        "load_max_over_mean",
        "load_cv",
    ]);
    for (name, pattern) in [("basic", &basic), ("extended", &extended)] {
        let assignment = TileAssignment::extended(pattern, t);
        let comm = cholesky_comm_volume(&assignment);
        let load = LoadReport::new(&assignment, flexdist_dist::load::LoadKind::Cholesky);
        tsv_row(&[
            name.to_string(),
            comm.total().to_string(),
            comm.trailing.to_string(),
            f3(load.max_over_mean()),
            f3(load.coefficient_of_variation()),
        ]);
    }
}
