//! **Figure 4** — communication cost `T` of G-2DBC versus the best plain
//! 2DBC shape, for every node count `P`, against the ideal `2√P` curve.
//!
//! `cargo run --release -p flexdist-bench --bin fig4_g2dbc_cost [-- --pmax 120]`

use flexdist_bench::{f3, tsv_header, tsv_row, Args};
use flexdist_core::{cost, g2dbc, twodbc};

fn main() {
    let args = Args::parse(&["pmax"]);
    let p_max: u32 = args.get("pmax", 120);

    eprintln!("# Figure 4: LU communication cost of G-2DBC vs best 2DBC");
    tsv_header(&["P", "best_2dbc", "g2dbc", "two_sqrt_p", "lemma2_bound"]);
    for p in 1..=p_max {
        let params = g2dbc::G2dbcParams::new(p);
        tsv_row(&[
            p.to_string(),
            f3(twodbc::best_2dbc_cost(p)),
            f3(params.lu_cost()),
            f3(cost::ideal_lu_cost(p)),
            f3(cost::g2dbc_cost_bound(p)),
        ]);
    }
}
