//! **Figure 10** — symmetric (Cholesky) communication cost of every pattern
//! family as `P` varies: best 2DBC, G-2DBC, SBC (where admissible) and
//! GCR&M, against the `√(2P)` and `√(3P/2)` reference curves.
//!
//! `cargo run --release -p flexdist-bench --bin fig10_sym_cost [-- --pmax 120 --seeds 20]`

use flexdist_bench::{f3, tsv_header, tsv_row, Args};
use flexdist_core::{cost, g2dbc, gcrm, sbc, twodbc};

fn main() {
    let args = Args::parse(&["pmax", "seeds"]);
    let p_max: u32 = args.get("pmax", 120);
    let seeds: u64 = args.get("seeds", 20);

    eprintln!("# Figure 10: symmetric cost per pattern family");
    tsv_header(&[
        "P",
        "best_2dbc_sym",
        "g2dbc_sym",
        "sbc",
        "gcrm",
        "sqrt_2p",
        "sqrt_3p_over_2",
    ]);
    for p in 2..=p_max {
        // 2DBC / G-2DBC symmetric costs: non-symmetric minus 1 (paper §V-B);
        // computed exactly on the patterns via the period-averaged metric.
        let (r, c) = twodbc::best_shape(p);
        let dbc_sym = (r + c - 1) as f64;
        let g = g2dbc::g2dbc(p);
        let g_sym = cost::symmetric_cost(&g, 4096);

        let sbc_t = sbc::analytic_cost(p).map(f3).unwrap_or_default();

        let gcrm_t = gcrm::search(
            p,
            &gcrm::GcrmConfig {
                n_seeds: seeds,
                ..Default::default()
            },
        )
        .map(|r| f3(r.best_cost))
        .unwrap_or_default();

        tsv_row(&[
            p.to_string(),
            f3(dbc_sym),
            f3(g_sym),
            sbc_t,
            gcrm_t,
            f3(cost::sbc_cost_reference(p)),
            f3(cost::gcrm_cost_reference(p)),
        ]);
    }
}
