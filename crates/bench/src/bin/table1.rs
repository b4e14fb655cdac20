//! **Table I** — dimensions and communication cost of the patterns used in
//! the experimental evaluation: (a) 2DBC vs G-2DBC for LU, (b) SBC vs GCR&M
//! for Cholesky.
//!
//! `cargo run --release -p flexdist-bench --bin table1 [-- --seeds 100]`

use flexdist_bench::{f3, Args};
use flexdist_core::{cholesky_cost, g2dbc, gcrm, lu_cost, sbc, twodbc};

fn main() {
    let args = Args::parse(&["seeds"]);
    let seeds: u64 = args.get("seeds", 100);

    println!("Table Ia: LU factorization");
    println!(
        "{:>4} | {:>8} {:>8} | {:>8} {:>8}",
        "P", "2DBC", "T", "G-2DBC", "T"
    );
    for p in [16u32, 20, 21, 22, 23, 30, 31, 35, 36, 39] {
        let (r, c) = twodbc::best_shape(p);
        let params = g2dbc::G2dbcParams::new(p);
        let (gr, gc) = params.pattern_dims();
        let pat = g2dbc::g2dbc(p);
        debug_assert_eq!((pat.rows(), pat.cols()), (gr, gc));
        let show_g = params.c != 0; // the paper leaves exact-fit rows blank
        println!(
            "{:>4} | {:>8} {:>8} | {:>8} {:>8}",
            p,
            format!("{r}x{c}"),
            f3((r + c) as f64),
            if show_g {
                format!("{gr}x{gc}")
            } else {
                String::new()
            },
            if show_g {
                f3(lu_cost(&pat))
            } else {
                String::new()
            },
        );
    }

    println!("\nTable Ib: Cholesky factorization");
    println!(
        "{:>4} | {:>8} {:>8} | {:>8} {:>8}",
        "P", "SBC", "T", "GCR&M", "T"
    );
    for p in [21u32, 23, 28, 31, 32, 35, 36, 39] {
        let (sbc_dim, sbc_t) = match sbc::sbc_extended(p) {
            Ok(pat) => (
                format!("{}x{}", pat.rows(), pat.cols()),
                f3(cholesky_cost(&pat)),
            ),
            Err(_) => (String::new(), String::new()),
        };
        // The paper reports GCR&M only where no exact SBC exists.
        let (g_dim, g_t) = if sbc::admissible(p).is_none() {
            let res = gcrm::search(
                p,
                &gcrm::GcrmConfig {
                    n_seeds: seeds,
                    ..Default::default()
                },
            )
            .expect("GCR&M covers every P");
            (
                format!("{}x{}", res.best.rows(), res.best.cols()),
                f3(res.best_cost),
            )
        } else {
            (String::new(), String::new())
        };
        println!("{p:>4} | {sbc_dim:>8} {sbc_t:>8} | {g_dim:>8} {g_t:>8}");
    }
}
