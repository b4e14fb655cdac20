//! **Ablation** — GCR&M quality as a function of the random-restart budget,
//! and of the phase-1 load metric (colrow count vs covered cells).
//!
//! `cargo run --release -p flexdist-bench --bin ablation_seeds [-- --p 23]`

use flexdist_bench::{f3, tsv_header, tsv_row, Args};
use flexdist_core::gcrm;

fn main() {
    let args = Args::parse(&["p"]);
    let p: u32 = args.get("p", 23);

    eprintln!("# Ablation: GCR&M best cost vs seed budget and load metric, P = {p}");
    tsv_header(&["seeds", "load_metric", "best_cost", "best_size"]);
    for metric in [gcrm::LoadMetric::Colrows, gcrm::LoadMetric::CoveredCells] {
        for seeds in [1u64, 5, 10, 25, 50, 100] {
            let res = gcrm::search(
                p,
                &gcrm::GcrmConfig {
                    n_seeds: seeds,
                    load_metric: metric,
                    ..Default::default()
                },
            )
            .expect("GCR&M covers every P");
            tsv_row(&[
                seeds.to_string(),
                format!("{metric:?}"),
                f3(res.best_cost),
                res.best.rows().to_string(),
            ]);
        }
    }
}
