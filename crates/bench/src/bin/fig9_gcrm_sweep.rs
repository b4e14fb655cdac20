//! **Figure 9** — effect of the pattern size and the random tie-breaking
//! choices on GCR&M quality, for `P = 23`: one cost sample per
//! `(size, seed)` pair, the scatter the paper plots.
//!
//! `cargo run --release -p flexdist-bench --bin fig9_gcrm_sweep [-- --p 23 --seeds 100]`

use flexdist_bench::{f3, tsv_header, tsv_row, Args};
use flexdist_core::{cost, gcrm};

fn main() {
    let args = Args::parse(&["p", "seeds"]);
    let p: u32 = args.get("p", 23);
    let seeds: u64 = args.get("seeds", 100);

    let config = gcrm::GcrmConfig {
        n_seeds: seeds,
        ..Default::default()
    };
    let res = gcrm::search(p, &config).expect("GCR&M covers every P");

    eprintln!(
        "# Figure 9: GCR&M cost scatter for P = {p} ({} samples); refs: sqrt(2P) = {:.3}, sqrt(3P/2) = {:.3}",
        res.records.len(),
        cost::sbc_cost_reference(p),
        cost::gcrm_cost_reference(p),
    );
    tsv_header(&["size", "trial", "cost"]);
    for rec in &res.records {
        tsv_row(&[rec.size.to_string(), rec.trial.to_string(), f3(rec.cost)]);
    }

    // Per-size minima (the lower envelope of the scatter).
    eprintln!("\n# per-size best:");
    let mut sizes: Vec<usize> = res.records.iter().map(|r| r.size).collect();
    sizes.sort_unstable();
    sizes.dedup();
    for s in sizes {
        let best = res
            .records
            .iter()
            .filter(|r| r.size == s)
            .map(|r| r.cost)
            .fold(f64::INFINITY, f64::min);
        eprintln!("#   r = {s:>3}: min cost {best:.3}");
    }
    eprintln!(
        "# overall best: r = {}, T = {:.3}",
        res.best.rows(),
        res.best_cost
    );
}
