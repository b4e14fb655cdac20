//! **Ablation** — pattern size versus communication efficiency (the paper's
//! open question in §VI: "how large a pattern needs to be to obtain good
//! communication efficiency").
//!
//! For each eligible GCR&M size `r`, reports the best cost over the seed
//! budget and the simulated Cholesky makespan of that pattern.
//!
//! `cargo run --release -p flexdist-bench --bin ablation_pattern_size [-- --p 23]`

use flexdist_bench::{f3, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args};
use flexdist_core::{cholesky_cost, gcrm};
use flexdist_factor::{Operation, SimSetup};

fn main() {
    let args = Args::parse(&["p", "seeds", "n"]);
    let p: u32 = args.get("p", 23);
    let seeds: u64 = args.get("seeds", 40);
    let m: usize = args.get("n", 50_000);
    let t = tiles_for(m);

    eprintln!("# Ablation: GCR&M pattern size vs cost & simulated Cholesky time, P = {p}");
    tsv_header(&["size", "best_cost", "makespan_s", "messages"]);
    for r in gcrm::eligible_sizes(p, 6.0) {
        // Best-of-seeds at this size only.
        let mut best: Option<flexdist_core::Pattern> = None;
        for trial in 0..seeds {
            let seed = trial
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(r as u64);
            let Ok(pat) = gcrm::run_once(p, r, seed, gcrm::LoadMetric::Colrows) else {
                continue;
            };
            if pat.validate().is_err() || pat.imbalance() > 1 {
                continue;
            }
            let better = best
                .as_ref()
                .is_none_or(|b| cholesky_cost(&pat) < cholesky_cost(b));
            if better {
                best = Some(pat);
            }
        }
        let Some(pat) = best else {
            continue;
        };
        let rep = SimSetup {
            operation: Operation::Cholesky,
            t,
            cost: paper_cost_model(),
            machine: paper_machine(p),
        }
        .run(&pat);
        tsv_row(&[
            r.to_string(),
            f3(cholesky_cost(&pat)),
            f3(rep.makespan),
            rep.messages.to_string(),
        ]);
    }
}
