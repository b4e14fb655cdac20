//! **Ablation** — how much does StarPU's receive-side replica cache hide
//! the communication-volume differences between distributions?
//!
//! Runs LU for `P = 23` with the 23x1 grid and G-2DBC, with the cache on
//! and off. Without caching every consumer task re-fetches its remote
//! inputs, multiplying message counts and amplifying the gap.
//!
//! `cargo run --release -p flexdist-bench --bin ablation_replica_cache`

use flexdist_bench::{f3, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args};
use flexdist_core::{g2dbc, twodbc};
use flexdist_factor::{Operation, SimSetup};

fn main() {
    let args = Args::parse(&["p", "n"]);
    let p: u32 = args.get("p", 23);
    let m: usize = args.get("n", 60_000);
    let t = tiles_for(m);

    eprintln!("# Ablation: replica cache on/off, LU, P = {p}, m = {m}");
    tsv_header(&[
        "distribution",
        "cache",
        "messages",
        "makespan_s",
        "gflops_total",
    ]);
    let patterns = [
        ("2DBC flat".to_string(), twodbc::two_dbc(p as usize, 1)),
        ("G-2DBC".to_string(), g2dbc::g2dbc(p)),
    ];
    for (name, pattern) in &patterns {
        for cache in [true, false] {
            let mut machine = paper_machine(p);
            machine.replica_cache = cache;
            let rep = SimSetup {
                operation: Operation::Lu,
                t,
                cost: paper_cost_model(),
                machine,
            }
            .run(pattern);
            tsv_row(&[
                name.clone(),
                cache.to_string(),
                rep.messages.to_string(),
                f3(rep.makespan),
                f3(rep.gflops()),
            ]);
        }
    }
}
