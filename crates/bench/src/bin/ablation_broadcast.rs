//! **Ablation** — the paper's Chameleon sends every tile point-to-point
//! from its producer (§II-C: "does not make use of complex collective
//! communication schemes"). How much is left on the table? Compare
//! producer-only sourcing against replica relaying (an emergent
//! binomial-tree broadcast), including the memory high-water mark the
//! replica cache costs.
//!
//! `cargo run --release -p flexdist-bench --bin ablation_broadcast [-- --n 60000]`

use flexdist_bench::{f3, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args};
use flexdist_core::{g2dbc, twodbc};
use flexdist_factor::{Operation, SimSetup};
use flexdist_runtime::SourceSelection;

fn main() {
    let args = Args::parse(&["p", "n"]);
    let p: u32 = args.get("p", 23);
    let m: usize = args.get("n", 60_000);
    let t = tiles_for(m);

    eprintln!("# Ablation: point-to-point vs replica-relay sourcing, LU, P = {p}, m = {m}");
    tsv_header(&[
        "distribution",
        "sourcing",
        "makespan_s",
        "gflops_total",
        "messages",
        "peak_mem_mib",
    ]);
    let patterns = [
        ("2DBC flat".to_string(), twodbc::two_dbc(p as usize, 1)),
        ("G-2DBC".to_string(), g2dbc::g2dbc(p)),
    ];
    for (name, pattern) in &patterns {
        for (s_name, sourcing) in [
            ("producer", SourceSelection::Holder),
            ("relay", SourceSelection::AnyReplica),
        ] {
            let mut machine = paper_machine(p);
            machine.source_selection = sourcing;
            let rep = SimSetup {
                operation: Operation::Lu,
                t,
                cost: paper_cost_model(),
                machine,
            }
            .run(pattern);
            tsv_row(&[
                name.clone(),
                s_name.to_string(),
                f3(rep.makespan),
                f3(rep.gflops()),
                rep.messages.to_string(),
                f3(rep.max_peak_memory() as f64 / (1024.0 * 1024.0)),
            ]);
        }
    }
}
