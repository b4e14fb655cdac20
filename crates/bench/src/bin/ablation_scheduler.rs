//! **Ablation** — how much do the Chameleon-style panel-first priorities
//! matter? LU with G-2DBC under the three ready-queue policies of the
//! simulator: Priority (default), FIFO (submission order) and LIFO.
//!
//! `cargo run --release -p flexdist-bench --bin ablation_scheduler [-- --p 23 --n 60000]`

use flexdist_bench::{f3, paper_cost_model, paper_machine, tiles_for, tsv_header, tsv_row, Args};
use flexdist_core::g2dbc;
use flexdist_factor::{Operation, SimSetup};
use flexdist_runtime::SchedulerPolicy;

fn main() {
    let args = Args::parse(&["p", "n"]);
    let p: u32 = args.get("p", 23);
    let m: usize = args.get("n", 60_000);
    let t = tiles_for(m);
    let pattern = g2dbc::g2dbc(p);

    eprintln!("# Ablation: scheduler policy, LU with G-2DBC, P = {p}, m = {m}");
    tsv_header(&["policy", "makespan_s", "gflops_total", "utilization"]);
    for (name, policy) in [
        ("priority", SchedulerPolicy::Priority),
        ("fifo", SchedulerPolicy::Fifo),
        ("lifo", SchedulerPolicy::Lifo),
    ] {
        let mut machine = paper_machine(p);
        machine.scheduler = policy;
        let rep = SimSetup {
            operation: Operation::Lu,
            t,
            cost: paper_cost_model(),
            machine,
        }
        .run(&pattern);
        tsv_row(&[
            name.to_string(),
            f3(rep.makespan),
            f3(rep.gflops()),
            f3(rep.utilization()),
        ]);
    }
}
