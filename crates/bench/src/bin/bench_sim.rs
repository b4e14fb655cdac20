//! Regenerates the numbers behind `BENCH_sim.json`: discrete-event
//! simulator throughput in events/second on the pinned bench workloads.
//!
//! An "event" is one task completion or one message delivery — the two
//! heap-event kinds the simulator processes — so events/sec measures raw
//! DES loop throughput independent of graph shape. Run via
//! `scripts/bench_sim.sh`, which wraps the output in the JSON log.
//!
//! Usage: `bench_sim [--reps N]`

use std::time::Instant;

use flexdist_bench::{paper_cost_model, paper_machine, Args};
use flexdist_core::{g2dbc, sbc};
use flexdist_dist::TileAssignment;
use flexdist_factor::{build_graph, Operation};
use flexdist_runtime::{simulate, MachineConfig, NetworkModel, Simulator, SweepSpec, TaskGraph};

struct Workload {
    name: &'static str,
    graph: TaskGraph,
    machine: MachineConfig,
}

fn workloads() -> Vec<Workload> {
    let cost = paper_cost_model();
    let mut w = Vec::new();
    for t in [40usize, 80] {
        let assignment = TileAssignment::cyclic(&g2dbc::g2dbc(23), t);
        w.push(Workload {
            name: if t == 40 {
                "lu_g2dbc_p23_t40"
            } else {
                "lu_g2dbc_p23_t80"
            },
            graph: build_graph(Operation::Lu, &assignment, &cost).graph,
            machine: paper_machine(23),
        });
    }
    let assignment = TileAssignment::extended(&sbc::sbc_extended(28).unwrap(), 80);
    w.push(Workload {
        name: "chol_sbc_p28_t80",
        graph: build_graph(Operation::Cholesky, &assignment, &cost).graph,
        machine: paper_machine(28),
    });
    w
}

fn main() {
    let args = Args::parse(&["reps"]);
    let reps: usize = args.get("reps", 7);

    println!("{{");
    println!("  \"workloads\": [");
    let loads = workloads();
    let n = loads.len();
    for (i, w) in loads.iter().enumerate() {
        let report = simulate(&w.graph, &w.machine);
        let events = report.tasks as u64 + report.messages;

        // Fresh-construction path: what `simulate()` callers pay per run.
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(simulate(&w.graph, &w.machine));
            best = best.min(t0.elapsed().as_secs_f64());
        }

        // Sweep path: one Simulator reused across runs (what
        // `runtime::batch` does for every grid point sharing a graph).
        let mut sim = Simulator::new(&w.graph);
        let mut best_reuse = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(sim.run(&w.machine));
            best_reuse = best_reuse.min(t0.elapsed().as_secs_f64());
        }

        println!("    {{");
        println!("      \"name\": \"{}\",", w.name);
        println!("      \"tasks\": {},", report.tasks);
        println!("      \"messages\": {},", report.messages);
        println!("      \"events\": {events},");
        println!("      \"simulate_sec\": {best:.6},");
        println!("      \"events_per_sec\": {:.0},", events as f64 / best);
        println!("      \"reused_sec\": {best_reuse:.6},");
        println!(
            "      \"reused_events_per_sec\": {:.0}",
            events as f64 / best_reuse
        );
        println!("    }}{}", if i + 1 < n { "," } else { "" });
    }
    println!("  ],");

    // Contention-model overhead: the same workload under the constant
    // and the shared-bandwidth network models. The shared model
    // recomputes max-min fair rates on every flow arrival/departure, so
    // its events/sec quantifies what the fluid-flow engine costs per
    // DES event relative to the free constant path.
    let w = &loads[0];
    println!("  \"network_models\": [");
    let models = [
        ("constant", NetworkModel::Constant),
        ("shared-bandwidth", NetworkModel::SharedBandwidth),
    ];
    for (i, (name, model)) in models.iter().enumerate() {
        let mut machine = w.machine.clone();
        machine.network = model.clone();
        let report = simulate(&w.graph, &machine);
        let events = report.tasks as u64 + report.messages;
        let mut sim = Simulator::new(&w.graph);
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            std::hint::black_box(sim.run(&machine));
            best = best.min(t0.elapsed().as_secs_f64());
        }
        println!("    {{");
        println!("      \"workload\": \"{}\",", w.name);
        println!("      \"model\": \"{name}\",");
        println!("      \"events\": {events},");
        println!("      \"run_sec\": {best:.6},");
        println!("      \"events_per_sec\": {:.0}", events as f64 / best);
        println!("    }}{}", if i + 1 < models.len() { "," } else { "" });
    }
    println!("  ],");

    // Batch-engine wall time: every workload as a grid point, four times
    // over (enough points for the parallel engine to spread across
    // workers), best of `reps` runs.
    let mut spec = SweepSpec::new();
    for w in &loads {
        let g = spec.add_graph(w.name, w.graph.clone());
        let m = spec.add_machine(w.name, w.machine.clone());
        for _ in 0..4 {
            spec.pair(g, m);
        }
    }
    let mut best_sweep = f64::INFINITY;
    for _ in 0..reps {
        best_sweep = best_sweep.min(std::hint::black_box(spec.run()).wall_seconds);
    }
    println!("  \"sweep\": {{");
    println!("    \"points\": {},", spec.len());
    println!("    \"wall_sec\": {best_sweep:.6}");
    println!("  }}");
    println!("}}");
}
