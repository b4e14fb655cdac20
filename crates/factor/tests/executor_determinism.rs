//! The work-stealing executor must be a pure function of the task graph:
//! whatever the worker count and however the steals interleave, the DAG
//! serializes every tile write, so the floating-point evaluation order —
//! and therefore the factorization bit pattern — is fixed.

use flexdist_core::{g2dbc, twodbc};
use flexdist_dist::TileAssignment;
use flexdist_factor::{build_graph, execute_traced, Operation, Problem};
use flexdist_kernels::{KernelCostModel, TiledMatrix};

#[test]
fn residual_bitwise_identical_across_worker_counts() {
    let lu = (Operation::Lu, g2dbc::g2dbc(7), 8, 12, 2024);
    let cholesky = (Operation::Cholesky, twodbc::two_dbc(2, 2), 6, 10, 77);
    for (op, pattern, t, nb, seed) in [lu, cholesky] {
        let problem = Problem::new(op, &pattern, t, nb, seed).expect("a valid problem");
        let mut residuals = Vec::new();
        for workers in [1usize, 2, 8] {
            let cell = format!("{} on {workers} workers", op.name());
            let (factored, rep, trace) =
                execute_traced(&problem.tl, problem.input.clone(), workers);
            assert!(rep.error.is_none(), "{cell}: {:?}", rep.error);
            assert_eq!(rep.workers.len(), workers);
            trace
                .validate(&problem.tl)
                .unwrap_or_else(|e| panic!("{cell}: malformed trace: {e}"));
            residuals.push(op.residual(&problem.input, &factored).expect("a residual"));
        }
        // Bitwise equality, not approximate: the same additions happened
        // in the same order on every run.
        let bits: Vec<u64> = residuals.iter().map(|r| r.to_bits()).collect();
        assert!(residuals[0] < 1e-11, "{}: {}", op.name(), residuals[0]);
        assert_eq!([bits[0]; 2], [bits[1], bits[2]], "{} drifted", op.name());
    }
}

#[test]
fn trace_log_accounts_for_every_task_and_steal() {
    let (t, nb) = (7, 8);
    let a0 = TiledMatrix::random_diag_dominant(t, nb, 5);
    let assign = TileAssignment::cyclic(&g2dbc::g2dbc(5), t);
    let tl = build_graph(Operation::Lu, &assign, &KernelCostModel::uniform(nb, 10.0));
    let (_, rep, trace) = execute_traced(&tl, a0, 4);
    trace.validate(&tl).expect("well-formed trace");
    // One start + one end per task, one event per successful steal, and
    // the per-worker executed counters add back up to the task total.
    assert_eq!(trace.n_tasks, rep.tasks);
    assert_eq!(
        trace.events.len(),
        2 * rep.tasks + rep.tasks_stolen() as usize
    );
    let executed: u64 = rep.workers.iter().map(|w| w.executed).sum();
    assert_eq!(executed as usize, rep.tasks);
}
