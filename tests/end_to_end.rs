//! Cross-crate integration tests: pattern → tile assignment → task graph →
//! simulation and real execution, for every distribution scheme.

use flexdist::core::{cost, g2dbc, gcrm, sbc, twodbc, Pattern};
use flexdist::dist::{cholesky_comm_volume, lu_comm_volume, TileAssignment};
use flexdist::factor::{build_graph, execute, execute_pair, Operation, Problem, SimSetup};
use flexdist::kernels::{KernelCostModel, TiledMatrix};
use flexdist::runtime::MachineConfig;

fn machine(nodes: u32) -> MachineConfig {
    let mut m = MachineConfig::test_machine(nodes, 4);
    m.latency = 2e-6;
    m.bandwidth = 2e9;
    m
}

fn sim(op: Operation, t: usize, nodes: u32, pattern: &Pattern) -> flexdist::runtime::SimReport {
    SimSetup {
        operation: op,
        t,
        cost: KernelCostModel::uniform(64, 5.0),
        machine: machine(nodes),
    }
    .run(pattern)
}

/// Real execution of `op` under every listed scheme, residual checked.
fn check_pipeline(op: Operation, (t, nb, seed): (usize, usize, u64), schemes: &[(&str, Pattern)]) {
    for (name, pattern) in schemes {
        let problem = Problem::new(op, pattern, t, nb, seed).expect("a valid problem");
        let (factored, rep) = execute(&problem.tl, problem.input.clone(), 4);
        assert!(rep.error.is_none(), "{name}: {:?}", rep.error);
        let res = op.residual(&problem.input, &factored).expect("a residual");
        assert!(res < 1e-11, "{name}: residual {res}");
    }
}

#[test]
fn lu_pipeline_on_every_scheme_is_numerically_correct() {
    let schemes = [
        ("2dbc", twodbc::two_dbc(2, 3)),
        ("g2dbc-prime", g2dbc::g2dbc(7)),
        ("g2dbc-c0", g2dbc::g2dbc(12)),
        ("flat", twodbc::two_dbc(5, 1)),
    ];
    check_pipeline(Operation::Lu, (6, 8, 2024), &schemes);
}

#[test]
fn cholesky_pipeline_on_every_symmetric_scheme() {
    let gcrm_pat = gcrm::run_once(11, 11, 4, gcrm::LoadMetric::Colrows).unwrap();
    let schemes = [
        ("2dbc-square", twodbc::two_dbc(3, 3)),
        ("sbc-triangular", sbc::sbc_extended(21).unwrap()),
        ("sbc-halfsquare", sbc::sbc_extended(8).unwrap()),
        ("sbc-basic", sbc::sbc_basic(10).unwrap()),
        ("gcrm", gcrm_pat),
    ];
    check_pipeline(Operation::Cholesky, (8, 6, 77), &schemes);
}

#[test]
fn syrk_and_gemm_accumulate_into_a_separate_output() {
    // The kernel arms only these two operations reach: SYRK's diagonal
    // and off-diagonal accumulations into `C`, GEMM's second input `B`.
    let schemes = [
        ("2dbc-square", twodbc::two_dbc(2, 2)),
        ("sbc-basic", sbc::sbc_basic(10).unwrap()),
    ];
    check_pipeline(Operation::Syrk, (5, 6, 13), &schemes);

    let (t, nb) = (5, 6);
    let assignment = TileAssignment::cyclic(&g2dbc::g2dbc(7), t);
    let tl = build_graph(
        Operation::Gemm,
        &assignment,
        &KernelCostModel::uniform(nb, 5.0),
    );
    let a = TiledMatrix::random_uniform(t, nb, 1);
    let b = TiledMatrix::random_uniform(t, nb, 2);
    let (c, rep) = execute_pair(&tl, a.clone(), b.clone(), 4);
    assert!(rep.error.is_none(), "{:?}", rep.error);
    let product = a.multiply(&b);
    let rel = c.diff_norm(&product) / product.frobenius_norm();
    assert!(rel < 1e-13, "GEMM relative error {rel}");
}

#[test]
fn simulated_makespan_ordering_follows_cost_metric_for_lu() {
    // With communication expensive enough, the cost metric T must predict
    // the simulated ranking: G-2DBC < best 2DBC fewer nodes < flat grid.
    let t = 23;
    let flat = sim(Operation::Lu, t, 23, &twodbc::two_dbc(23, 1));
    let g = sim(Operation::Lu, t, 23, &g2dbc::g2dbc(23));
    assert!(
        g.makespan < flat.makespan,
        "G-2DBC {} !< flat {}",
        g.makespan,
        flat.makespan
    );
    // Message counts follow the exact comm volumes.
    let a_flat = TileAssignment::cyclic(&twodbc::two_dbc(23, 1), t);
    let a_g = TileAssignment::cyclic(&g2dbc::g2dbc(23), t);
    assert!(lu_comm_volume(&a_g).total() < lu_comm_volume(&a_flat).total());
}

#[test]
fn simulator_message_count_matches_exact_comm_volume_for_lu() {
    // With the replica cache on, the simulator sends each tile version to
    // each consuming node at most once — exactly what the analytical counter
    // counts (plus nothing else, for LU's dataflow).
    let t = 12;
    for pattern in [twodbc::two_dbc(2, 3), g2dbc::g2dbc(7)] {
        let assignment = TileAssignment::cyclic(&pattern, t);
        let analytic = lu_comm_volume(&assignment).total();
        let rep = SimSetup {
            operation: Operation::Lu,
            t,
            cost: KernelCostModel::uniform(32, 5.0),
            machine: machine(pattern.n_nodes()),
        }
        .run_assignment(&assignment);
        assert_eq!(
            rep.messages, analytic,
            "simulated messages vs analytical volume"
        );
    }
}

#[test]
fn simulator_message_count_matches_exact_comm_volume_for_gemm() {
    // GEMM inputs are read-only, so the replica cache sends each input
    // tile at most once per consuming node — exactly the analytic count.
    let t = 10;
    let pattern = twodbc::two_dbc(2, 3);
    let assignment = TileAssignment::cyclic(&pattern, t);
    let analytic = flexdist::dist::gemm_comm_volume(&assignment).total();
    let rep = SimSetup {
        operation: Operation::Gemm,
        t,
        cost: KernelCostModel::uniform(32, 5.0),
        machine: machine(6),
    }
    .run_assignment(&assignment);
    assert_eq!(rep.messages, analytic);
}

#[test]
fn simulator_message_count_matches_exact_comm_volume_for_cholesky() {
    let t = 14;
    let pattern = sbc::sbc_extended(10).unwrap();
    let assignment = TileAssignment::extended(&pattern, t);
    let analytic = cholesky_comm_volume(&assignment).total();
    let rep = SimSetup {
        operation: Operation::Cholesky,
        t,
        cost: KernelCostModel::uniform(32, 5.0),
        machine: machine(10),
    }
    .run_assignment(&assignment);
    assert_eq!(rep.messages, analytic);
}

#[test]
fn strong_scaling_makespan_decreases() {
    // LU at fixed size: 4 -> 16 nodes must speed things up.
    let t = 32;
    let r4 = sim(Operation::Lu, t, 4, &twodbc::two_dbc(2, 2));
    let r16 = sim(Operation::Lu, t, 16, &twodbc::two_dbc(4, 4));
    assert!(
        r16.makespan < r4.makespan,
        "16 nodes {} !< 4 nodes {}",
        r16.makespan,
        r4.makespan
    );
}

#[test]
fn gcrm_beats_or_matches_sbc_in_simulation() {
    // Paper Fig. 11: GCR&M on all P nodes reaches higher total throughput
    // than SBC restricted to fewer nodes. The effect needs enough work per
    // node (the paper observes it from mid-size matrices upward), hence the
    // larger tile count here.
    let t = 60;
    let p = 31u32;
    let sbc_p = sbc::largest_admissible_at_most(p).unwrap(); // 28
    let sbc_pat = sbc::sbc_extended(sbc_p).unwrap();
    let gcrm_pat = gcrm::search(
        p,
        &gcrm::GcrmConfig {
            n_seeds: 10,
            ..Default::default()
        },
    )
    .unwrap()
    .best;
    let r_sbc = sim(Operation::Cholesky, t, p, &sbc_pat);
    let r_gcrm = sim(Operation::Cholesky, t, p, &gcrm_pat);
    assert!(
        r_gcrm.makespan < r_sbc.makespan * 1.15,
        "GCR&M {} vs SBC {}",
        r_gcrm.makespan,
        r_sbc.makespan
    );
}

#[test]
fn cost_metric_consistency_across_crates() {
    // The symmetric cost computed on the pattern equals (z̄) what the tile
    // assignment realizes at scale, for square patterns.
    for pattern in [sbc::sbc_extended(21).unwrap(), twodbc::two_dbc(3, 3)] {
        let sym = cost::symmetric_cost(&pattern, usize::MAX);
        let t = pattern.rows() * 12;
        let assignment = TileAssignment::extended(&pattern, t);
        let exact = cholesky_comm_volume(&assignment).trailing as f64;
        let estimate = (t * (t + 1) / 2) as f64 * (sym - 1.0);
        let rel = (exact - estimate).abs() / estimate;
        assert!(rel < 0.15, "rel err {rel}");
    }
}
