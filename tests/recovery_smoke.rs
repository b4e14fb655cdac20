//! Tier-1 cross-layer smoke of the distributed stack: the rank executor,
//! the recovery derivation and the static protocol verifier on one small
//! problem (P = 5, t = 6, nb = 8), LU and Cholesky, for crash chains of
//! length 0, 1 and 2. Crash-free is the k = 0 chain, so all three go
//! through the same three calls: `execute_distributed_with`,
//! `derive_recovery`, `check_protocol`. Every run must be bitwise
//! identical to the shared-memory `execute_with`, its goodput must equal
//! the composed closed-form volume, and its protocol report must be
//! clean. The per-crate suites hold the exhaustive matrices; this keeps
//! `cargo test -q` at the root from never running a recovered
//! factorization at all.

use flexdist::core::{g2dbc, gcrm};
use flexdist::dist::{cholesky_comm_volume, lu_comm_volume, TileAssignment};
use flexdist::factor::{
    build_graph, derive_recovery, execute_distributed_with, execute_with, DexecOptions,
    ExecOptions, Operation,
};
use flexdist::kernels::{KernelCostModel, TiledMatrix};
use flexdist::net::{FaultPlan, FullMesh};
use flexdist_verify::check_protocol;

const P: u32 = 5;
const T: usize = 6;
const NB: usize = 8;

fn fault_plan(crashes: &[(u32, u32)]) -> FaultPlan {
    crashes.iter().fold(FaultPlan::new(7), |plan, &(d, e)| {
        plan.with_crash(d, e).expect("distinct crash ranks")
    })
}

fn check_chains(op: Operation, a: &TileAssignment, a0: &TiledMatrix) {
    let tl = build_graph(op, a, &KernelCostModel::uniform(NB, 10.0));
    let (reference, shm, _) = execute_with(&tl, a0.clone(), ExecOptions::new(2));
    assert!(shm.error.is_none(), "{}: {:?}", op.name(), shm.error);
    let crash_free = match op {
        Operation::Lu => lu_comm_volume(a),
        _ => cholesky_comm_volume(a),
    };

    // The final diagonal tile's owner works at every iteration, so its
    // crash always re-maps; the second casualty is its heir.
    let dead = a.owner(T - 1, T - 1);
    let first = derive_recovery(&tl, a, Some(&fault_plan(&[(dead, 1)])), &FullMesh)
        .expect("one crash derives");
    let heir = first[0].remapped.owner(T - 1, T - 1);
    let chains: [&[(u32, u32)]; 3] = [&[], &[(dead, 2)], &[(dead, 1), (heir, 3)]];

    for crashes in chains {
        let cell = format!("{} crashes {crashes:?}", op.name());
        let faults = fault_plan(crashes);
        let plans = derive_recovery(&tl, a, Some(&faults), &FullMesh)
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert_eq!(plans.len(), crashes.len(), "{cell}: one plan per crash");
        assert!(
            plans.iter().all(|rp| rp.active),
            "{cell}: every crash re-maps"
        );
        let (expected, recovered) = plans
            .last()
            .map_or((crash_free, 0), |rp| (rp.expected, rp.recovered.total()));

        let opts = DexecOptions {
            faults: Some(faults),
            recover: true,
            ..DexecOptions::default()
        };
        let out =
            execute_distributed_with(&tl, a, a0, &opts).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert!(out.report.error.is_none(), "{cell}: kernel error");
        assert_eq!(
            out.matrix.diff_norm(&reference),
            0.0,
            "{cell}: not bitwise identical to execute_with"
        );
        assert_eq!(out.report.wire, expected, "{cell}: goodput != closed form");
        assert_eq!(out.report.recovered_msgs, recovered, "{cell}");
        assert_eq!(recovered > 0, !crashes.is_empty(), "{cell}");

        let proto = check_protocol(&tl, a, crashes, None).unwrap_or_else(|e| panic!("{cell}: {e}"));
        assert!(proto.is_clean(), "{cell}:\n{}", proto.to_text());
        assert_eq!(proto.n_deliveries, expected.total(), "{cell}");
    }
}

#[test]
fn lu_chains_of_length_0_1_2_recover_bitwise_at_the_closed_form_volume() {
    let a = TileAssignment::extended(&g2dbc::g2dbc(P), T);
    check_chains(
        Operation::Lu,
        &a,
        &TiledMatrix::random_diag_dominant(T, NB, 11),
    );
}

#[test]
fn cholesky_chains_of_length_0_1_2_recover_bitwise_at_the_closed_form_volume() {
    let config = gcrm::GcrmConfig {
        n_seeds: 3,
        ..Default::default()
    };
    let pattern = gcrm::search(P, &config).expect("GCR&M covers any P").best;
    let a = TileAssignment::extended(&pattern, T);
    let mut a0 = TiledMatrix::random_spd(T, NB, 13);
    a0.symmetrize_from_lower();
    check_chains(Operation::Cholesky, &a, &a0);
}
