//! Negative paths of crash recovery, seen from the wire layer: crashes
//! that remove no work degenerate to a no-op (the run completes with
//! plain goodput and zero recovered sends), and a crash whose re-map
//! would cross a network partition is a **typed** unrecoverable error
//! at derivation time — never a hang of live ranks.

use flexdist_dist::{lu_comm_volume, TileAssignment};
use flexdist_factor::{
    build_graph, derive_recovery, derive_schedule, execute_distributed_with, DexecOptions,
    Operation,
};
use flexdist_kernels::{KernelCostModel, TiledMatrix};
use flexdist_net::{FaultPlan, FullMesh, NetError, Partition};

const T: usize = 5;
const NB: usize = 4;

fn lu_setup(a: &TileAssignment) -> (flexdist_factor::TaskList, TiledMatrix) {
    let tl = build_graph(Operation::Lu, a, &KernelCostModel::uniform(NB, 10.0));
    let input = TiledMatrix::random_diag_dominant(T, NB, 23);
    (tl, input)
}

/// Run with the crash scheduled and recovery armed; the recovery must
/// be a no-op: completes, bitwise-identical to the crash-free run,
/// plain goodput, zero recovered sends.
fn assert_noop_recovery(a: &TileAssignment, dead: u32, epoch: u32) {
    let (tl, input) = lu_setup(a);
    let crash = FaultPlan::new(3)
        .with_crash(dead, epoch)
        .expect("one crash");
    let plans = derive_recovery(&tl, a, Some(&crash), &FullMesh).expect("derives");
    assert!(
        plans.iter().all(|rp| !rp.active),
        "crash point {dead}@{epoch} removes no work"
    );
    let base =
        execute_distributed_with(&tl, a, &input, &DexecOptions::default()).expect("crash-free run");
    assert!(base.report.error.is_none());
    let base = base.matrix;
    let out = execute_distributed_with(
        &tl,
        a,
        &input,
        &DexecOptions {
            faults: Some(crash),
            recover: true,
            ..DexecOptions::default()
        },
    )
    .expect("no-op recovery completes");
    assert!(out.report.error.is_none());
    assert_eq!(out.matrix.diff_norm(&base), 0.0, "bitwise == crash-free");
    assert_eq!(out.report.recovered_msgs, 0, "nothing was re-mapped");
    assert_eq!(out.report.recovered_bytes, 0);
    assert_eq!(
        out.report.wire,
        lu_comm_volume(a),
        "goodput equals the plain closed-form volume"
    );
}

/// A rank whose only tile is finalized in the first iteration owns zero
/// remaining tiles at any later crash point — recovery is a no-op.
#[test]
fn crash_of_a_rank_with_zero_remaining_tiles_is_a_noop() {
    // Rank 3 owns exactly tile (0,0), finalized at epoch 0; everything
    // else cycles over ranks 0..3.
    let a = TileAssignment::from_owner_fn(T, 4, |i, j| {
        if (i, j) == (0, 0) {
            3
        } else {
            ((i + j) % 3) as u32
        }
    });
    assert_noop_recovery(&a, 3, 1);
}

/// A crash at the final iteration of a rank that has already finished
/// its schedule re-maps nothing.
#[test]
fn crash_at_the_final_epoch_is_a_noop() {
    let a = TileAssignment::extended(&flexdist_core::g2dbc::g2dbc(4), T);
    let (tl, _) = lu_setup(&a);
    let cs = derive_schedule(&tl, &a).expect("derives");
    // A rank whose last task sits before the final iteration: crashing
    // it at the final epoch leaves nothing to re-map.
    let final_epoch = (T - 1) as u32;
    let dead = (0..a.n_nodes())
        .find(|&r| {
            cs.node
                .iter()
                .zip(&cs.epochs)
                .filter(|&(&n, _)| n == r)
                .all(|(_, &e)| e < final_epoch)
        })
        .expect("some rank finishes before the final iteration");
    assert_noop_recovery(&a, dead, final_epoch);
}

/// A crash whose greedy re-map would hand tiles to a rank the topology
/// cannot reach is refused with the typed `NoRoute` error at derivation
/// time — before any endpoint is built — rather than leaving survivors
/// waiting on undeliverable messages.
#[test]
fn partitioned_topology_crash_is_a_typed_no_route_not_a_hang() {
    // Ranks {0,1,2} share a partition; rank 3 is isolated and owns no
    // tiles, so the least-loaded re-map targets it across the cut.
    let a = TileAssignment::from_owner_fn(T, 4, |i, j| ((i + j) % 3) as u32);
    let (tl, input) = lu_setup(&a);
    let topo = Partition::new(vec![0, 0, 0, 1]);
    let started = std::time::Instant::now();
    let err = match execute_distributed_with(
        &tl,
        &a,
        &input,
        &DexecOptions {
            topology: &topo,
            faults: Some(FaultPlan::new(9).with_crash(1, 2).expect("one crash")),
            recover: true,
            ..DexecOptions::default()
        },
    ) {
        Ok(_) => panic!("unroutable re-map must be refused"),
        Err(e) => e,
    };
    assert!(
        matches!(err, NetError::NoRoute { .. }),
        "typed NoRoute, got {err:?}"
    );
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "refused at derivation time, not by timeout"
    );
}
