//! Negative-path tests: every protocol violation is rejected with a
//! typed error that names the rank and tile involved, instead of a
//! panic, a hang, or silent acceptance.

use std::sync::Arc;

use flexdist_core::twodbc;
use flexdist_dist::TileAssignment;
use flexdist_factor::{execute_distributed_with, DexecOptions, Operation, Problem};
use flexdist_kernels::Tile;
use flexdist_net::{
    build_fabric, decode, encode, FullMesh, MsgClass, NetError, Partition, ReplicaCache, TileMsg,
};

const T: usize = 4;
const NB: usize = 3;

fn fabric(
    topology: &dyn flexdist_net::Topology,
) -> (Arc<TileAssignment>, Vec<flexdist_net::Endpoint>) {
    let assignment = Arc::new(TileAssignment::cyclic(&twodbc::two_dbc(2, 2), T));
    let endpoints = build_fabric(&assignment, topology);
    (assignment, endpoints)
}

/// A tile rank 0 owns, and one it does not.
fn owned_and_foreign(assignment: &TileAssignment) -> ((u32, u32), (u32, u32), u32) {
    let mut owned = None;
    let mut foreign = None;
    for i in 0..T {
        for j in 0..T {
            let o = assignment.owner(i, j);
            if o == 0 && owned.is_none() {
                owned = Some((i as u32, j as u32));
            }
            if o != 0 && foreign.is_none() {
                foreign = Some((i as u32, j as u32, o));
            }
        }
    }
    let (fi, fj, fo) = foreign.expect("2x2 cyclic spreads tiles over 4 ranks");
    (owned.expect("rank 0 owns a tile"), (fi, fj), fo)
}

#[test]
fn sending_an_unowned_tile_is_rejected() {
    let (assignment, mut eps) = fabric(&FullMesh);
    let ((_, _), (fi, fj), owner) = owned_and_foreign(&assignment);
    let err = eps[0]
        .send_tile(1, MsgClass::Trailing, fi, fj, fi.min(fj), &Tile::zeros(NB))
        .unwrap_err();
    assert_eq!(
        err,
        NetError::NotOwner {
            rank: 0,
            i: fi,
            j: fj,
            owner
        }
    );
    let text = err.to_string();
    assert!(
        text.contains("rank 0") && text.contains(&format!("({fi},{fj})")),
        "{text}"
    );
}

#[test]
fn self_send_is_rejected() {
    let (assignment, mut eps) = fabric(&FullMesh);
    let ((oi, oj), _, _) = owned_and_foreign(&assignment);
    let err = eps[0]
        .send_tile(0, MsgClass::Panel, oi, oj, oi.min(oj), &Tile::zeros(NB))
        .unwrap_err();
    assert_eq!(
        err,
        NetError::SelfSend {
            rank: 0,
            i: oi,
            j: oj
        }
    );
}

#[test]
fn partition_topology_blocks_cross_group_sends() {
    // Ranks {0,1} and {2,3} are separate islands.
    let topology = Partition::new(vec![0, 0, 1, 1]);
    let (assignment, mut eps) = fabric(&topology);
    let ((oi, oj), _, _) = owned_and_foreign(&assignment);
    let err = eps[0]
        .send_tile(2, MsgClass::Trailing, oi, oj, oi.min(oj), &Tile::zeros(NB))
        .unwrap_err();
    assert_eq!(
        err,
        NetError::NoRoute {
            from: 0,
            to: 2,
            topology: "partition"
        }
    );
    // Same-group traffic still flows.
    let bytes = eps[0]
        .send_tile(1, MsgClass::Trailing, oi, oj, oi.min(oj), &Tile::zeros(NB))
        .expect("same-group send succeeds");
    let (msg, got) = eps[1].recv().expect("frame arrives");
    assert_eq!((msg.i, msg.j, got), (oi, oj, bytes));
}

#[test]
fn stale_epoch_is_rejected() {
    let mut cache = ReplicaCache::new(T, NB);
    // Tile (2,1) is only ever broadcast at epoch min(2,1) = 1.
    let msg = TileMsg {
        class: MsgClass::Trailing,
        src: 3,
        i: 2,
        j: 1,
        epoch: 0,
        tile: Tile::zeros(NB),
    };
    let err = cache.insert(0, msg).unwrap_err();
    assert_eq!(
        err,
        NetError::StaleEpoch {
            rank: 0,
            from: 3,
            i: 2,
            j: 1,
            epoch: 0,
            expected: 1
        }
    );
    let text = err.to_string();
    assert!(text.contains("(2,1)") && text.contains("rank 3"), "{text}");
}

#[test]
fn epoch_past_the_last_iteration_is_rejected() {
    let mut cache = ReplicaCache::new(T, NB);
    let msg = TileMsg {
        class: MsgClass::Panel,
        src: 1,
        i: T as u32 + 5,
        j: T as u32 + 5,
        epoch: T as u32 + 5,
        tile: Tile::zeros(NB),
    };
    assert!(matches!(
        cache.insert(2, msg).unwrap_err(),
        NetError::StaleEpoch {
            rank: 2,
            from: 1,
            ..
        }
    ));
}

#[test]
fn duplicate_replica_is_rejected() {
    let mut cache = ReplicaCache::new(T, NB);
    let msg = TileMsg {
        class: MsgClass::Trailing,
        src: 1,
        i: 3,
        j: 1,
        epoch: 1,
        tile: Tile::zeros(NB),
    };
    cache
        .insert(0, msg.clone())
        .expect("first replica accepted");
    let err = cache.insert(0, msg).unwrap_err();
    assert_eq!(
        err,
        NetError::DuplicateMsg {
            rank: 0,
            from: 1,
            i: 3,
            j: 1,
            epoch: 1
        }
    );
}

#[test]
fn wrong_payload_shape_is_rejected() {
    let mut cache = ReplicaCache::new(T, NB);
    let msg = TileMsg {
        class: MsgClass::Panel,
        src: 1,
        i: 0,
        j: 0,
        epoch: 0,
        tile: Tile::zeros(NB + 2),
    };
    assert_eq!(
        cache.insert(0, msg).unwrap_err(),
        NetError::PayloadShape {
            rank: 0,
            i: 0,
            j: 0,
            got_nb: NB + 2,
            want_nb: NB
        }
    );
}

#[test]
fn truncated_frame_is_rejected_at_every_header_cut() {
    let msg = TileMsg {
        class: MsgClass::Panel,
        src: 0,
        i: 1,
        j: 1,
        epoch: 1,
        tile: Tile::zeros(NB),
    };
    let frame = encode(&msg).unwrap();
    for cut in 0..frame.len() {
        match decode(&frame[..cut]) {
            Err(NetError::Truncated { need, got }) => {
                assert_eq!(got, cut);
                assert!(need > got, "need {need} <= got {got}");
            }
            other => panic!("cut at {cut} decoded as {other:?}"),
        }
    }
    // And the whole frame still decodes.
    assert!(decode(&frame).is_ok());
}

#[test]
fn oversized_frame_is_rejected() {
    let msg = TileMsg {
        class: MsgClass::Panel,
        src: 0,
        i: 0,
        j: 0,
        epoch: 0,
        tile: Tile::zeros(NB),
    };
    let mut frame = encode(&msg).unwrap();
    frame.push(0);
    assert!(matches!(
        decode(&frame).unwrap_err(),
        NetError::FrameOverrun { .. }
    ));
}

#[test]
fn distributed_syrk_is_unsupported() {
    let problem = Problem::new(Operation::Syrk, &twodbc::two_dbc(2, 2), T, NB, 9).expect("valid");
    let err = problem
        .run(&DexecOptions::default())
        .map(|out| out.report)
        .unwrap_err();
    assert!(
        matches!(&err, NetError::Unsupported { operation } if operation == "syrk"),
        "{err:?}"
    );
}

#[test]
fn shape_mismatch_is_rejected() {
    let problem = Problem::new(Operation::Lu, &twodbc::two_dbc(2, 2), T, NB, 9).expect("valid");
    let a0 = Operation::Lu.input(T + 1, NB, 9);
    assert_eq!(
        execute_distributed_with(
            &problem.tl,
            &problem.assignment,
            &a0,
            &DexecOptions::default()
        )
        .map(|out| out.report)
        .unwrap_err(),
        NetError::ShapeMismatch {
            expected: T,
            got: T + 1
        }
    );
}
