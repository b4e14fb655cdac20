//! Acceptance suite of the protocol verifier's crash support.
//!
//! The crashed schedule ([`ProtocolSchedule::derive_crashed_cascade`])
//! is the union of what a recovering run actually executes: the fused
//! survivor view under the composed P→P−k re-map chain plus every
//! casualty's pre-crash tasks. The closures prove it end to end: every
//! cell of the deployment matrix × two crash points passes matching and
//! deadlock-freedom with deliveries equal to the spliced closed-form
//! volume — and a k ∈ {2, 3} cascade matrix does the same against the
//! composed chain volume; a live recovered run's net-trace — over the
//! channel backend *and* real Unix sockets, with the crashes actually
//! injected, including a two-crash cascade — linearizes against it; and
//! the seeded recovery mutation (an heir that forgets its re-serve
//! sends) is caught with the `missing-delivery` finding kind.

mod common;

use common::schemes_for;
use flexdist_core::g2dbc;
use flexdist_dist::TileAssignment;
use flexdist_factor::net::{FaultPlan, FullMesh};
use flexdist_factor::{
    build_graph, derive_recovery, Backend, DexecOptions, Operation, Problem, RecoverPlan, TaskList,
};
use flexdist_kernels::KernelCostModel;
use flexdist_verify::{
    check_protocol, check_schedule, check_trace_linearization, ProtocolSchedule,
};

const T: usize = 6;
const NB: usize = 4;

fn task_list(op: Operation, a: &TileAssignment) -> TaskList {
    build_graph(op, a, &KernelCostModel::uniform(NB, 10.0))
}

/// The 60-cell crashed deployment matrix: every `(P, scheme, op)` cell
/// of the plain acceptance matrix, crashed at an early and a middle
/// epoch (the casualty being the final diagonal tile's owner, so the
/// re-map is always active), proves clean — send/recv matching,
/// eviction safety, deadlock-freedom at a finite minimum capacity —
/// and its delivery count equals the spliced closed-form volume.
#[test]
fn crashed_protocol_clean_across_deployment_matrix() {
    let mut cells = 0u32;
    for p in [2u32, 4, 5, 7, 12] {
        for (name, pat) in schemes_for(p) {
            let a = TileAssignment::extended(&pat, T);
            let dead = a.owner(T - 1, T - 1);
            for op in [Operation::Lu, Operation::Cholesky] {
                let tl = task_list(op, &a);
                for epoch in [1u32, (T as u32) / 2] {
                    let cell = format!("{} {name} crash {dead}@{epoch}", op.name());
                    let rp = &chain_plans(&tl, &a, &[(dead, epoch)])[0];
                    assert!(rp.active, "{cell}: the final diagonal owner always works");
                    let rep = check_protocol(&tl, &a, &[(dead, epoch)], None)
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert!(rep.is_clean(), "{cell}:\n{}", rep.to_text());
                    let cap = rep.min_capacity.expect("matching clean computes capacity");
                    assert!(cap >= 1, "{cell}: messages exist");
                    assert_eq!(
                        rep.n_deliveries,
                        rp.expected.total(),
                        "{cell}: crashed deliveries diverge from the spliced volume"
                    );
                    cells += 1;
                }
            }
        }
    }
    assert_eq!(cells, 60, "the full crashed deployment matrix ran");
}

/// Derive the full recovery chain for a crash list over a full mesh.
fn chain_plans(tl: &TaskList, a: &TileAssignment, crashes: &[(u32, u32)]) -> Vec<RecoverPlan> {
    let mut fp = FaultPlan::new(0);
    for &(d, e) in crashes {
        fp = fp.with_crash(d, e).expect("distinct crash ranks");
    }
    derive_recovery(tl, a, Some(&fp), &FullMesh).expect("chain derives")
}

/// The cascade matrix: every `(P, scheme, op)` cell crashed k ∈ {2, 3}
/// times, each casualty being the current owner of the final diagonal
/// tile (so every crash removes real work and each later casualty is an
/// heir of the previous one — second-generation resurrection included).
/// Every cell proves clean with deliveries equal to the **composed**
/// spliced chain volume.
#[test]
fn cascaded_protocol_clean_with_composed_volume() {
    let mut cells = 0u32;
    for p in [4u32, 5, 7] {
        for (name, pat) in schemes_for(p) {
            let a = TileAssignment::extended(&pat, T);
            for op in [Operation::Lu, Operation::Cholesky] {
                let tl = task_list(op, &a);
                for k in [2usize, 3] {
                    // A k-cascade needs at least one survivor (SBC may
                    // deploy fewer than p ranks).
                    if (k as u32) >= a.n_nodes() {
                        continue;
                    }
                    let mut crashes: Vec<(u32, u32)> = vec![(a.owner(T - 1, T - 1), 1)];
                    for &epoch in [3u32, 4].iter().take(k - 1) {
                        let plans = chain_plans(&tl, &a, &crashes);
                        let heir = &plans.last().expect("one plan per crash").remapped;
                        crashes.push((heir.owner(T - 1, T - 1), epoch));
                    }
                    let cell = format!("{} {name} cascade {crashes:?}", op.name());
                    let plans = chain_plans(&tl, &a, &crashes);
                    assert!(
                        plans.iter().all(|rp| rp.active),
                        "{cell}: every casualty owned the final diagonal tile"
                    );
                    let expected = plans.last().expect("k plans").expected.total();
                    let rep = check_protocol(&tl, &a, &crashes, None)
                        .unwrap_or_else(|e| panic!("{cell}: {e}"));
                    assert!(rep.is_clean(), "{cell}:\n{}", rep.to_text());
                    assert_eq!(
                        rep.n_deliveries, expected,
                        "{cell}: cascaded deliveries diverge from the composed spliced volume"
                    );
                    cells += 1;
                }
            }
        }
    }
    assert!(cells >= 30, "the cascade matrix ran ({cells} cells)");
}

/// Close the loop against the real recovering executor: a traced run
/// with the crashes injected and recovery armed — a single crash and a
/// two-crash cascade, over the in-process channel backend and over real
/// Unix-domain sockets — linearizes against the statically derived
/// crashed schedule: same goodput message set, every frame enqueued
/// after its producer's span on the sending rank (a casualty's
/// pre-crash spans and its heir's re-run spans are disambiguated by the
/// `(node, task)` keying).
#[test]
fn live_recovered_traces_linearize_the_crashed_schedule() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(5), T, NB, 11).expect("valid");
    let (tl, a) = (&problem.tl, &problem.assignment);
    let dead = a.owner(T - 1, T - 1);
    let heir = chain_plans(tl, a, &[(dead, 2)])[0]
        .remapped
        .owner(T - 1, T - 1);
    let cascades: [&[(u32, u32)]; 2] = [&[(dead, 2)], &[(dead, 2), (heir, 3)]];
    let dir = std::env::temp_dir().join(format!("flexdist-verify-crash-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    for crashes in cascades {
        let s = ProtocolSchedule::derive_crashed_cascade(tl, a, crashes).expect("derives");
        let backends = [
            ("channel", Backend::Channel),
            (
                "uds",
                Backend::Socket(flexdist_factor::net::SocketConfig::uds(&dir)),
            ),
        ];
        for (name, backend) in backends {
            let ctx = format!("{name} {crashes:?}");
            let mut fp = FaultPlan::new(7);
            for &(d, e) in crashes {
                fp = fp.with_crash(d, e).expect("distinct crash ranks");
            }
            let opts = DexecOptions {
                trace: true,
                faults: Some(fp),
                recover: true,
                backend,
                ..DexecOptions::default()
            };
            let out = problem
                .run(&opts)
                .unwrap_or_else(|e| panic!("{ctx}: recovered dexec fails: {e}"));
            assert!(out.report.error.is_none(), "{ctx}: kernel error");
            assert!(
                out.report.recovered_msgs > 0,
                "{ctx}: the re-map produced recovered sends"
            );
            let doc = out.trace.expect("trace requested").to_json();
            let check =
                check_trace_linearization(&s, &doc).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(check.is_clean(), "{ctx}:\n{}", check.to_text());
            assert_eq!(
                check.n_goodput, check.n_scheduled,
                "{ctx}: every spliced delivery hit the wire exactly once"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The recovery mutation is not vacuous: deleting the heir's
/// recovery-only sends from the crashed schedule is caught by the
/// matching analysis as `missing-delivery` (the new readers' operands
/// are never served), while the unmutated schedule stays clean.
#[test]
fn dropped_recovery_send_is_caught() {
    let pat = g2dbc::g2dbc(5);
    let a = TileAssignment::extended(&pat, T);
    let tl = task_list(Operation::Lu, &a);
    let (dead, epoch) = (a.owner(T - 1, T - 1), 2u32);
    let mut s =
        ProtocolSchedule::derive_crashed_cascade(&tl, &a, &[(dead, epoch)]).expect("derives");
    assert!(check_schedule(&s, None).is_clean(), "unmutated is clean");
    let (task, to) = s
        .drop_recovery_send(0)
        .expect("an active re-map has recovered sends");
    assert!(!to.is_empty(), "the mutation removed at least one leg");
    let rep = check_schedule(&s, None);
    assert!(
        rep.findings.iter().any(|f| f.rule == "missing-delivery"),
        "dropping task {task}'s recovery sends to {to:?} must surface missing-delivery:\n{}",
        rep.to_text()
    );
}
