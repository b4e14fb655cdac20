//! Acceptance suite of the static protocol verifier.
//!
//! Deterministic half: every `(P, op, scheme)` cell of the paper's
//! deployment matrix proves matching, deadlock-freedom and eviction
//! safety; the delivery count equals the closed-form communication
//! volume; a known tight configuration (LU over SBC at P=2) deadlocks
//! at inbox capacity 1 with a full wait-for cycle witness; and a live
//! `dexec` net-trace — over the channel backend *and* over real Unix
//! sockets — validates as a linearization of the derived schedule.
//!
//! Property half: random `P ∈ [2, 64]` across every shipped pattern
//! family stays clean and self-consistent (completes at the reported
//! minimum capacity, deadlocks one frame below it), and each seeded
//! mutation — dropped send, reordered sends, premature eviction — is
//! detected with the right finding kind.

mod common;

use common::schemes_for;
use flexdist_core::{g2dbc, gcrm, sbc, Pattern};
use flexdist_dist::TileAssignment;
use flexdist_factor::{build_graph, Backend, DexecOptions, Operation, Problem, TaskList};
use flexdist_kernels::KernelCostModel;
use flexdist_verify::{
    check_protocol, check_schedule, check_trace_linearization, ProtocolSchedule,
};
use proptest::prelude::*;

const T: usize = 6;
const NB: usize = 4;

fn task_list(op: Operation, a: &TileAssignment) -> TaskList {
    build_graph(op, a, &KernelCostModel::uniform(NB, 10.0))
}

/// Acceptance matrix: every deployment cell proves clean — matching,
/// eviction safety, deadlock-freedom with a finite minimum capacity —
/// and predicts exactly the closed-form communication volume.
#[test]
fn protocol_clean_across_deployment_matrix() {
    for p in [2u32, 4, 5, 7, 12] {
        for (name, pat) in schemes_for(p) {
            let a = TileAssignment::extended(&pat, T);
            for op in [Operation::Lu, Operation::Cholesky] {
                let tl = task_list(op, &a);
                let rep = check_protocol(&tl, &a, &[], None)
                    .unwrap_or_else(|e| panic!("{} {name}: {e}", op.name()));
                assert!(rep.is_clean(), "{} {name}:\n{}", op.name(), rep.to_text());
                let cap = rep.min_capacity.expect("matching clean computes capacity");
                assert!(cap >= 1, "{} {name}: messages exist", op.name());
                let vol = op
                    .comm_volume(&a)
                    .expect("LU and Cholesky have a closed form");
                assert_eq!(
                    rep.n_deliveries,
                    vol.panel + vol.trailing,
                    "{} {name}: derived deliveries diverge from closed-form volume",
                    op.name()
                );
                assert_eq!(rep.peaks.len(), pat.n_nodes() as usize);
                let owned: u64 = rep.peaks.iter().map(|r| r.owned).sum();
                assert_eq!(owned, (T * T) as u64, "every tile owned exactly once");
            }
        }
    }
}

/// The deadlock analysis is not vacuous: LU over SBC at P=2 (a tight
/// two-rank crisscross of panel and trailing broadcasts) needs three
/// inbox frames, and simulating one frame yields a `protocol-deadlock`
/// finding whose witness names both ranks blocked mid-send.
#[test]
fn sbc_p2_lu_deadlocks_at_capacity_one() {
    let pat = sbc::sbc_extended(2).expect("P=2 admissible");
    let a = TileAssignment::extended(&pat, T);
    let tl = task_list(Operation::Lu, &a);
    let rep = check_protocol(&tl, &a, &[], Some(1)).expect("derives");
    assert_eq!(rep.min_capacity, Some(3), "known tight configuration");
    let dl: Vec<_> = rep
        .findings
        .iter()
        .filter(|f| f.rule == "protocol-deadlock")
        .collect();
    assert_eq!(dl.len(), 1, "exactly one cycle report:\n{}", rep.to_text());
    assert!(
        dl[0].message.contains("wait-for cycle") && dl[0].message.contains("blocked sending"),
        "witness path names the blocked sends: {}",
        dl[0].message
    );
    // And the threshold is exact: three frames complete.
    let at3 = check_protocol(&tl, &a, &[], Some(3)).expect("derives");
    assert!(at3.is_clean(), "{}", at3.to_text());
}

/// Close the loop against the real executor: a traced `dexec` run over
/// the in-process channel backend and over real Unix-domain sockets is
/// a linearization of the statically derived schedule — same goodput
/// message set, every frame enqueued after its producer's span.
#[test]
fn live_traces_linearize_the_derived_schedule() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(5), T, NB, 11).expect("valid");
    let s = ProtocolSchedule::derive(&problem.tl, &problem.assignment).expect("derives");
    let dir = std::env::temp_dir().join(format!("flexdist-verify-proto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let backends = [
        ("channel", Backend::Channel),
        (
            "uds",
            Backend::Socket(flexdist_factor::net::SocketConfig::uds(&dir)),
        ),
    ];
    for (name, backend) in backends {
        let opts = DexecOptions {
            trace: true,
            backend,
            ..DexecOptions::default()
        };
        let out = problem
            .run(&opts)
            .unwrap_or_else(|e| panic!("{name}: dexec fails: {e}"));
        assert!(out.report.error.is_none(), "{name}: kernel error");
        let doc = out.trace.expect("trace requested").to_json();
        let check = check_trace_linearization(&s, &doc).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(check.is_clean(), "{name}:\n{}", check.to_text());
        assert_eq!(
            check.n_goodput, check.n_scheduled,
            "{name}: every scheduled delivery hit the wire exactly once"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mutated traces are rejected: deleting a goodput message yields
/// `missing-delivery`, rewriting its coordinates yields
/// `unscheduled-message`, and back-dating its enqueue stamp to before
/// the producing task's span yields `non-causal-send`.
#[test]
fn mutated_traces_are_rejected() {
    use flexdist_json::Value;
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(4), T, NB, 13).expect("valid");
    let s = ProtocolSchedule::derive(&problem.tl, &problem.assignment).expect("derives");
    let traced = DexecOptions {
        trace: true,
        ..DexecOptions::default()
    };
    let out = problem.run(&traced).expect("dexec succeeds");
    let doc = out.trace.expect("trace requested").to_json();
    let base = check_trace_linearization(&s, &doc).expect("net-trace");
    assert!(base.is_clean(), "{}", base.to_text());

    let mutate = |f: &dyn Fn(&mut Vec<Value>)| {
        let mut d = doc.clone();
        let Value::Object(pairs) = &mut d else {
            panic!("net-trace is an object");
        };
        let msgs = pairs
            .iter_mut()
            .find(|(k, _)| k == "messages")
            .map(|(_, v)| v)
            .expect("messages array");
        let Value::Array(msgs) = msgs else {
            panic!("messages is an array");
        };
        f(msgs);
        check_trace_linearization(&s, &d).expect("net-trace")
    };
    let dropped = mutate(&|msgs| {
        msgs.remove(0);
    });
    assert!(
        dropped
            .findings
            .iter()
            .any(|f| f.rule == "missing-delivery"),
        "{}",
        dropped.to_text()
    );
    let rewritten = mutate(&|msgs| {
        if let Some(Value::Object(m)) = msgs.first_mut() {
            for (k, v) in m.iter_mut() {
                if k == "i" {
                    *v = Value::from(u64::from(T as u32) + 7);
                }
            }
        }
    });
    assert!(
        rewritten
            .findings
            .iter()
            .any(|f| f.rule == "unscheduled-message")
            && rewritten
                .findings
                .iter()
                .any(|f| f.rule == "missing-delivery"),
        "{}",
        rewritten.to_text()
    );
    let backdated = mutate(&|msgs| {
        if let Some(Value::Object(m)) = msgs.last_mut() {
            for (k, v) in m.iter_mut() {
                if k == "at" {
                    *v = Value::from(-1.0);
                }
            }
        }
    });
    assert!(
        backdated
            .findings
            .iter()
            .any(|f| f.rule == "non-causal-send"),
        "{}",
        backdated.to_text()
    );
}

// ---------------------------------------------------------------------------
// Property half.
// ---------------------------------------------------------------------------

/// One pattern of each family the paper ships, at a random `P ∈ [2, 64]`.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    prop_oneof![
        (2u32..65).prop_map(g2dbc::g2dbc),
        (2u32..65, 0u64..8).prop_map(|(p, s)| {
            gcrm::search(
                p,
                &gcrm::GcrmConfig {
                    n_seeds: 1 + s % 3,
                    ..Default::default()
                },
            )
            .unwrap()
            .best
        }),
        (3u32..65).prop_map(|p| {
            let q = sbc::largest_admissible_at_most(p).unwrap();
            sbc::sbc_extended(q).unwrap()
        }),
    ]
}

fn arb_op() -> impl Strategy<Value = Operation> {
    prop_oneof![Just(Operation::Lu), Just(Operation::Cholesky)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any shipped pattern at any node count derives a clean protocol,
    /// and the reported minimum capacity is self-consistent: the
    /// schedule completes at it and deadlocks one frame below it.
    #[test]
    fn derived_schedules_match_and_never_deadlock(
        pattern in arb_pattern(),
        op in arb_op(),
        t in 2usize..7,
    ) {
        let a = TileAssignment::extended(&pattern, t);
        let tl = task_list(op, &a);
        let rep = check_protocol(&tl, &a, &[], None).map_err(|e| {
            TestCaseError::fail(e)
        })?;
        prop_assert!(rep.is_clean(), "{}", rep.to_text());
        let cap = rep.min_capacity.expect("matching clean");
        if cap > 0 {
            let at = check_protocol(&tl, &a, &[], Some(cap)).expect("derives");
            prop_assert!(at.is_clean(), "at min capacity:\n{}", at.to_text());
        }
        if cap > 1 {
            let below = check_protocol(&tl, &a, &[], Some(cap - 1)).expect("derives");
            prop_assert!(
                below.findings.iter().any(|f| f.rule == "protocol-deadlock"),
                "below min capacity must cycle:\n{}",
                below.to_text()
            );
        }
    }

    /// Deleting any single broadcast is always a `missing-delivery` (or,
    /// when the tile had no scheduled reader elsewhere, leaves the
    /// schedule with fewer deliveries than the closed-form volume —
    /// which the deterministic suite pins; here every send has readers).
    #[test]
    fn dropped_send_is_always_caught(
        pattern in arb_pattern(),
        op in arb_op(),
        t in 3usize..6,
        pick in 0usize..10_000,
    ) {
        let a = TileAssignment::extended(&pattern, t);
        let tl = task_list(op, &a);
        let mut s = ProtocolSchedule::derive(&tl, &a).map_err(TestCaseError::fail)?;
        prop_assume!(s.drop_send(pick).is_some());
        let rep = check_schedule(&s, None);
        prop_assert!(
            rep.findings.iter().any(|f| f.rule == "missing-delivery"),
            "dropped send went unnoticed:\n{}",
            rep.to_text()
        );
        prop_assert!(rep.min_capacity.is_none(), "simulation must be gated off");
    }

    /// Swapping two same-rank broadcasts always detaches both messages
    /// from their producing tasks: two `send-mismatch` findings.
    #[test]
    fn swapped_sends_are_always_caught(
        pattern in arb_pattern(),
        op in arb_op(),
        t in 3usize..6,
        pick in 0usize..10_000,
    ) {
        let a = TileAssignment::extended(&pattern, t);
        let tl = task_list(op, &a);
        let mut s = ProtocolSchedule::derive(&tl, &a).map_err(TestCaseError::fail)?;
        prop_assume!(s.swap_sends(pick).is_some());
        let rep = check_schedule(&s, None);
        let n = rep.findings.iter().filter(|f| f.rule == "send-mismatch").count();
        prop_assert!(n >= 2, "swap yields both mismatches:\n{}", rep.to_text());
    }

    /// Decrementing any replica refcount is always a `premature-eviction`
    /// — the engine would free the payload before its last reader.
    #[test]
    fn premature_eviction_is_always_caught(
        pattern in arb_pattern(),
        op in arb_op(),
        t in 3usize..6,
        pick in 0usize..10_000,
    ) {
        let a = TileAssignment::extended(&pattern, t);
        let tl = task_list(op, &a);
        let mut s = ProtocolSchedule::derive(&tl, &a).map_err(TestCaseError::fail)?;
        prop_assume!(s.evict_early(pick).is_some());
        let rep = check_schedule(&s, None);
        prop_assert!(
            rep.findings.iter().any(|f| f.rule == "premature-eviction"),
            "early eviction went unnoticed:\n{}",
            rep.to_text()
        );
    }
}
