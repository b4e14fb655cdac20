//! Replay cross-validation suite: every distributed-executor trace,
//! fed back through the cluster simulator, must reproduce the
//! executor's per-link goodput **exactly** — message counts and byte
//! volumes both — under the constant network model, and the contended
//! models must preserve those counts (they may only reorder and
//! stretch time).
//!
//! This closes the loop between the two communication substrates: the
//! executor measures what it put on the wire ([`NetReport`] links,
//! goodput only), the simulator counts what it scheduled
//! ([`Simulator::link_traffic`]), and `replay` checks the two agree for
//! every node count × operation × scheme the repo supports.
//!
//! Chaos runs (deterministic 5% drop/duplicate/corrupt faults, seed
//! 42) must replay to the *same* goodput as the clean run: the
//! reliability layer's retransmissions are overhead frames, which
//! replay deduplicates away exactly as the executor's own conformance
//! accounting does.

mod common;

use common::{schemes_for, NODE_COUNTS};
use flexdist_core::g2dbc;
use flexdist_factor::net::{FaultPlan, NetReport, NetTrace};
use flexdist_factor::{
    replay_trace, DexecOptions, Operation, Problem, ReplayOptions, ReplayReport,
};
use flexdist_runtime::NetworkModel;
use std::collections::HashMap;

const T: usize = 6;
const NB: usize = 4;

/// Per-link goodput of the executor's report: `(msgs, bytes)` keyed by
/// ordered rank pair, links that carried only overhead frames dropped.
fn goodput_links(report: &NetReport) -> HashMap<(u32, u32), (u64, u64)> {
    report
        .links
        .iter()
        .filter(|l| l.msgs > 0)
        .map(|l| ((l.from, l.to), (l.msgs, l.bytes)))
        .collect()
}

/// Replay `trace` under `model` and assert exact agreement with the
/// executor's goodput on every link, in both directions of the
/// comparison (trace side and simulator side).
fn assert_replay_agrees(
    report: &NetReport,
    trace: &NetTrace,
    model: NetworkModel,
    ctx: &str,
) -> ReplayReport {
    let doc = trace.to_json();
    let opts = ReplayOptions {
        network: model,
        ..ReplayOptions::default()
    };
    let replay = replay_trace(&doc, &opts).unwrap_or_else(|e| panic!("{ctx}: replay failed: {e}"));
    assert!(
        replay.conformant(),
        "{ctx}: replay disagrees with itself:\n{}",
        replay.to_text()
    );
    let mut expected = goodput_links(report);
    for l in &replay.links {
        let (msgs, bytes) = expected.remove(&(l.from, l.to)).unwrap_or_else(|| {
            panic!(
                "{ctx}: replay saw link {}->{} the executor never used",
                l.from, l.to
            )
        });
        assert_eq!(
            (l.trace_msgs, l.trace_bytes),
            (msgs, bytes),
            "{ctx}: trace goodput on link {}->{} diverges from NetReport",
            l.from,
            l.to
        );
        assert_eq!(
            (l.sim_msgs, l.sim_bytes),
            (msgs, bytes),
            "{ctx}: simulator traffic on link {}->{} diverges from NetReport goodput",
            l.from,
            l.to
        );
    }
    assert!(
        expected.is_empty(),
        "{ctx}: executor goodput on links {:?} never replayed",
        expected.keys().collect::<Vec<_>>()
    );
    replay
}

/// A crash-free, fault-free run that records its span + message trace.
fn traced() -> DexecOptions<'static> {
    DexecOptions {
        trace: true,
        ..DexecOptions::default()
    }
}

fn check_sweep(op: Operation, seed_base: u64) {
    for (k, &p) in NODE_COUNTS.iter().enumerate() {
        for (name, pat) in schemes_for(p) {
            let ctx = format!("{} {name}", op.name());
            let problem =
                Problem::new(op, &pat, T, NB, seed_base + k as u64).expect("a valid problem");
            let out = problem
                .run(&traced())
                .unwrap_or_else(|e| panic!("{ctx}: protocol error {e}"));
            assert!(out.report.error.is_none(), "{ctx}: kernel error");
            let trace = out.trace.as_ref().expect("trace was requested");

            let constant = assert_replay_agrees(&out.report, trace, NetworkModel::Constant, &ctx);
            assert_eq!(constant.n_overhead, 0, "{ctx}: clean run has no overhead");

            // Contended models preserve counts and volumes; only time
            // may differ.
            let shared =
                assert_replay_agrees(&out.report, trace, NetworkModel::SharedBandwidth, &ctx);
            assert_eq!(
                shared.links, constant.links,
                "{ctx}: shared reordered counts"
            );
            let hier = assert_replay_agrees(
                &out.report,
                trace,
                NetworkModel::Hierarchical(flexdist_runtime::HierarchicalTopology::new(2)),
                &ctx,
            );
            assert_eq!(
                hier.links, constant.links,
                "{ctx}: hierarchy reordered counts"
            );
        }
    }
}

#[test]
fn lu_traces_replay_to_exact_link_agreement() {
    check_sweep(Operation::Lu, 40);
}

#[test]
fn cholesky_traces_replay_to_exact_link_agreement() {
    check_sweep(Operation::Cholesky, 70);
}

#[test]
fn chaos_traces_replay_to_the_clean_goodput_after_dedup() {
    for (op, p, seed) in [(Operation::Lu, 5u32, 40u64), (Operation::Cholesky, 4, 70)] {
        let ctx = format!("{} chaos p{p}", op.name());
        let pat = g2dbc::g2dbc(p);
        let problem = Problem::new(op, &pat, T, NB, seed).expect("a valid problem");

        let clean = problem
            .run(&traced())
            .unwrap_or_else(|e| panic!("{ctx}: clean protocol error {e}"));
        let chaotic = problem
            .run(&DexecOptions {
                trace: true,
                faults: Some(FaultPlan::new(42).with_rates(0.05, 0.05, 0.05)),
                ..DexecOptions::default()
            })
            .unwrap_or_else(|e| panic!("{ctx}: chaos protocol error {e}"));
        assert!(
            chaotic.report.faults.retransmits > 0,
            "{ctx}: fault plan injected nothing, the dedup path is untested"
        );

        let clean_trace = clean.trace.as_ref().expect("trace was requested");
        let chaos_trace = chaotic.trace.as_ref().expect("trace was requested");
        let clean_rep =
            assert_replay_agrees(&clean.report, clean_trace, NetworkModel::Constant, &ctx);
        let chaos_rep =
            assert_replay_agrees(&chaotic.report, chaos_trace, NetworkModel::Constant, &ctx);

        // After retransmit dedup the chaotic goodput is the clean one.
        assert!(chaos_rep.n_overhead > 0, "{ctx}: no overhead frames seen");
        assert_eq!(
            chaos_rep.links, clean_rep.links,
            "{ctx}: faulted goodput diverges from the clean run"
        );
    }
}
