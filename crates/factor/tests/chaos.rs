//! Chaos suite: the reliability layer under deterministic fault
//! injection (the acceptance gate of the fault-injection PR).
//!
//! Three claims, each pinned across operations and node counts:
//!
//! * **survivable schedules are invisible** — with drop/duplicate/
//!   corrupt/delay rates up to 10% on every link, the run completes,
//!   the factorized matrix is bitwise-identical to the shared-memory
//!   executor, and the measured goodput still equals the exact
//!   `{lu,cholesky}_comm_volume` counters (retransmissions and
//!   duplicates are accounted separately, never in `wire`);
//! * **the schedule is a pure function of the seed** — replaying the
//!   same seed reproduces the identical `NetReport`, retransmission and
//!   duplicate counters included, despite real thread nondeterminism;
//! * **unsurvivable schedules fail typed, never hang** — a link that
//!   drops everything ends in `RetryExhausted` (or `Stalled` on a
//!   starved peer), and a scheduled rank crash surfaces as
//!   `RankCrashed`, all within the watchdog budget.

use flexdist_core::g2dbc;
use flexdist_dist::lu_comm_volume;
use flexdist_factor::net::{FaultPlan, NetError, NetReport};
use flexdist_factor::{execute, DexecOptions, Operation, Problem};
use proptest::prelude::*;
use std::time::Duration;

/// `expect_err` without requiring `Debug` on the success payload.
fn unwrap_err<T>(r: Result<T, NetError>, why: &str) -> NetError {
    match r {
        Ok(_) => panic!("{why}"),
        Err(e) => e,
    }
}

const NB: usize = 4;

/// Everything in a `NetReport` that must replay bit-for-bit from a seed
/// (timestamps excluded — `NetReport` carries none).
fn assert_reports_identical(a: &NetReport, b: &NetReport) {
    assert_eq!(a.n_ranks, b.n_ranks);
    assert_eq!(a.tasks, b.tasks);
    assert_eq!(a.wire, b.wire, "goodput wire counters must replay");
    assert_eq!(a.bytes, b.bytes);
    assert_eq!(a.per_rank, b.per_rank, "per-rank io must replay");
    assert_eq!(a.links, b.links, "per-link overhead must replay");
    assert_eq!(a.faults, b.faults, "fault counters must replay");
}

fn run_chaos_cell(
    op: Operation,
    p: u32,
    t: usize,
    mat_seed: u64,
    fault_seed: u64,
    rates: (f64, f64, f64, f64),
) {
    let problem = Problem::new(op, &g2dbc::g2dbc(p), t, NB, mat_seed).expect("a valid problem");
    let (drop, dup, corrupt, delay) = rates;
    let plan = FaultPlan::new(fault_seed)
        .with_rates(drop, dup, corrupt)
        .with_delay(delay)
        .with_backoff(Duration::from_micros(5), Duration::from_micros(200));
    let opts = DexecOptions {
        faults: Some(plan),
        watchdog: Duration::from_secs(20),
        ..DexecOptions::default()
    };
    let run = || {
        problem
            .run(&opts)
            .unwrap_or_else(|e| panic!("{} P={p} seed={fault_seed}: {e}", op.name()))
    };
    let first = run();
    assert!(first.report.error.is_none(), "kernel error under faults");

    // Goodput conformance holds exactly despite retransmissions.
    let expected = problem.volume.expect("LU and Cholesky have a closed form");
    assert_eq!(
        first.report.wire,
        expected,
        "{} P={p}: goodput diverged from analytic comm volume",
        op.name()
    );

    // Bitwise identity with the shared-memory executor.
    let (shared, rep) = execute(&problem.tl, problem.input.clone(), 2);
    assert!(rep.error.is_none());
    assert_eq!(
        first.matrix.diff_norm(&shared),
        0.0,
        "{} P={p} seed={fault_seed}: result diverged bitwise under faults",
        op.name()
    );

    // Same seed, same schedule: the report replays exactly.
    let second = run();
    assert_reports_identical(&first.report, &second.report);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any node count in [2, 16], any seed, any fault rates up to 10%:
    /// the run completes bitwise-correct, conformant, and replayable.
    #[test]
    fn survivable_chaos_preserves_every_invariant(
        p in 2u32..=16,
        lu in 0u8..2,
        mat_seed in 0u64..50,
        fault_seed in 0u64..1000,
        drop in 0.0..0.10f64,
        dup in 0.0..0.10f64,
        corrupt in 0.0..0.10f64,
        delay in 0.0..0.10f64,
    ) {
        let op = if lu == 0 { Operation::Lu } else { Operation::Cholesky };
        run_chaos_cell(op, p, 5, mat_seed, fault_seed, (drop, dup, corrupt, delay));
    }
}

/// A fixed high-fault cell, always exercised even in fast test runs.
#[test]
fn fixed_seed_chaos_cell_is_survivable_and_replayable() {
    run_chaos_cell(Operation::Lu, 5, 6, 7, 42, (0.10, 0.10, 0.10, 0.10));
    run_chaos_cell(Operation::Cholesky, 4, 6, 7, 42, (0.10, 0.10, 0.10, 0.10));
}

/// With faults injected the duplicate/retransmission machinery actually
/// fires (the counters are non-zero), and overhead stays out of goodput.
#[test]
fn fault_counters_fire_and_stay_out_of_goodput() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(5), 6, NB, 3).expect("a valid problem");
    let opts = DexecOptions {
        faults: Some(
            FaultPlan::new(9)
                .with_rates(0.15, 0.15, 0.15)
                .with_backoff(Duration::from_micros(5), Duration::from_micros(200)),
        ),
        watchdog: Duration::from_secs(20),
        ..DexecOptions::default()
    };
    let out = problem.run(&opts).expect("survivable");
    let f = out.report.faults;
    assert!(f.retransmits > 0, "no retransmission fired at 15% loss");
    assert_eq!(f.retransmits, f.dropped + f.corrupt_injected);
    assert!(f.duplicates_injected > 0);
    assert!(
        f.corrupt_rejected > 0,
        "no corrupt frame reached a receiver"
    );
    assert!(
        f.duplicates_rejected >= f.duplicates_injected,
        "every injected duplicate is eventually rejected or drained"
    );
    assert!(f.overhead_bytes > 0);
    assert_eq!(out.report.wire, lu_comm_volume(&problem.assignment));
}

/// A link that drops everything: the sender exhausts its attempt budget
/// and the run ends in a typed error, quickly, instead of hanging.
#[test]
fn total_loss_on_one_link_fails_typed_not_hanging() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(3), 5, NB, 1).expect("a valid problem");
    let opts = DexecOptions {
        faults: Some(
            FaultPlan::new(11)
                .with_link_drop(0, 1, 1.0)
                .with_max_attempts(4)
                .with_backoff(Duration::from_micros(5), Duration::from_micros(50)),
        ),
        watchdog: Duration::from_millis(400),
        ..DexecOptions::default()
    };
    let start = std::time::Instant::now();
    let err = unwrap_err(
        problem.run(&opts),
        "an always-dropping link cannot be survived",
    );
    assert!(
        matches!(
            err,
            NetError::RetryExhausted { from: 0, to: 1, .. } | NetError::Stalled { .. }
        ),
        "unexpected failure mode: {err}"
    );
    if let NetError::RetryExhausted { attempts, .. } = err {
        assert_eq!(attempts, 4, "budget from the plan, reported in the error");
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "typed failure must beat the watchdog by a wide margin"
    );
}

/// A scheduled rank crash: the victim exits with `RankCrashed` (which
/// outranks the stalls it causes on its peers), and everything
/// terminates within the watchdog budget.
#[test]
fn scheduled_crash_surfaces_as_rank_crashed() {
    let problem =
        Problem::new(Operation::Cholesky, &g2dbc::g2dbc(4), 4, NB, 2).expect("a valid problem");
    let opts = DexecOptions {
        faults: Some(
            FaultPlan::new(1)
                .with_crash(0, 0)
                .expect("one crash")
                .with_max_attempts(3)
                .with_backoff(Duration::from_micros(5), Duration::from_micros(50)),
        ),
        watchdog: Duration::from_millis(400),
        ..DexecOptions::default()
    };
    let start = std::time::Instant::now();
    let err = unwrap_err(problem.run(&opts), "rank 0 is dead before its first task");
    assert_eq!(err, NetError::RankCrashed { rank: 0, epoch: 0 });
    assert!(start.elapsed() < Duration::from_secs(10));
}

/// The watchdog names exactly what a starved rank was waiting for.
#[test]
fn stall_error_names_the_missing_replicas() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(2), 3, NB, 5).expect("a valid problem");
    // Both directions of the only pair drop everything, but give rank 1
    // an attempt budget so tiny its sender fails before the receiver
    // stalls — rank 0's stall is then the surviving diagnostic.
    let opts = DexecOptions {
        faults: Some(
            FaultPlan::new(2)
                .with_drop(1.0)
                .with_max_attempts(1)
                .with_backoff(Duration::from_micros(1), Duration::from_micros(2)),
        ),
        watchdog: Duration::from_millis(300),
        ..DexecOptions::default()
    };
    let err = unwrap_err(problem.run(&opts), "nothing can cross a fully lossy fabric");
    match err {
        NetError::RetryExhausted { attempts: 1, .. } => {}
        NetError::Stalled { waiting_on, .. } => {
            assert!(!waiting_on.is_empty(), "a stall must name its blockers");
        }
        other => panic!("unexpected failure mode: {other}"),
    }
}
