//! The conformance judge is not vacuous: starting from one real
//! recovered run (LU, G-2DBC, P = 5, t = 6, rank 3 dying at epoch 2),
//! breaking any single clause of the contract yields exactly that
//! clause's violation, and the untouched outcome passes. The suites next
//! to this one keep their own spelled-out assertions; this file checks
//! the shared judge against the same facts.

use flexdist_core::{g2dbc, Pattern};
use flexdist_factor::net::FaultPlan;
use flexdist_factor::{Clause, DexecOptions, DexecOutput, Operation, Problem, ProblemError};
use flexdist_kernels::KernelError;

#[test]
fn each_clause_catches_exactly_its_own_breach() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(5), 6, 4, 42).expect("valid");
    let reference = problem.reference().expect("the input factors");
    let faults = FaultPlan::new(42).with_crash(3, 2).expect("one crash");
    let plans = problem.plans(Some(&faults)).expect("plans derive");
    let opts = DexecOptions {
        faults: Some(faults),
        recover: true,
        ..DexecOptions::default()
    };
    let run = problem.run(&opts).expect("the recovered run completes");
    let again = problem.run(&opts).expect("and so does its repeat");
    assert!(run.report.recovered_msgs > 0, "the crash must re-map work");

    // `breach` damages a copy of the repeat; the judge, with or without
    // the first run's report to replay, must answer with exactly `want`.
    let first = Some(&run.report);
    let check = |plans: &[_], replays, want: &[Clause], breach: &dyn Fn(&mut DexecOutput)| {
        let mut out = DexecOutput {
            matrix: again.matrix.clone(),
            report: again.report.clone(),
            trace: None,
            wall_s: again.wall_s,
            phases: again.phases.clone(),
        };
        breach(&mut out);
        let broken = problem.judge(&reference, plans, &out, replays);
        let clauses: Vec<Clause> = broken.iter().map(|v| v.clause).collect();
        assert_eq!(clauses, want, "{broken:?}");
    };
    check(&plans, first, &[], &|_| {});
    check(&plans, first, &[Clause::Bitwise], &|out| {
        let x = &mut out.matrix.tile_mut(4, 2).as_mut_slice()[5];
        *x = f64::from_bits(x.to_bits() ^ (1 << 40));
    });
    check(&plans, None, &[Clause::Goodput], &|out| {
        out.report.wire.panel += 1;
    });
    check(&plans, first, &[Clause::RecoveredSends], &|out| {
        out.report.recovered_msgs -= 1;
    });
    check(&plans, first, &[Clause::KernelStatus], &|out| {
        out.report.error = Some(KernelError::ZeroPivot { index: 3 });
    });
    check(&plans, first, &[Clause::Replay], &|out| {
        out.report.per_rank[2].recv_msgs += 1;
    });
    check(&plans, first, &[Clause::Replay], &|out| {
        out.report.faults.retransmits += 1;
    });
    // The plan list selects the closed form: the recovered outcome held
    // to the crash-free volume breaks both volume clauses.
    let crash_free = [Clause::Goodput, Clause::RecoveredSends];
    check(&[], first, &crash_free, &|_| {});
}

#[test]
fn problem_new_refuses_what_the_layers_beneath_would_panic_on() {
    let g = g2dbc::g2dbc(5);
    let refusal = |op, pattern: &Pattern, t, nb| Problem::new(op, pattern, t, nb, 42).unwrap_err();
    assert_eq!(refusal(Operation::Lu, &g, 0, 4), ProblemError::Zero("t"));
    assert_eq!(refusal(Operation::Lu, &g, 6, 0), ProblemError::Zero("nb"));
    assert_eq!(refusal(Operation::Gemm, &g, 6, 4), ProblemError::TwoInputs);
    // An undefined cell off the diagonal of a non-square pattern.
    let ragged = Pattern::from_rows(2, &[vec![Some(0), None, Some(1)]]);
    let refused = refusal(Operation::Cholesky, &ragged, 6, 4);
    assert!(matches!(refused, ProblemError::Pattern(_)), "{refused}");
    // SYRK factors one seeded input, but no rank executor runs it.
    let syrk = Problem::new(Operation::Syrk, &g, 4, 4, 42).expect("SYRK is a problem");
    assert_eq!(syrk.volume, None);
    assert!(syrk.reference().is_ok());
}
