//! Crash-recovery acceptance suite: the exhaustive crash-point matrix.
//!
//! The recovery claim is strong — kill any rank at any iteration, or a
//! whole cascade of up to three ranks at distinct points, with or
//! without drop/duplicate/corrupt/delay noise on every link — and the
//! survivors finish the factorization **bitwise identical** to the
//! crash-free run, with deduped goodput exactly equal to the composed
//! spliced closed-form volume. This suite proves it by brute force on a
//! dense small core (every rank × every crash epoch × both operations),
//! by a cascade matrix over P ∈ {4, 5, 7} × {G-2DBC, GCR&M, SBC} ×
//! k ∈ {1, 2, 3} (clean and noisy), and by property-based sampling over
//! the full P ∈ [3, 12] space on top:
//!
//! * the recovered factorization equals the crash-free distributed run
//!   and the shared-memory executor bit for bit;
//! * `NetReport.wire` equals `RecoverPlan::expected` — the spliced
//!   closed-form volume from `flexdist_dist::splice`, composed across
//!   the whole cascade — and the `Recovered` counters equal
//!   `RecoverPlan::recovered` exactly, retransmit overhead floating
//!   freely on top when noise is armed;
//! * a triangular solve through the recovered factors still solves the
//!   original system;
//! * a crash point past the dead rank's last task is a no-op: the run
//!   completes under the original schedule with zero recovered sends.
//!
//! The watchdog-interplay pair pins the recovery grace budget: a rank
//! whose schedule re-derivation (modeled by `splice_delay`) overruns
//! one watchdog interval completes instead of `Stalled`; past the grace
//! budget it still fails typed.
//!
//! A golden fixture pins one recovered P=5 LU run (spliced traffic,
//! recovered counters, result digest) against future regressions:
//! `GOLDEN_REGEN=1 cargo test -p flexdist-factor --test recovery -- --ignored`

use flexdist_core::{g2dbc, gcrm, sbc, Pattern};
use flexdist_dist::TileAssignment;
use flexdist_factor::net::{FaultPlan, FullMesh, NetError};
use flexdist_factor::solve::random_block_vector;
use flexdist_factor::{
    build_graph, cholesky_solve, derive_recovery, execute, execute_distributed_with, lu_solve,
    solve_residual, DexecOptions, Operation, RecoverPlan, TaskList,
};
use flexdist_json::Value;
use flexdist_kernels::{KernelCostModel, TiledMatrix};
use proptest::prelude::*;
use std::time::Duration;

const NB: usize = 4;

fn graph_for(op: Operation, a: &TileAssignment) -> TaskList {
    build_graph(op, a, &KernelCostModel::uniform(NB, 30.0))
}

/// The plan of the one-crash chain `dead@epoch`.
fn single_crash_plan(tl: &TaskList, a: &TileAssignment, dead: u32, epoch: u32) -> RecoverPlan {
    let crash = FaultPlan::new(0)
        .with_crash(dead, epoch)
        .expect("one crash");
    let mut plans = derive_recovery(tl, a, Some(&crash), &FullMesh).expect("derives");
    assert_eq!(plans.len(), 1);
    plans.remove(0)
}

fn scheme_for(idx: u8, p: u32) -> (String, Pattern) {
    match idx % 3 {
        0 => (format!("g2dbc(p{p})"), g2dbc::g2dbc(p)),
        1 => {
            let res = gcrm::search(
                p,
                &gcrm::GcrmConfig {
                    n_seeds: 3,
                    ..Default::default()
                },
            )
            .unwrap_or_else(|e| panic!("GCR&M covers P={p}: {e}"));
            (format!("gcrm(p{p})"), res.best)
        }
        _ => {
            let q = sbc::largest_admissible_at_most(p).expect("some admissible count <= p");
            (
                format!("sbc(p{q}<=p{p})"),
                sbc::sbc_extended(q).expect("admissible by construction"),
            )
        }
    }
}

/// Run one cell of the crash matrix — a whole cascade, optionally under
/// ≤10% drop/duplicate/corrupt/delay noise — and check every recovery
/// invariant against the crash-free run.
fn check_cascade_cell(
    op: Operation,
    name: &str,
    a: &TileAssignment,
    t: usize,
    crashes: &[(u32, u32)],
    noise: bool,
) {
    let ctx = || format!("{} {name} crashes={crashes:?} noise={noise}", op.name());
    let tl = graph_for(op, a);
    let a0 = op.input(t, NB, 11 + u64::from(crashes[0].0));

    // The crash-free baseline (also validates the cell itself).
    let base = execute_distributed_with(&tl, a, &a0, &DexecOptions::default())
        .unwrap_or_else(|e| panic!("{}: baseline: {e}", ctx()));
    assert!(base.report.error.is_none(), "{}: baseline kernel", ctx());
    let (baseline, base_report) = (base.matrix, base.report);

    let mut fp = FaultPlan::new(5);
    for &(d, e) in crashes {
        fp = fp.with_crash(d, e).expect("distinct crash ranks");
    }
    if noise {
        fp = fp
            .with_drop(0.05)
            .with_duplicate(0.04)
            .with_corrupt(0.03)
            .with_delay(0.05);
    }

    // The composed closed-form spliced volumes this run must hit
    // exactly — noise only adds overhead, never goodput.
    let plans =
        derive_recovery(&tl, a, Some(&fp), &FullMesh).unwrap_or_else(|e| panic!("{}: {e}", ctx()));
    let last = plans.last().unwrap_or_else(|| panic!("{}: no plan", ctx()));
    let any_active = plans.iter().any(|rp| rp.active);

    let opts = DexecOptions {
        faults: Some(fp),
        recover: true,
        watchdog: Duration::from_secs(20),
        ..DexecOptions::default()
    };
    let out = execute_distributed_with(&tl, a, &a0, &opts)
        .unwrap_or_else(|e| panic!("{}: recovering run failed: {e}", ctx()));
    assert!(out.report.error.is_none(), "{}: kernel error", ctx());

    // Bitwise identity: crash-free distributed run and shared executor.
    assert_eq!(
        out.matrix.diff_norm(&baseline),
        0.0,
        "{}: recovered result differs bitwise from the crash-free run",
        ctx()
    );
    let (shared, rep) = execute(&tl, a0.clone(), 2);
    assert!(rep.error.is_none());
    assert_eq!(
        out.matrix.diff_norm(&shared),
        0.0,
        "{}: recovered result differs bitwise from the shared executor",
        ctx()
    );

    // Goodput == spliced closed-form volume, per class; recovered
    // counters == the recovery-only share.
    assert_eq!(
        out.report.wire,
        last.expected,
        "{}: goodput diverged from the composed spliced volume",
        ctx()
    );
    assert_eq!(
        out.report.recovered_msgs,
        last.recovered.total(),
        "{}: recovered counter diverged from the spliced recovery share",
        ctx()
    );
    if !any_active {
        assert_eq!(
            out.report.recovered_msgs,
            0,
            "{}: no-op recovery sent",
            ctx()
        );
        assert_eq!(out.report.wire, base_report.wire, "{}", ctx());
    } else {
        assert!(
            out.report.recovered_bytes >= out.report.recovered_msgs,
            "{}: recovered bytes must cover recovered messages",
            ctx()
        );
    }

    // The recovered factorization still solves the system.
    let b = random_block_vector(t, NB, 0x5eed ^ u64::from(crashes[0].1));
    let x = match op {
        Operation::Lu => lu_solve(&out.matrix, &b),
        _ => cholesky_solve(&out.matrix, &b),
    };
    let res = solve_residual(&a0, &x, &b);
    assert!(res < 1e-10, "{}: solve residual {res}", ctx());
}

/// Single-crash cell of the matrix (the k = 1 column).
fn check_recovery_cell(
    op: Operation,
    name: &str,
    a: &TileAssignment,
    t: usize,
    dead: u32,
    epoch: u32,
) {
    check_cascade_cell(op, name, a, t, &[(dead, epoch)], false);
}

/// Dense core: every rank × every crash epoch (including one past the
/// end — the no-op recovery), both operations, P ∈ {3, 4}.
#[test]
fn every_crash_point_recovers_bitwise_dense_core() {
    const T: usize = 5;
    for op in [Operation::Lu, Operation::Cholesky] {
        for p in [3u32, 4] {
            let (name, pat) = scheme_for(0, p);
            let a = TileAssignment::extended(&pat, T);
            for dead in 0..a.n_nodes() {
                for epoch in 0..=T as u32 {
                    check_recovery_cell(op, &name, &a, T, dead, epoch);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Sampled upper layer of the matrix: any P in [3, 12], any scheme,
    /// any crash point.
    #[test]
    fn sampled_crash_points_recover_bitwise(
        p in 3u32..=12,
        scheme in 0u8..3,
        lu in 0u8..2,
        dead_pick in 0u32..12,
        epoch in 0u32..=5,
    ) {
        const T: usize = 5;
        let op = if lu == 0 { Operation::Lu } else { Operation::Cholesky };
        let (name, pat) = scheme_for(scheme, p);
        let a = TileAssignment::extended(&pat, T);
        let dead = dead_pick % a.n_nodes();
        check_recovery_cell(op, &name, &a, T, dead, epoch);
    }
}

// ---------------------------------------------------------------------------
// Watchdog / recovery interplay: the grace budget.
// ---------------------------------------------------------------------------

fn grace_setup() -> (TaskList, TileAssignment, TiledMatrix, u32, u32) {
    const T: usize = 5;
    let a = TileAssignment::extended(&g2dbc::g2dbc(5), T);
    let tl = graph_for(Operation::Lu, &a);
    let a0 = Operation::Lu.input(T, NB, 3);
    let dead = a.owner(T - 1, T - 1);
    // Delay the epoch-0 panel owner (everyone waits on its first
    // broadcast), or the next rank if the casualty owns it.
    let mut slow = a.owner(0, 0);
    if slow == dead {
        slow = (slow + 1) % a.n_nodes();
    }
    (tl, a, a0, dead, slow)
}

/// A survivor whose schedule re-derivation overruns one watchdog
/// interval (350 ms against a 250 ms deadline) completes under the
/// recovery grace budget instead of dying `Stalled` — and all the
/// bitwise/goodput invariants still hold.
#[test]
fn slow_splice_within_grace_completes() {
    let (tl, a, a0, dead, slow) = grace_setup();
    let rp = single_crash_plan(&tl, &a, dead, 2);
    assert!(rp.active, "crash point must remove real work");
    let opts = DexecOptions {
        faults: Some(FaultPlan::new(5).with_crash(dead, 2).expect("one crash")),
        recover: true,
        watchdog: Duration::from_millis(250),
        splice_delay: Some((slow, Duration::from_millis(350))),
        ..DexecOptions::default()
    };
    let out = execute_distributed_with(&tl, &a, &a0, &opts)
        .unwrap_or_else(|e| panic!("grace budget must absorb one overrun: {e}"));
    assert!(out.report.error.is_none());
    assert_eq!(out.report.wire, rp.expected);
    let (shared, rep) = execute(&tl, a0, 2);
    assert!(rep.error.is_none());
    assert_eq!(
        out.matrix.diff_norm(&shared),
        0.0,
        "slow splice changed bits"
    );
}

/// Past the grace budget (350 ms against a 150 ms deadline — two full
/// intervals expire first) the run still fails typed as `Stalled`, not
/// by hanging.
#[test]
fn slow_splice_past_grace_stalls_typed() {
    let (tl, a, a0, dead, slow) = grace_setup();
    let opts = DexecOptions {
        faults: Some(FaultPlan::new(5).with_crash(dead, 2).expect("one crash")),
        recover: true,
        watchdog: Duration::from_millis(150),
        splice_delay: Some((slow, Duration::from_millis(350))),
        ..DexecOptions::default()
    };
    let start = std::time::Instant::now();
    let err = match execute_distributed_with(&tl, &a, &a0, &opts) {
        Ok(_) => panic!("two expired watchdog intervals must outrank the grace budget"),
        Err(e) => e,
    };
    // The first typed failure is either the stalled rank itself or a
    // peer that exhausted its retries into the stalled rank's closed
    // inbox — both are acceptable; hanging is not.
    assert!(
        matches!(
            err,
            NetError::Stalled { .. } | NetError::RetryExhausted { .. }
        ),
        "unexpected failure mode: {err}"
    );
    assert!(start.elapsed() < Duration::from_secs(10), "must not hang");
}

// ---------------------------------------------------------------------------
// Cascades (k > 1), noisy recovery, and the crash matrix.
// ---------------------------------------------------------------------------

/// The former `DoubleCrash` refusal path is gone: two crashes at
/// distinct epochs compose into a P -> P-2 cascade that recovers
/// bitwise with the composed spliced goodput.
#[test]
fn double_crash_recovers_bitwise() {
    const T: usize = 5;
    let a = TileAssignment::extended(&g2dbc::g2dbc(4), T);
    check_cascade_cell(Operation::Lu, "g2dbc(4)", &a, T, &[(0, 1), (2, 3)], false);
}

/// The former noise refusal path is gone: a crash under drop /
/// duplicate / corrupt / delay noise still recovers bitwise, with
/// goodput pinned to the spliced closed form while retransmits float.
#[test]
fn noisy_recovery_is_bitwise_with_spliced_goodput() {
    const T: usize = 5;
    let a = TileAssignment::extended(&g2dbc::g2dbc(4), T);
    check_cascade_cell(Operation::Lu, "g2dbc(4)", &a, T, &[(0, 1)], true);
}

/// Scheduling the same rank to die twice is the one crash-plan shape
/// that stays a typed refusal — now at plan construction time.
#[test]
fn same_rank_twice_is_a_typed_duplicate_crash() {
    let err = match FaultPlan::new(1).with_crash(3, 2).unwrap().with_crash(3, 5) {
        Ok(_) => panic!("a rank dies exactly once"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            NetError::DuplicateCrash {
                rank: 3,
                first_epoch: 2,
                second_epoch: 5
            }
        ),
        "got {err}"
    );
    assert!(err.to_string().contains("crash twice"));
}

/// The cascade matrix: P in {4, 5, 7} x LU/Cholesky x all three
/// any-P schemes x k in {1, 2, 3} sampled ordered epoch tuples,
/// bitwise-identical to crash-free with composed spliced goodput.
/// Same-epoch ties (rank order breaks them) are covered at k = 2.
#[test]
fn cascade_matrix_recovers_bitwise() {
    const T: usize = 7;
    let cascades: [&[(u32, u32)]; 4] = [
        &[(1, 2)],
        &[(0, 1), (2, 3)],
        &[(1, 2), (3, 2)],
        &[(0, 1), (2, 2), (3, 4)],
    ];
    for p in [4u32, 5, 7] {
        for op in [Operation::Lu, Operation::Cholesky] {
            for scheme in 0..3u8 {
                let (name, pat) = scheme_for(scheme, p);
                let a = TileAssignment::extended(&pat, T);
                for crashes in cascades {
                    if crashes.iter().any(|&(d, _)| d >= a.n_nodes()) {
                        continue;
                    }
                    check_cascade_cell(op, &name, &a, T, crashes, false);
                }
            }
        }
    }
}

/// A noisy sample of the cascade matrix: every k under 5% drop + 4%
/// duplicate + 3% corrupt + 5% delay noise.
#[test]
fn noisy_cascade_sample_recovers_bitwise() {
    const T: usize = 6;
    let cascades: [&[(u32, u32)]; 3] = [&[(2, 1)], &[(0, 1), (3, 3)], &[(0, 1), (1, 2), (4, 4)]];
    for op in [Operation::Lu, Operation::Cholesky] {
        let (name, pat) = scheme_for(op as u8, 5);
        let a = TileAssignment::extended(&pat, T);
        for crashes in cascades {
            check_cascade_cell(op, &name, &a, T, crashes, true);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden fixture: one pinned recovered P=5 LU run.
// ---------------------------------------------------------------------------

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_recovery.json"
);

/// FNV-1a over the result's f64 bit patterns.
fn result_digest(m: &TiledMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..m.tiles() {
        for j in 0..m.tiles() {
            for &x in m.tile(i, j).as_slice() {
                for byte in x.to_bits().to_le_bytes() {
                    h ^= u64::from(byte);
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    h
}

fn golden_recovery_run() -> Value {
    const T: usize = 6;
    let a = TileAssignment::extended(&g2dbc::g2dbc(5), T);
    let tl = graph_for(Operation::Lu, &a);
    let a0 = Operation::Lu.input(T, NB, 7);
    let (dead, epoch) = (1u32, 2u32);
    let rp = single_crash_plan(&tl, &a, dead, epoch);
    assert!(rp.active, "golden crash point must be active");
    let opts = DexecOptions {
        faults: Some(
            FaultPlan::new(7)
                .with_crash(dead, epoch)
                .expect("one crash"),
        ),
        recover: true,
        watchdog: Duration::from_secs(20),
        ..DexecOptions::default()
    };
    let out = execute_distributed_with(&tl, &a, &a0, &opts).expect("recovers");
    assert!(out.report.error.is_none());
    assert_eq!(out.report.wire, rp.expected);
    assert_eq!(out.report.recovered_msgs, rp.recovered.total());
    let per_rank = out
        .report
        .per_rank
        .iter()
        .map(|r| {
            flexdist_json::object(vec![
                ("rank", Value::from(r.rank)),
                ("tasks", Value::from(r.tasks)),
                ("sent_msgs", Value::from(r.sent_msgs)),
                ("sent_bytes", Value::from(r.sent_bytes)),
                ("recv_msgs", Value::from(r.recv_msgs)),
                ("recv_bytes", Value::from(r.recv_bytes)),
                ("recovered_msgs", Value::from(r.recovered_msgs)),
                ("recovered_bytes", Value::from(r.recovered_bytes)),
            ])
        })
        .collect();
    flexdist_json::object(vec![
        ("name", Value::from("lu_g2dbc_p5_t6_nb4_crash_r1e2_seed7")),
        ("dead", Value::from(dead)),
        ("epoch", Value::from(epoch)),
        ("panel", Value::from(out.report.wire.panel)),
        ("trailing", Value::from(out.report.wire.trailing)),
        ("recovered_panel", Value::from(rp.recovered.panel)),
        ("recovered_trailing", Value::from(rp.recovered.trailing)),
        ("recovered_msgs", Value::from(out.report.recovered_msgs)),
        ("recovered_bytes", Value::from(out.report.recovered_bytes)),
        ("bytes", Value::from(out.report.bytes)),
        ("tasks", Value::from(out.report.tasks)),
        ("result_digest", Value::from(result_digest(&out.matrix))),
        ("per_rank", Value::Array(per_rank)),
    ])
}

#[test]
fn golden_recovery_matches_fixture_bitwise() {
    let text = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing; regenerate with GOLDEN_REGEN=1 (see module docs)");
    let doc = flexdist_json::parse(&text).expect("fixture parses");
    let golden = doc.get("run").expect("fixture has run");
    assert_eq!(
        golden,
        &golden_recovery_run(),
        "recovered P=5 LU run diverged from golden fixture"
    );
}

#[test]
#[ignore = "writes the fixture; run with GOLDEN_REGEN=1 to regenerate"]
fn regenerate_fixture() {
    if std::env::var("GOLDEN_REGEN").is_err() {
        eprintln!("GOLDEN_REGEN not set; refusing to overwrite the fixture");
        return;
    }
    let doc = flexdist_json::object(vec![
        (
            "comment",
            Value::from("bitwise crash-recovery fixture; see tests/recovery.rs"),
        ),
        ("run", golden_recovery_run()),
    ]);
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, doc.to_pretty()).unwrap();
    eprintln!("wrote {FIXTURE}");
}
