//! Distributed-vs-shared-memory differential suite.
//!
//! The distributed executor ships tiles over an in-process message
//! fabric, so it could plausibly diverge from the shared-memory
//! executor in three ways: wrong numerics (a stale or missing replica),
//! wrong traffic (a broadcast reaching too many or too few ranks), or
//! scheduling nondeterminism leaking into the floats. This suite pins
//! all three down across node counts, operations and distribution
//! schemes:
//!
//! * the distributed result must be **bitwise identical** to the
//!   shared-memory executor at 1, 2 and 8 workers (which are themselves
//!   bitwise identical to each other by the executor-determinism suite);
//! * the measured wire traffic must equal the exact communication-volume
//!   counters of `flexdist-dist`, panel and trailing separately;
//! * a triangular solve through the distributed factorization must
//!   recover the solution of the original system.
//!
//! A golden fixture additionally pins one P=7 LU run (traffic counters
//! and a checksum of the result bits) against future regressions:
//! `GOLDEN_REGEN=1 cargo test -p flexdist-factor --test distributed_diff -- --ignored`

mod common;

use common::{schemes_for, NODE_COUNTS};
use flexdist_core::{g2dbc, Pattern};
use flexdist_factor::solve::random_block_vector;
use flexdist_factor::{
    cholesky_solve, execute, lu_solve, solve_residual, DexecOptions, DexecOutput, Operation,
    Problem,
};
use flexdist_json::Value;
use flexdist_kernels::TiledMatrix;

const T: usize = 6;
const NB: usize = 4;

fn check_one(op: Operation, name: &str, pat: &Pattern, seed: u64) {
    let problem = Problem::new(op, pat, T, NB, seed).expect("a valid problem");

    let DexecOutput {
        matrix: dist,
        report,
        ..
    } = problem
        .run(&DexecOptions::default())
        .unwrap_or_else(|e| panic!("{} {name}: protocol error {e}", op.name()));
    assert!(
        report.error.is_none(),
        "{} {name}: kernel error {:?}",
        op.name(),
        report.error
    );

    // Wire conformance: measured == exact counters, per class.
    let expected = problem.volume.expect("LU and Cholesky have a closed form");
    assert_eq!(
        report.wire,
        expected,
        "{} {name}: measured wire traffic diverges from exact counters",
        op.name()
    );

    // Bitwise identity against the shared-memory executor at several
    // worker counts.
    for workers in [1, 2, 8] {
        let (shared, rep) = execute(&problem.tl, problem.input.clone(), workers);
        assert!(rep.error.is_none(), "{} {name}: shared error", op.name());
        assert_eq!(
            dist.diff_norm(&shared),
            0.0,
            "{} {name}: distributed result differs bitwise from {workers}-worker executor",
            op.name()
        );
    }

    // The distributed factorization actually solves the system.
    let b = random_block_vector(T, NB, seed ^ 0x5eed);
    let x = match op {
        Operation::Lu => lu_solve(&dist, &b),
        _ => cholesky_solve(&dist, &b),
    };
    let res = solve_residual(&problem.input, &x, &b);
    assert!(res < 1e-10, "{} {name}: solve residual {res}", op.name());
}

#[test]
fn lu_distributed_matches_shared_memory_bitwise() {
    for (k, &p) in NODE_COUNTS.iter().enumerate() {
        for (name, pat) in schemes_for(p) {
            check_one(Operation::Lu, &name, &pat, 40 + k as u64);
        }
    }
}

#[test]
fn cholesky_distributed_matches_shared_memory_bitwise() {
    for (k, &p) in NODE_COUNTS.iter().enumerate() {
        for (name, pat) in schemes_for(p) {
            check_one(Operation::Cholesky, &name, &pat, 70 + k as u64);
        }
    }
}

/// The phase clock is an accounting of wall time: one row per rank, the
/// phases disjoint (their sum never exceeds the run's wall time), decode
/// time where frames were received and only there, no backoff without a
/// fault plan — and it leaves the counted report alone.
#[test]
fn rank_phases_account_for_each_ranks_wall_time() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(7), T, NB, 3).expect("a valid problem");
    let out = problem.run(&DexecOptions::default()).expect("a clean run");
    let again = problem
        .run(&DexecOptions::default())
        .expect("and its repeat");
    assert_eq!(out.report.per_rank, again.report.per_rank);
    assert_eq!(out.phases.len(), out.report.per_rank.len());
    for (phases, io) in out.phases.iter().zip(&out.report.per_rank) {
        let spent: f64 = phases.named().iter().map(|(_, s)| s).sum();
        assert!(phases.named().iter().all(|(_, s)| *s >= 0.0), "{phases:?}");
        assert!(
            spent > 0.0 && spent <= out.wall_s,
            "{phases:?} of {}",
            out.wall_s
        );
        assert_eq!(phases.decode_s > 0.0, io.recv_msgs > 0, "rank {}", io.rank);
        assert_eq!(phases.backoff_s, 0.0);
    }
}

// ---------------------------------------------------------------------------
// Golden fixture: one pinned P=7 LU run.
// ---------------------------------------------------------------------------

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/golden_dexec.json"
);

const GOLDEN_SEED: u64 = 7;

/// FNV-1a over the result's f64 bit patterns: any single-bit change in
/// any entry of the factorization changes the digest.
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

fn golden_run() -> Value {
    let pat = g2dbc::g2dbc(7);
    let problem = Problem::new(Operation::Lu, &pat, T, NB, GOLDEN_SEED).expect("a valid problem");
    let DexecOutput {
        matrix: dist,
        report,
        ..
    } = problem
        .run(&DexecOptions::default())
        .unwrap_or_else(|e| panic!("golden run: protocol error {e}"));
    assert!(report.error.is_none(), "golden run must factorize");
    let per_rank = report
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
            ])
        })
        .collect();
    flexdist_json::object(vec![
        ("name", Value::from("lu_g2dbc_p7_t6_nb4_seed7")),
        ("panel", Value::from(report.wire.panel)),
        ("trailing", Value::from(report.wire.trailing)),
        ("bytes", Value::from(report.bytes)),
        ("tasks", Value::from(report.tasks)),
        ("links", Value::from(report.links.len())),
        ("result_digest", Value::from(result_digest(&dist))),
        ("per_rank", Value::Array(per_rank)),
    ])
}

#[test]
fn golden_dexec_matches_fixture_bitwise() {
    let text = std::fs::read_to_string(FIXTURE)
        .expect("fixture missing; regenerate with GOLDEN_REGEN=1 (see module docs)");
    let doc = flexdist_json::parse(&text).expect("fixture parses");
    let golden = doc.get("run").expect("fixture has run");
    assert_eq!(
        golden,
        &golden_run(),
        "distributed P=7 LU run diverged from golden fixture"
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
            Value::from("bitwise distributed-run fixture; see tests/distributed_diff.rs"),
        ),
        ("run", golden_run()),
    ]);
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, doc.to_pretty()).unwrap();
    eprintln!("wrote {FIXTURE}");
}
