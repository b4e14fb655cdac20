//! Socket-backend differential suite: the **backend-identity**
//! invariant of the transport seam.
//!
//! All protocol logic — ownership gates, goodput/overhead accounting,
//! checksum rejection, retransmission, dedup, fault injection — lives in
//! `Endpoint`, *above* the `Transport` trait. So swapping the in-process
//! channel fabric for real OS sockets (UDS or TCP, length-delimited
//! FXT3 frames reassembled from arbitrary read chunkings) must change
//! **nothing observable**: for every (P, operation, scheme) cell the
//! factorized matrix is bitwise identical, the goodput equals the exact
//! communication-volume counters, and the whole `NetReport` — per-rank
//! and per-link counters included — matches the channel backend's.
//!
//! The fault cells push the same invariant through the reliability
//! layer: at a 5 % drop/corrupt/duplicate/delay rate the run must
//! complete over UDS with the identical matrix *and* the identical
//! fault counters as over channels, because frame fates are a pure
//! function of `(seed, from, to, i, j, epoch, attempt)` — never of
//! socket timing.

mod common;

use common::{schemes_for, NODE_COUNTS};
use flexdist_factor::net::{FaultPlan, SocketConfig, SocketKind};
use flexdist_factor::{Backend, DexecOptions, Operation, Problem};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const T: usize = 6;
const NB: usize = 4;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fresh short-pathed fabric directory (UDS paths are length-limited).
fn fabric_dir() -> PathBuf {
    let n = DIR_COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("fxs{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create fabric dir");
    dir
}

fn socket_opts(
    kind: SocketKind,
    dir: &std::path::Path,
    faults: Option<FaultPlan>,
) -> DexecOptions<'static> {
    let cfg = match kind {
        SocketKind::Uds => SocketConfig::uds(dir),
        SocketKind::Tcp => SocketConfig::tcp(dir),
    };
    DexecOptions {
        faults,
        backend: Backend::Socket(cfg),
        ..DexecOptions::default()
    }
}

/// Channel run vs. socket run of the identical cell: bitwise matrix,
/// exact-counter goodput, and full report equality.
fn assert_backend_identity(op: Operation, kind: SocketKind) {
    for p in NODE_COUNTS {
        for (name, pat) in schemes_for(p) {
            let cell = format!("{} {name} over {}", op.name(), kind.name());
            let problem =
                Problem::new(op, &pat, T, NB, 0xf00d ^ u64::from(p)).expect("a valid problem");
            let chan = problem
                .run(&DexecOptions::default())
                .unwrap_or_else(|e| panic!("{cell}: channel run: {e}"));
            assert!(chan.report.error.is_none(), "{cell}: kernel error");
            let dir = fabric_dir();
            let sock = problem
                .run(&socket_opts(kind, &dir, None))
                .unwrap_or_else(|e| panic!("{cell}: socket run: {e}"));
            let _ = std::fs::remove_dir_all(&dir);
            assert_eq!(
                sock.matrix.diff_norm(&chan.matrix),
                0.0,
                "{cell}: matrix differs bitwise across backends"
            );
            let exact = problem.volume.expect("LU and Cholesky have a closed form");
            assert_eq!(sock.report.wire, exact, "{cell}: goodput != exact counters");
            assert_eq!(
                sock.report.wire, chan.report.wire,
                "{cell}: wire class split"
            );
            assert_eq!(sock.report.bytes, chan.report.bytes, "{cell}: byte volume");
            assert_eq!(
                sock.report.per_rank, chan.report.per_rank,
                "{cell}: per-rank IO"
            );
            assert_eq!(
                sock.report.links, chan.report.links,
                "{cell}: per-link stats"
            );
            assert_eq!(
                sock.report.faults, chan.report.faults,
                "{cell}: fault counters"
            );
        }
    }
}

#[test]
fn lu_uds_backend_is_bitwise_identical_and_conformant() {
    assert_backend_identity(Operation::Lu, SocketKind::Uds);
}

#[test]
fn cholesky_uds_backend_is_bitwise_identical_and_conformant() {
    assert_backend_identity(Operation::Cholesky, SocketKind::Uds);
}

#[test]
fn lu_tcp_backend_is_bitwise_identical_and_conformant() {
    assert_backend_identity(Operation::Lu, SocketKind::Tcp);
}

#[test]
fn cholesky_tcp_backend_shares_the_code_path() {
    // TCP differs from UDS only in dial/accept plumbing; one Cholesky
    // pass over the full node-count matrix keeps it honest without
    // doubling the suite's socket churn.
    assert_backend_identity(Operation::Cholesky, SocketKind::Tcp);
}

/// The reliability layer runs unchanged over sockets: 5 % faults on
/// every link, same seed ⇒ same matrix, same goodput, same fault
/// counters as the channel backend.
#[test]
fn chaos_over_uds_matches_channel_backend_exactly() {
    const RATE: f64 = 0.05;
    for op in [Operation::Lu, Operation::Cholesky] {
        for p in NODE_COUNTS {
            for (name, pat) in schemes_for(p) {
                let cell = format!("chaos {} {name}", op.name());
                let problem =
                    Problem::new(op, &pat, T, NB, 0xbead ^ u64::from(p)).expect("a valid problem");
                let plan = FaultPlan::new(0xc0ffee ^ u64::from(p))
                    .with_rates(RATE, RATE, RATE)
                    .with_delay(RATE);
                let chan = problem
                    .run(&DexecOptions {
                        faults: Some(plan.clone()),
                        ..DexecOptions::default()
                    })
                    .unwrap_or_else(|e| panic!("{cell}: channel run: {e}"));
                let dir = fabric_dir();
                let sock = problem
                    .run(&socket_opts(SocketKind::Uds, &dir, Some(plan)))
                    .unwrap_or_else(|e| panic!("{cell}: UDS run: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                assert!(sock.report.error.is_none(), "{cell}: kernel error");
                assert_eq!(
                    sock.matrix.diff_norm(&chan.matrix),
                    0.0,
                    "{cell}: matrix differs bitwise under faults"
                );
                let exact = problem.volume.expect("LU and Cholesky have a closed form");
                assert_eq!(sock.report.wire, exact, "{cell}: goodput != exact counters");
                assert_eq!(
                    sock.report.faults, chan.report.faults,
                    "{cell}: fault counters diverge across backends"
                );
                assert_eq!(
                    sock.report.per_rank, chan.report.per_rank,
                    "{cell}: per-rank IO"
                );
                assert_eq!(
                    sock.report.links, chan.report.links,
                    "{cell}: per-link stats"
                );
            }
        }
    }
}
