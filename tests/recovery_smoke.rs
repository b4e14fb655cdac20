//! Tier-1 cross-layer smoke of the distributed stack: the rank executor,
//! the recovery derivation and the static protocol verifier on one small
//! problem (P = 5, t = 6, nb = 8), LU and Cholesky, for crash chains of
//! length 0, 1 and 2, over the in-process channel fabric and over
//! Unix-domain sockets (one thread per rank, real byte streams).
//! Crash-free is the k = 0 chain, so all three go through the same three
//! calls: `execute_distributed_with`, `derive_recovery`,
//! `check_protocol`. Every run must be bitwise identical to the
//! shared-memory `execute_with`, its goodput must equal the composed
//! closed-form volume, and its protocol report must be clean. The
//! per-crate suites hold the exhaustive matrices; this keeps `cargo test
//! -q` at the root from never running a recovered factorization, or a
//! socket, at all.

use flexdist::core::{g2dbc, gcrm};
use flexdist::factor::{
    derive_recovery, execute_distributed_with, execute_with, Backend, DexecOptions, ExecOptions,
    Operation, Problem,
};
use flexdist::net::{FaultPlan, FullMesh, SocketConfig};
use flexdist_verify::check_protocol;

const P: u32 = 5;
const T: usize = 6;
const NB: usize = 8;

fn fault_plan(crashes: &[(u32, u32)]) -> FaultPlan {
    crashes.iter().fold(FaultPlan::new(7), |plan, &(d, e)| {
        plan.with_crash(d, e).expect("distinct crash ranks")
    })
}

/// A fabric directory private to one (op, chain) cell.
fn fabric_dir(cell: &str) -> std::path::PathBuf {
    let tag: String = cell.chars().filter(char::is_ascii_alphanumeric).collect();
    let dir = std::env::temp_dir().join(format!("fxsmoke{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fabric dir");
    dir
}

fn check_chains(problem: &Problem) {
    let (op, a, tl, a0) = (
        problem.tl.operation,
        &problem.assignment,
        &problem.tl,
        &problem.input,
    );
    let (reference, shm, _) = execute_with(tl, a0.clone(), ExecOptions::new(2));
    assert!(shm.error.is_none(), "{}: {:?}", op.name(), shm.error);
    let crash_free = problem.volume.expect("LU and Cholesky have a closed form");

    // The final diagonal tile's owner works at every iteration, so its
    // crash always re-maps; the second casualty is its heir.
    let dead = a.owner(T - 1, T - 1);
    let first = derive_recovery(tl, a, Some(&fault_plan(&[(dead, 1)])), &FullMesh)
        .expect("one crash derives");
    let heir = first[0].remapped.owner(T - 1, T - 1);
    let chains: [&[(u32, u32)]; 3] = [&[], &[(dead, 2)], &[(dead, 1), (heir, 3)]];

    for crashes in chains {
        let chain = format!("{} crashes {crashes:?}", op.name());
        let faults = fault_plan(crashes);
        let plans = derive_recovery(tl, a, Some(&faults), &FullMesh)
            .unwrap_or_else(|e| panic!("{chain}: {e}"));
        assert_eq!(plans.len(), crashes.len(), "{chain}: one plan per crash");
        assert!(
            plans.iter().all(|rp| rp.active),
            "{chain}: every crash re-maps"
        );
        let (expected, recovered) = plans
            .last()
            .map_or((crash_free, 0), |rp| (rp.expected, rp.recovered.total()));

        let dir = fabric_dir(&chain);
        let backends = [
            ("channel", Backend::Channel),
            ("uds", Backend::Socket(SocketConfig::uds(&dir))),
        ];
        for (name, backend) in backends {
            let cell = format!("{chain} over {name}");
            let opts = DexecOptions {
                faults: Some(faults.clone()),
                recover: true,
                backend,
                ..DexecOptions::default()
            };
            let out = execute_distributed_with(tl, a, a0, &opts)
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert!(out.report.error.is_none(), "{cell}: kernel error");
            assert_eq!(
                out.matrix.diff_norm(&reference),
                0.0,
                "{cell}: not bitwise identical to execute_with"
            );
            assert_eq!(out.report.wire, expected, "{cell}: goodput != closed form");
            assert_eq!(out.report.recovered_msgs, recovered, "{cell}");
            assert_eq!(recovered > 0, !crashes.is_empty(), "{cell}");
        }
        let _ = std::fs::remove_dir_all(&dir);

        let proto = check_protocol(tl, a, crashes, None).unwrap_or_else(|e| panic!("{chain}: {e}"));
        assert!(proto.is_clean(), "{chain}:\n{}", proto.to_text());
        assert_eq!(proto.n_deliveries, expected.total(), "{chain}");
    }
}

#[test]
fn lu_chains_of_length_0_1_2_recover_bitwise_at_the_closed_form_volume() {
    let problem = Problem::new(Operation::Lu, &g2dbc::g2dbc(P), T, NB, 11);
    check_chains(&problem.expect("a valid problem"));
}

#[test]
fn cholesky_chains_of_length_0_1_2_recover_bitwise_at_the_closed_form_volume() {
    let config = gcrm::GcrmConfig {
        n_seeds: 3,
        ..Default::default()
    };
    let pattern = gcrm::search(P, &config).expect("GCR&M covers any P").best;
    let problem = Problem::new(Operation::Cholesky, &pattern, T, NB, 13);
    check_chains(&problem.expect("a valid problem"));
}
