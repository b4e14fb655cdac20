//! End-to-end tests of the multi-process launcher: `flexdist dexec
//! --backend uds|tcp` must fork one OS process per rank (each running
//! the hidden `_rank` subcommand over the socket fabric), collect the
//! rank outcomes over the stdout control channel, and hold the merged
//! result to bitwise identity with the in-process executor. These run
//! the real binary — `std::env::current_exe` inside a unit test would
//! point at the test harness, not at `flexdist`.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn flexdist(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_flexdist"))
        .args(args)
        .output()
        .expect("spawn flexdist")
}

#[test]
fn dexec_over_uds_forks_ranks_and_matches_in_process() {
    let out = flexdist(&[
        "dexec",
        "--op",
        "lu",
        "--p",
        "5",
        "--t",
        "6",
        "--nb",
        "4",
        "--backend",
        "uds",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("conformance     ok"), "{text}");
    assert!(
        text.contains("backend         uds: 5 rank processes, bitwise == in-process"),
        "{text}"
    );
}

#[test]
fn dexec_over_tcp_shares_the_launcher_path() {
    let out = flexdist(&[
        "dexec",
        "--op",
        "chol",
        "--p",
        "4",
        "--t",
        "6",
        "--nb",
        "4",
        "--scheme",
        "2dbc",
        "--backend",
        "tcp",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        text.contains("backend         tcp: 4 rank processes, bitwise == in-process"),
        "{text}"
    );
}

#[test]
fn chaos_over_uds_keeps_all_guarantees() {
    let out = flexdist(&[
        "chaos",
        "--op",
        "lu",
        "--p",
        "5",
        "--t",
        "5",
        "--nb",
        "4",
        "--seeds",
        "2",
        "--rates",
        "0.05",
        "--backend",
        "uds",
    ]);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {text}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("(uds backend)"), "{text}");
    assert!(text.contains("all 2 cell(s)"), "{text}");
    assert!(text.contains("reports replay"), "{text}");
}

#[test]
fn unknown_backend_is_rejected() {
    let out = flexdist(&[
        "dexec",
        "--op",
        "lu",
        "--p",
        "4",
        "--backend",
        "carrier-pigeon",
    ]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown backend"), "{err}");
}

/// A two-rank LU spec for driving `_rank` directly.
fn two_rank_spec(watchdog_ms: u64) -> String {
    let spec = flexdist_cli::mp::RunSpec {
        op: flexdist_factor::Operation::Lu,
        pattern: flexdist_core::g2dbc::g2dbc(2),
        t: 4,
        nb: 4,
        seed: 42,
        crashes: Vec::new(),
        noise_rate: 0.0,
        recover: false,
        watchdog_ms,
    };
    spec.to_json().to_string()
}

/// One `_rank` process: its seat on argv, the spec on stdin.
fn spawn_rank(rank: &str, dir: &std::path::Path, spec: &str) -> std::process::Child {
    let mut child = Command::new(env!("CARGO_BIN_EXE_flexdist"))
        .args(["_rank", "--rank", rank, "--sock", "uds", "--dir"])
        .arg(dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn _rank");
    let mut stdin = child.stdin.take().expect("piped stdin");
    stdin.write_all(spec.as_bytes()).expect("write the spec");
    child
}

fn fabric_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fxmp{tag}{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fabric dir");
    dir
}

/// The watchdog travels in the spec document like every other run
/// parameter; the parent used never to forward it, so every child ran
/// with a 30 s default whatever `--watchdog` said. Rank 0 of a two-rank
/// run faces a peer that listens but never speaks: it must give up after
/// the spec's 50 ms, not after 30 s.
#[test]
fn rank_worker_honours_the_watchdog_of_its_spec() {
    let dir = fabric_dir("wd");
    let mute_peer = std::os::unix::net::UnixListener::bind(dir.join("r1.sock")).expect("bind");
    let started = std::time::Instant::now();
    let out = spawn_rank("0", &dir, &two_rank_spec(50))
        .wait_with_output()
        .expect("rank 0");
    drop(mute_peer);
    let _ = std::fs::remove_dir_all(&dir);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("rank 0 stalled waiting on"), "{err}");
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "{err}"
    );
}

#[test]
fn rank_worker_emits_one_parseable_outcome_document() {
    // Drive the hidden subcommand directly for a 2-rank run and check
    // the control documents are valid JSON of the declared kind.
    let dir = fabric_dir("ok");
    let spec = two_rank_spec(30_000);
    let ranks = [spawn_rank("0", &dir, &spec), spawn_rank("1", &dir, &spec)];
    let outs = ranks.map(|rank| rank.wait_with_output().expect("rank exits"));
    let _ = std::fs::remove_dir_all(&dir);
    for (rank, out) in outs.iter().enumerate() {
        assert!(
            out.status.success(),
            "rank {rank} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let doc = flexdist_json::parse(&String::from_utf8_lossy(&out.stdout))
            .unwrap_or_else(|e| panic!("rank {rank} control document: {e}"));
        assert_eq!(
            doc.get("kind").and_then(flexdist_json::Value::as_str),
            Some("rank-outcome")
        );
        assert_eq!(
            doc.get("rank").and_then(flexdist_json::Value::as_u64),
            Some(rank as u64)
        );
        assert!(!doc.get("tiles").unwrap().as_array().unwrap().is_empty());
    }
}

#[test]
fn rank_worker_requires_its_fabric_dir() {
    let out = flexdist(&["_rank", "--rank", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--dir"), "{err}");
}

#[test]
fn rank_worker_refuses_an_empty_stdin_with_a_typed_error() {
    // `Command::output` hands the child an empty stdin: no document.
    let out = flexdist(&["_rank", "--rank", "0", "--dir", "/nonexistent"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("_rank: run-spec:"), "{err}");
}
