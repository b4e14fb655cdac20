#!/usr/bin/env bash
# Full local gate: format, lints, release build, and the tier-1 test
# suite. Everything runs with --offline — the workspace vendors its few
# dependencies as shims, so no network (or pre-fetched registry) is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo build --offline --workspace --release
run cargo test --offline --workspace -q

# Batch-engine smoke: a tiny schemes x tiles grid through `flexdist sweep`
# must produce one TSV row per grid point.
echo "==> flexdist sweep smoke"
sweep_out="$(./target/release/flexdist sweep --op lu --p 5 --tiles 6,8 --tile 200)"
rows="$(printf '%s\n' "$sweep_out" | grep -c $'\t' || true)"
if [ "$rows" -ne 5 ]; then # header + 2 schemes x 2 tile counts
    printf '%s\n' "$sweep_out"
    echo "sweep smoke failed: expected 5 TSV lines, got $rows" >&2
    exit 1
fi

# Distributed-executor smoke: one LU and one Cholesky run through the
# message-passing fabric. `dexec` itself enforces the wire-conformance
# contract (measured traffic == exact counters), bitwise identity with
# the shared-memory executor, and determinism across repeats — it exits
# non-zero if any of the three fails, so this doubles as a conformance
# gate outside the unit-test process.
echo "==> flexdist dexec smoke"
run ./target/release/flexdist dexec --op lu --p 5 --t 6 --nb 8
run ./target/release/flexdist dexec --op chol --p 4 --t 6 --nb 8

# Socket-backend smoke: the same two configurations again, but with one
# OS process per rank over Unix-domain sockets (length-delimited FXT3
# frames on a real byte stream). `dexec --backend uds` runs the
# in-process executor first and then the multi-process run, and exits
# non-zero unless the forked ranks' merged result is bitwise identical
# to the in-process one with exactly conformant goodput — the
# backend-identity gate of the transport seam.
echo "==> flexdist dexec --backend uds smoke"
run ./target/release/flexdist dexec --op lu --p 5 --t 6 --nb 8 --backend uds
run ./target/release/flexdist dexec --op chol --p 4 --t 6 --nb 8 --backend uds

# Chaos smoke: the same two configurations on a faulty fabric — 5%
# drop/duplicate/corrupt/delay on every link, fixed seed. The command
# itself asserts bitwise identity with the shared-memory executor,
# exact goodput conformance despite retransmissions, and that the seed
# replays the identical NetReport; it exits non-zero on any violation.
echo "==> flexdist chaos smoke"
run ./target/release/flexdist chaos --op lu --p 5 --t 6 --nb 8 \
    --rates 0.05 --seeds 1 --seed 42
run ./target/release/flexdist chaos --op chol --p 4 --t 6 --nb 8 \
    --rates 0.05 --seeds 1 --seed 42

# Replay smoke: dump a dexec net-trace, feed it back through the
# simulator, and assert exact per-link agreement between the trace's
# goodput and the simulated traffic. `replay` exits non-zero on any
# disagreeing link, and the written report must pass `verify --replay`.
echo "==> flexdist replay smoke"
replay_trace="$(mktemp /tmp/flexdist_check_trace.XXXXXX.json)"
replay_report="$(mktemp /tmp/flexdist_check_replay.XXXXXX.json)"
trap 'rm -f "$replay_trace" "$replay_report"' EXIT
run ./target/release/flexdist dexec --op lu --p 5 --t 6 --nb 8 \
    --trace-out "$replay_trace"
run ./target/release/flexdist replay --trace "$replay_trace" \
    --out "$replay_report"
run ./target/release/flexdist replay --trace "$replay_trace" --net shared
run ./target/release/flexdist verify --replay "$replay_report"

# Contended-sim smoke: the simulator must accept each network model from
# the CLI and report which one it ran.
echo "==> flexdist contended simulate smoke"
sim_out="$(./target/release/flexdist simulate --op lu --p 5 --n 4000 \
    --tile 500 --net shared)"
if ! printf '%s\n' "$sim_out" | grep -q 'network         shared-bandwidth'; then
    printf '%s\n' "$sim_out"
    echo "contended simulate smoke failed: shared-bandwidth model not reported" >&2
    exit 1
fi
sim_out="$(./target/release/flexdist simulate --op lu --p 5 --n 4000 \
    --tile 500 --net hier --switches 2 --nic-limit 2)"
if ! printf '%s\n' "$sim_out" | grep -q 'network         hierarchical'; then
    printf '%s\n' "$sim_out"
    echo "contended simulate smoke failed: hierarchical model not reported" >&2
    exit 1
fi

# Verify smoke: the workspace lint plus a static DAG check of one LU and
# one Cholesky configuration. `verify` exits non-zero on any finding
# (missing/redundant edge, owner-computes violation, banned unwrap,
# lossy cast in a wire crate, ...), so a regression in the graph
# builders or a stray unwrap fails the gate.
run ./target/release/flexdist verify --lint --root .
run ./target/release/flexdist verify --op lu --p 7 --t 8
run ./target/release/flexdist verify --op chol --p 12 --scheme gcrm --t 10

# Protocol smoke: the static communication-protocol verifier proves
# send/recv matching, deadlock-freedom (with the minimum safe inbox
# capacity) and eviction safety for one LU and one Cholesky deployment —
# and, to prove the verifier is not vacuous, a seeded mutation of the
# same schedule must make it fail.
echo "==> flexdist verify --protocol smoke"
run ./target/release/flexdist verify --protocol --op lu --p 7 --t 8
run ./target/release/flexdist verify --protocol --op chol --p 12 --scheme gcrm --t 10
echo "==> flexdist verify --protocol --mutate drop-send (must fail)"
if ./target/release/flexdist verify --protocol --op lu --p 7 --t 8 \
    --mutate drop-send >/dev/null 2>&1; then
    echo "protocol mutation smoke failed: dropped send went undetected" >&2
    exit 1
fi
echo "    (failed as expected)"

# Crash-recovery smoke: mid-run casualties with live P->P-k re-map
# cascades, over the in-process channel backend and over real rank
# processes on Unix sockets (each casualty is an OS process that
# actually exits). `dexec --recover` itself asserts the recovered run
# completes bitwise identical to the crash-free run with goodput equal
# to the composed spliced closed-form volume, and exits non-zero
# otherwise. The chaos matrix crosses every crash cell with a 5% noise
# plan at the pinned seed. Scheduling the *same* rank twice is a plan
# bug and must be refused with the typed duplicate-crash error, not
# attempted.
echo "==> flexdist dexec --recover smoke"
run ./target/release/flexdist dexec --op lu --p 5 --t 6 --nb 8 \
    --recover --crash 3@3
run ./target/release/flexdist dexec --op lu --p 5 --t 6 --nb 8 \
    --recover --crash 3@3 --backend uds
echo "==> flexdist dexec --recover double-crash cascade smoke"
run ./target/release/flexdist dexec --op lu --p 7 --t 8 --nb 8 \
    --recover --crash 1@2,3@4
run ./target/release/flexdist chaos --recover --ps 4 --t 5 --nb 8 \
    --rate 0.05 --seed 42
echo "==> flexdist dexec --recover same rank twice (must fail)"
if recover_out="$(./target/release/flexdist dexec --op lu --p 5 --t 6 \
    --nb 8 --recover --crash 1@2,1@3 2>&1)"; then
    echo "duplicate-crash smoke failed: same-rank crash went unrefused" >&2
    exit 1
fi
if ! printf '%s\n' "$recover_out" | grep -q 'crash twice'; then
    printf '%s\n' "$recover_out"
    echo "duplicate-crash smoke failed: error does not name the duplicate crash" >&2
    exit 1
fi
echo "    (refused as expected)"

# A zero tile count used to panic two layers down (exit 101 with a
# backtrace); every command now names the flag and exits 2.
echo "==> flexdist dexec --t 0 (must fail with a typed error)"
zero_status=0
./target/release/flexdist dexec --op lu --p 5 --t 0 >/dev/null 2>&1 || zero_status=$?
if [ "$zero_status" -ne 2 ]; then
    echo "zero-size smoke failed: dexec --t 0 exited $zero_status, expected 2" >&2
    exit 1
fi
echo "    (refused as expected)"

# A bench bin takes only the flags it declares: a misspelled one used to
# be ignored (all rows printed, exit 0); it must name the flag and exit 2.
echo "==> fig4_g2dbc_cost --p-max 3 (must fail with a typed error)"
typo_status=0
typo_out="$(./target/release/fig4_g2dbc_cost --p-max 3 2>&1)" || typo_status=$?
if [ "$typo_status" -ne 2 ] || ! printf '%s\n' "$typo_out" | grep -q -- '--p-max'; then
    printf '%s\n' "$typo_out"
    echo "bench flag smoke failed: --p-max exited $typo_status, expected 2 naming the flag" >&2
    exit 1
fi
echo "    (refused as expected)"

# Recovery-aware protocol smoke: the verifier proves the fused
# survivor + casualty union schedule clean for a crashed deployment —
# single crash and a two-crash cascade — and the seeded recovery
# mutation (an heir that forgets its re-serve sends) must be caught as
# a missing delivery.
echo "==> flexdist verify --protocol --crash smoke"
run ./target/release/flexdist verify --protocol --op lu --p 5 --t 6 --crash 1@2
run ./target/release/flexdist verify --protocol --op lu --p 7 --t 8 --crash 1@2,3@4
echo "==> flexdist verify --protocol --crash --mutate drop-recovery-send (must fail)"
if ./target/release/flexdist verify --protocol --op lu --p 5 --t 6 \
    --crash 1@2 --mutate drop-recovery-send >/dev/null 2>&1; then
    echo "recovery mutation smoke failed: dropped recovery send went undetected" >&2
    exit 1
fi
echo "    (failed as expected)"

# Benchmark smoke: `benchmark/` is its own cargo workspace pinned to the
# public API forms (see "What the benchmark holds fixed" in
# benchmark/README.md), so nothing above compiles it. Build it and run
# every workload once at t=6, nb=8; it exits non-zero on a compile error
# (a renamed or deleted public name) or any failed checked operation.
echo "==> benchmark smoke"
bash benchmark/run.sh --smoke >/dev/null

echo "All checks passed."
