#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh                       every workload, untraced and traced; writes benchmark/out/results.json
#   benchmark/run.sh --smoke               the same at t=6, nb=8, one round, in seconds; non-zero on any failed operation
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                          one workload, one mode; the last line of stdout is the result object
#   benchmark/run.sh steady [--runs N]     spread of every end-to-end metric over N seeds, against its bound
#   benchmark/run.sh compare A.json B.json two result sets against the bounds in BENCHMARK.json
#
# Runs from the root of the checkout whatever the caller's directory,
# reads and writes only below it, and honours CARGO_TARGET_DIR.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

if [ ! -f crates/factor/Cargo.toml ]; then
    echo "benchmark/run.sh: $root has no crates/ to measure; the benchmark runs inside a flexdist checkout" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# Build chatter goes to stderr: the result object must stay the last
# line of stdout.
cargo build --offline --release --quiet --manifest-path benchmark/Cargo.toml >&2

# The fingerprint of results.json; the binary may run where neither
# tool exists, so it takes them from the environment.
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_GIT_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

exec "$CARGO_TARGET_DIR/release/flexdist-benchmark" "$@"
