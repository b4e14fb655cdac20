#!/usr/bin/env bash
# Regenerate BENCH_kernels.json: single-thread GF/s of every factorization
# kernel at nb = 8, 16, 64, 128, 192, 256 (crates/bench/benches/kernels.rs).
#
# Usage: scripts/bench_kernels.sh [--before REF] [--reps N]
#
# The "after" block is always measured, on the working tree. The "before"
# block is measured only with --before REF: that commit is unpacked under
# target/, today's bench file is copied into it (it calls only the
# kernels' public functions) and built there with the same profile.
# Without --before the block already in BENCH_kernels.json is kept: it is
# the record of the commit the rewrite started from.
set -euo pipefail
cd "$(dirname "$0")/.."

before_ref=""
bench_args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --before) before_ref="$2"; shift 2 ;;
        --reps) bench_args+=(--reps "$2"); shift 2 ;;
        *) echo "usage: $0 [--before REF] [--reps N]" >&2; exit 2 ;;
    esac
done

export BENCH_RUSTC="$(rustc --version)"
run_bench() { # in the current directory; JSON on stdout, cargo's chatter on stderr
    cargo bench --offline --quiet -p flexdist-bench --bench kernels -- "${bench_args[@]}"
}

before=""
if [ -n "$before_ref" ]; then
    commit="$(git rev-parse --short "$before_ref")"
    tree="target/bench_kernels_before/$commit"
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$before_ref" | tar -x -C "$tree"
    cp crates/bench/benches/kernels.rs "$tree/crates/bench/benches/kernels.rs"
    echo "==> before: $commit" >&2
    before="$(cd "$tree" && CARGO_TARGET_DIR="$PWD/../target" run_bench)"
    before="{\"commit\": \"$commit\", ${before#\{}"
fi

echo "==> after: working tree" >&2
after="$(run_bench)"
after="{\"commit\": \"$(git rev-parse --short HEAD)+\", ${after#\{}"

python3 - "$before" "$after" <<'PY'
import json, sys
before, after = sys.argv[1], json.loads(sys.argv[2])
if before:
    before = json.loads(before)
else:
    with open("BENCH_kernels.json") as f:
        before = json.load(f)["before"]
doc = {
    "comment": "single-thread kernel GF/s (median and median absolute deviation over "
               "'reps' samples); regenerate with scripts/bench_kernels.sh, "
               "'before' only with --before REF",
    "before": before,
    "after": after,
}
# One line per kernel x nb row, so a regenerated file diffs row by row.
text = json.dumps(doc, indent=2)
for block in (before, after):
    for row in block["kernels"]:
        pretty = json.dumps(row, indent=2).replace("\n", "\n      ")
        text = text.replace(pretty, json.dumps(row), 1)
with open("BENCH_kernels.json", "w") as f:
    f.write(text + "\n")
PY
echo "wrote BENCH_kernels.json"
