#!/usr/bin/env bash
# Regenerate BENCH_kernels.json: single-thread GF/s of every factorization
# kernel at nb = 8, 16, 64, 128, 192, 256 and single-thread GB/s of the
# frame codec (encode, decode, checksum) at nb = 8, 16, 192
# (crates/bench/benches/kernels.rs).
#
# Usage: scripts/bench_kernels.sh [--before REF]
#
# The "after" block is always measured, on the working tree. The "before"
# block is measured only with --before REF: that commit is unpacked under
# target/, today's bench file is copied into it (it calls only public
# functions of the kernels and the codec) and built there with the same
# profile.
# Without --before the block already in BENCH_kernels.json is kept: it is
# the record of the commit the rewrite started from.
set -euo pipefail
cd "$(dirname "$0")/.."

before_ref=""
case "${1:-}" in
    "") ;;
    --before) before_ref="${2:?--before needs a commit}" ;;
    *) echo "usage: $0 [--before REF]" >&2; exit 2 ;;
esac

cpu="$(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1)"
machine="{\"cpu\": \"${cpu:-unknown}\", \"nproc\": $(nproc), \"rustc\": \"$(rustc --version)\"}"

# One block of the record: the bench's JSON object (run in the current
# directory) one level down, with the commit and the machine in front.
block() { # $1 = commit
    echo "{"
    echo "    \"commit\": \"$1\","
    echo "    \"machine\": $machine,"
    cargo bench --offline --quiet -p flexdist-bench --bench kernels | sed -e '1d' -e 's/^/  /'
}

if [ -n "$before_ref" ]; then
    commit="$(git rev-parse --short "$before_ref")"
    tree="target/bench_kernels_before/$commit"
    rm -rf "$tree"
    mkdir -p "$tree"
    git archive "$before_ref" | tar -x -C "$tree"
    cp crates/bench/benches/kernels.rs "$tree/crates/bench/benches/kernels.rs"
    echo "==> before: $commit" >&2
    before="$(cd "$tree" && CARGO_TARGET_DIR="$PWD/../target" block "$commit")"
else
    before="$(sed -n -e '/^  "before": {$/,/^  },$/p' BENCH_kernels.json | sed -e '1s/.*/{/' -e '$s/,$//')"
fi

echo "==> after: working tree" >&2
after="$(block "$(git rev-parse --short HEAD)+")"

cat > BENCH_kernels.json <<EOF
{
  "comment": "single-thread kernel GF/s and frame-codec GB/s (median and median absolute deviation over 'reps' samples); regenerate with scripts/bench_kernels.sh, 'before' only with --before REF",
  "before": $before,
  "after": $after
}
EOF
echo "wrote BENCH_kernels.json"
