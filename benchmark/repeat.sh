#!/usr/bin/env bash
# Two full sets of the same build, compared per (metric, workload)
# against the bounds in BENCHMARK.json; exact counts must agree
# exactly. Writes benchmark/REPEATABILITY.md and exits non-zero when
# any end-to-end metric is outside its bound.
#
# Usage: benchmark/repeat.sh [flags passed to both sets, e.g. --seconds 10]
#        benchmark/repeat.sh --compare-only     report on the two sets already in benchmark/out
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

if [ "${1:-}" = "--compare-only" ]; then
    shift
else
    for set in set1 set2; do
        benchmark/run.sh --out "benchmark/out/$set" "$@" >&2
    done
fi

status=0
table="$(benchmark/run.sh compare benchmark/out/set1/results.json benchmark/out/set2/results.json)" || status=$?
[ "$status" -le 1 ] || exit "$status"

{
    echo "# Repeatability"
    echo
    echo "Two back-to-back sets of \`benchmark/run.sh${*:+ $*}\` on the same build, written by"
    echo "\`benchmark/repeat.sh\`. \"worse by\" is set 2 against set 1, signed so that"
    echo "positive means worse; the verdict holds its size to the metric's bound in"
    echo "\`BENCHMARK.json\`. Exact figures must be equal to the last bit."
    echo
    echo "Machine: $(nproc) core(s), $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1), $(rustc --version)."
    echo
    echo "$table"
} > benchmark/REPEATABILITY.md
echo "$table"
echo "wrote benchmark/REPEATABILITY.md" >&2
exit "$status"
