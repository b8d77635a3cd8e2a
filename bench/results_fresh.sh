#!/bin/sh
# Regenerate every committed bench CSV and compare it to the tracked copy.
#
#   bench/results_fresh.sh [BUILD_DIR]      (default: build)
#
# Run from the repository root after building BUILD_DIR. Every bench
# whose source calls bench::saveCsv runs in a scratch directory; each
# CSV it writes must match bench_results/ byte for byte, and every
# tracked CSV must be written by some bench. Exits non-zero naming
# each file that differs or is missing on either side.
set -u

build=${1:-build}
root=$(pwd)
[ -d "$root/bench_results" ] || {
    echo "run from the repository root" >&2
    exit 2
}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
for src in $(grep -l 'bench::saveCsv' "$root"/bench/*.cc); do
    name=$(basename "$src" .cc)
    bin="$root/$build/bench/$name"
    if [ ! -x "$bin" ]; then
        echo "missing bench binary: $bin" >&2
        status=1
        continue
    fi
    (cd "$out" && "$bin" > /dev/null) || {
        echo "bench failed: $name" >&2
        status=1
    }
done

for f in "$out"/bench_results/*.csv; do
    csv=$(basename "$f")
    if [ ! -f "$root/bench_results/$csv" ]; then
        echo "not committed: bench_results/$csv" >&2
        status=1
    elif ! cmp -s "$f" "$root/bench_results/$csv"; then
        echo "stale: bench_results/$csv" >&2
        status=1
    fi
done
for f in "$root"/bench_results/*.csv; do
    csv=$(basename "$f")
    if [ ! -f "$out/bench_results/$csv" ]; then
        echo "not written by any bench: bench_results/$csv" >&2
        status=1
    fi
done

[ "$status" -eq 0 ] && echo "all bench CSVs are fresh"
exit "$status"
