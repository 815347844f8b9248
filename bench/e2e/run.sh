#!/usr/bin/env bash
# Builds and runs the repository benchmark; see bench/e2e/README.md.
#
# Suite mode — every workload (or one), each in its own cmpbench process,
# end-to-end and per-layer phases both:
#   bench/e2e/run.sh --seed S [--workload W] [--out FILE] [--repeat K]
#                    [--seconds N] [--quick]
# prints every metric as `name value unit`, writes FILE as a JSON array
# with one object per workload run, and exits 3 if any output failed
# verification.
#
# Single-run mode — one phase of one workload (--trace 0: end-to-end
# metrics, 1: per-layer metrics); the last stdout line is the result JSON:
#   bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#
# The build (Release, from ../../src) goes to build-e2e/ at the
# repository root; data files live there only while a workload runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-e2e"
all_workloads=(train-cmp-f7 train-cmps-f2 serve-single serve-batch64-swap)

seed=""
workload=""
out=""
repeat=1
seconds=20
trace=""
quick=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --quick) quick="--quick"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seed" ]; then
  echo "usage: run.sh --seed S [--workload W] [--out FILE] [--repeat K]" \
       "[--seconds N] [--quick] [--trace 0|1]" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 1)"
[ "$jobs" -gt 4 ] && jobs=4
mkdir -p "$build"
log="$build/build.log"
if ! { { [ -f "$build/CMakeCache.txt" ] ||
         cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$build" -j "$jobs" --target cmpbench cmptool cmpserve
     } > "$log" 2>&1; then
  echo "run.sh: build failed (full log in $log):" >&2
  tail -n 30 "$log" >&2
  exit 1
fi

commit=unknown
if [ -e "$root/.git" ] && command -v git > /dev/null; then
  commit="$(git --git-dir="$root/.git" rev-parse HEAD 2> /dev/null ||
            echo unknown)"
fi

if [ -n "$trace" ]; then
  [ -n "$workload" ] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
  exec "$build/cmpbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace" --commit "$commit" $quick
fi

if [ -n "$workload" ]; then
  workloads=("$workload")
else
  workloads=("${all_workloads[@]}")
fi
results="$build/results.$$"
mkdir -p "$results"
trap 'rm -rf "$results"' EXIT
files=()
status=0
for ((r = 1; r <= repeat; r++)); do
  for w in "${workloads[@]}"; do
    f="$results/$r-$w.json"
    set +e
    "$build/cmpbench" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --trace both --commit "$commit" --json "$f" $quick |
      grep -v '^{"correct"'
    rc=${PIPESTATUS[0]}
    set -e
    if [ "$rc" -eq 3 ]; then
      status=3
    elif [ "$rc" -ne 0 ]; then
      echo "run.sh: $w exited with $rc" >&2
      [ "$status" -eq 3 ] || status=1
    fi
    [ -f "$f" ] && files+=("$f")
  done
done

if [ -n "$out" ]; then
  {
    echo "["
    sep=""
    for f in "${files[@]}"; do
      printf '%s' "$sep"
      cat "$f"
      sep=","
    done
    echo "]"
  } > "$out"
fi
exit "$status"
