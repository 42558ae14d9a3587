#!/usr/bin/env bash
# Builds the benchmark program, cm5bench (Release, into build-bench/ at the repository
# root) and runs it once per workload, each workload in its own process so
# that peak RSS is per workload.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace 0|1]
#                    [--passes N] [--smoke] [--results DIR]
#                    [other cm5bench flags]
#
# Without --workload every workload runs in turn. Each run writes
# benchmark/out/<workload>.json; --results DIR also keeps a copy as
# DIR/<workload>.<n>.json, the input benchmark/compare.py reads. Other flags
# go to cm5bench as given (cm5bench --help lists them). stdout carries only
# cm5bench's output; the build log goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads=(exchange-1920 rex-4096 irregular-sweep fft2d-data stream-faulty)

workload=""
results=""
bench_args=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload | --results)
      if [[ $# -lt 2 ]]; then
        echo "run.sh: $1 needs a value" >&2
        exit 2
      fi
      if [[ "$1" == --workload ]]; then workload="$2"; else results="$2"; fi
      shift 2
      ;;
    *)
      bench_args+=("$1")
      shift
      ;;
  esac
done

if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: no cm5sched sources in $root (benchmark/ must sit at the root of the source tree)" >&2
  exit 2
fi

build="$root/build-bench"
{
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --parallel "$(nproc 2>/dev/null || echo 2)"
} >&2
bin="$build/cm5bench"

run_one() {
  "$bin" --workload "$1" ${bench_args[@]+"${bench_args[@]}"}
}

keep_result() {
  [[ -n "$results" ]] || return 0
  mkdir -p "$results"
  local n=0
  while [[ -e "$results/$1.$n.json" ]]; do n=$((n + 1)); done
  cp "$here/out/$1.json" "$results/$1.$n.json"
}

if [[ -n "$workload" ]]; then
  if [[ -z "$results" ]]; then
    # No shell stays between the caller and cm5bench, so a signal to this
    # process reaches the benchmark itself.
    exec "$bin" --workload "$workload" ${bench_args[@]+"${bench_args[@]}"}
  fi
  status=0
  run_one "$workload" || status=$?
  [[ $status -eq 2 ]] || keep_result "$workload"
  exit "$status"
fi

status=0
for w in "${workloads[@]}"; do
  rc=0
  run_one "$w" || rc=$?
  if [[ $rc -eq 2 ]]; then exit 2; fi
  keep_result "$w"
  if [[ $rc -ne 0 ]]; then status=$rc; fi
done
exit "$status"
