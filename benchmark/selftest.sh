#!/usr/bin/env bash
# Self-test of the benchmark program (cm5bench), on the reduced (--smoke) sizes with
# one pass per run. Checks that
#   * every workload, untraced and traced, prints exactly the metric
#     names and units BENCHMARK.json lists, then a last-line JSON result
#     with correct = true and failed = 0;
#   * a corrupted expected digest makes the run fail: failed > 0, exit 1;
#   * a bad flag, an unknown workload or a bad seed exits 2 with a
#     one-line diagnosis, and --regen-expected refuses a CM5_* knob.
#
#   benchmark/selftest.sh
#
# Builds like run.sh; writes only under benchmark/out/selftest/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
workloads=(exchange-1920 rex-4096 irregular-sweep fft2d-data stream-faulty)
tmp="$here/out/selftest"
rm -rf "$tmp"
mkdir -p "$tmp"

bash "$here/run.sh" --workload rex-4096 --help >/dev/null  # builds cm5bench
bin="$root/build-bench/cm5bench"
failures=0
fail() {
  echo "selftest: FAIL $*" >&2
  failures=$((failures + 1))
}

# check_output FILE TRACE: the metric lines and the result line of one run.
check_output() {
  python3 - "$root/BENCHMARK.json" "$2" "$1" <<'EOF'
import json, sys
bench = json.load(open(sys.argv[1]))
want = bench["per_layer" if sys.argv[2] == "1" else "end_to_end"]
lines = open(sys.argv[3]).read().splitlines()
result = json.loads(lines[-1])
problems = []
if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
    problems.append(f"result keys {sorted(result)}")
printed = [line.split() for line in lines[:-1]]
if [(p[1], p[3]) for p in printed if len(p) == 4] != [(m["name"], m["unit"]) for m in want] \
        or any(len(p) != 4 for p in printed):
    problems.append("metric lines differ from BENCHMARK.json")
if [(k, v["unit"]) for k, v in result["metrics"].items()] != [(m["name"], m["unit"]) for m in want]:
    problems.append("result metrics differ from BENCHMARK.json")
if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
    problems.append(f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}")
for p in problems:
    print(p)
sys.exit(1 if problems else 0)
EOF
}

drive() {
  "$bin" --smoke --passes 1 --out-dir "$tmp/out" --expected-dir "$tmp/expected" "$@"
}

for w in "${workloads[@]}"; do
  # A golden for the smoke sizes, then runs that must match it.
  drive --workload "$w" --regen-expected >/dev/null 2>"$tmp/err" ||
    fail "$w: --regen-expected: $(tail -1 "$tmp/err")"
  for trace in 0 1; do
    rc=0
    drive --workload "$w" --trace "$trace" >"$tmp/stdout" 2>"$tmp/err" || rc=$?
    [[ $rc -eq 0 ]] || fail "$w --trace $trace: exit $rc: $(tail -1 "$tmp/err")"
    why="$(check_output "$tmp/stdout" "$trace")" || fail "$w --trace $trace: $why"
  done
  # A corrupted digest must count as a failed op and fail the run.
  python3 - "$tmp/expected/$w.seed1.smoke.json" <<'EOF'
import re, sys
path = sys.argv[1]
text = open(path).read()
open(path, "w").write(re.sub(r'"digest":"[0-9a-f]', '"digest":"x', text, count=1))
EOF
  rc=0
  drive --workload "$w" >"$tmp/stdout" 2>/dev/null || rc=$?
  failed="$(tail -1 "$tmp/stdout" | python3 -c 'import json,sys; print(json.load(sys.stdin)["failed"])')"
  if [[ $rc -ne 1 || $failed -lt 1 ]]; then
    fail "$w: corrupted golden gave exit $rc, failed=$failed"
  fi
done

# expect_usage_error DESCRIPTION CMD...: exit 2, one line on stderr.
expect_usage_error() {
  local what="$1"
  shift
  rc=0
  "$@" >"$tmp/stdout" 2>"$tmp/err" || rc=$?
  if [[ $rc -ne 2 || $(wc -l <"$tmp/err") -ne 1 || -s "$tmp/stdout" ]]; then
    fail "$what: exit $rc, stderr: $(cat "$tmp/err")"
  fi
}
expect_usage_error "unknown flag" "$bin" --workload rex-4096 --bogus
expect_usage_error "missing value" "$bin" --workload rex-4096 --seed
expect_usage_error "unknown workload" "$bin" --workload nope
expect_usage_error "no workload" "$bin" --seed 1
expect_usage_error "negative seed" "$bin" --workload rex-4096 --seed -1
expect_usage_error "non-numeric seed" "$bin" --workload rex-4096 --seed 1x
expect_usage_error "seed overflow" "$bin" --workload rex-4096 --seed 99999999999999999999
expect_usage_error "bad trace" "$bin" --workload rex-4096 --trace 2
expect_usage_error "regen under a knob" env CM5_LANES=1 "$bin" \
  --workload rex-4096 --smoke --regen-expected --expected-dir "$tmp/expected"
expect_usage_error "run.sh missing value" bash "$here/run.sh" --workload

if [[ $failures -ne 0 ]]; then
  echo "selftest: $failures failure(s)" >&2
  exit 1
fi
echo "selftest: ok"
