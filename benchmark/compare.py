#!/usr/bin/env python3
"""Compare two sets of benchmark runs: PARENT_DIR against CHANGE_DIR.

Each directory holds result records written by cm5bench
(out/<workload>.json), for example collected with

    benchmark/run.sh --seed S --results DIR

Run the two sides alternately (parent, change, parent, ...), all at one
seed, so that the quartiles measure the host's run-to-run noise and not
the input's. The n-th parent run of a workload is paired with the n-th
change run, in file order.

For every (end-to-end metric, workload) pair the report gives each side's
median and quartiles, the fraction of pairs the change wins (ties count
for neither side), and a verdict against the bound in BENCHMARK.json:

  improved    at least 10 pairs, the change wins at least 9 in 10 of them,
              and the medians differ by more than the parent's quartile
              spread;
  regressed   the change's median is worse than the parent's by more than
              the bound, or the change fails more operations;
  unresolved  either side's quartile spread is wider than the bound and
              not every change run beats every parent run;
  unchanged   otherwise.

setup_s also has an absolute slack of 0.02 s: it counts as regressed, or
its spread as wider than the bound, only when the difference is also
larger than 0.02 s. Most set-ups take microseconds, where a relative
bound alone would judge noise.

Records whose backend, lane count, CM5_* variables, seed or run shape
(minimum passes, seconds, smoke sizes) differ are refused: exit 2.
Exit 0 when every pair is improved or unchanged, 1 otherwise.
"""

import argparse
import json
import pathlib
import statistics
import sys

SHAPE_KEYS = ("config", "seed", "min_passes", "seconds", "smoke")
ABSOLUTE_SLACK = {"setup_s": 0.02}


def refuse(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_runs(directory):
    path = pathlib.Path(directory)
    if not path.is_dir():
        refuse(f"{directory} is not a directory")
    runs = {}
    for file in sorted(path.glob("*.json"), key=lambda p: p.name):
        try:
            record = json.loads(file.read_text())
        except (OSError, ValueError) as err:
            refuse(f"{file}: not a result record ({err})")
        if not isinstance(record, dict) or "workload" not in record:
            refuse(f"{file}: not a result record")
        if record.get("trace"):
            continue  # traced runs carry per-layer metrics only
        runs.setdefault(record["workload"], []).append((file, record))
    if not runs:
        refuse(f"{directory} holds no untraced result records")
    return runs


def check_comparable(parent, change):
    reference = None
    for side in (parent, change):
        for workload, runs in side.items():
            for file, record in runs:
                shape = {key: record.get(key) for key in SHAPE_KEYS}
                if reference is None:
                    reference = (file, shape)
                elif shape != reference[1]:
                    diff = [k for k in SHAPE_KEYS if shape[k] != reference[1][k]]
                    refuse(f"{file} and {reference[0]} differ in {', '.join(diff)}")
    for workload in sorted(set(parent) & set(change)):
        if len(parent[workload]) != len(change[workload]):
            refuse(f"{workload}: {len(parent[workload])} parent runs, "
                   f"{len(change[workload])} change runs")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(p, c, lower_better, bound, slack, failed_p, failed_c):
    sign = 1.0 if lower_better else -1.0
    mp, mc = statistics.median(p), statistics.median(c)
    q1p, q3p = quartiles(p)
    q1c, q3c = quartiles(c)
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    worse = sign * (mc - mp) / abs(mp) if mp else 0.0
    all_better = (max(c) < min(p)) if lower_better else (min(c) > max(p))
    spread = max((q3p - q1p) / abs(mp) if mp else 0.0,
                 (q3c - q1c) / abs(mc) if mc else 0.0)
    wide = spread > bound and max(q3p - q1p, q3c - q1c) > slack
    if failed_c > failed_p:
        v = "regressed"
    elif wide and not all_better:
        v = "unresolved"
    elif len(p) >= 10 and wins >= 0.9 * len(p) and sign * (mp - mc) > (q3p - q1p):
        v = "improved"
    elif worse > bound and sign * (mc - mp) > slack:
        v = "regressed"
    else:
        v = "unchanged"
    return {
        "parent": (mp, q1p, q3p), "change": (mc, q1c, q3c),
        "delta": 100.0 * (mc - mp) / abs(mp) if mp else 0.0,
        "wins": wins, "pairs": len(p), "spread": spread, "verdict": v,
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument(
        "--bench", default=str(pathlib.Path(__file__).resolve().parent.parent
                               / "BENCHMARK.json"),
        help="BENCHMARK.json naming the metrics, directions and bounds")
    args = parser.parse_args()

    try:
        bench = json.loads(pathlib.Path(args.bench).read_text())
    except (OSError, ValueError) as err:
        refuse(f"cannot read {args.bench}: {err}")
    parent, change = load_runs(args.parent_dir), load_runs(args.change_dir)
    check_comparable(parent, change)

    ok = True
    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'delta':>8} {'wins':>7}  verdict")
    for workload in sorted(set(parent) & set(change)):
        pairs = [(rp, rc) for (_, rp), (_, rc) in
                 zip(parent[workload], change[workload])]
        failed_p = max(r["failed"] for r, _ in pairs)
        failed_c = max(r["failed"] for _, r in pairs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r, _ in pairs]
            c = [r["metrics"][name]["value"] for _, r in pairs]
            res = verdict(p, c, metric["better"] == "lower", metric["bound"],
                          ABSOLUTE_SLACK.get(name, 0.0), failed_p, failed_c)
            ok &= res["verdict"] in ("improved", "unchanged")
            fmt = lambda m: f"{m[0]:.6g} [{m[1]:.6g}, {m[2]:.6g}]"
            print(f"{workload:<16} {name:<12} {fmt(res['parent']):<34} "
                  f"{fmt(res['change']):<34} {res['delta']:>+7.2f}% "
                  f"{res['wins']:>3}/{res['pairs']:<3}  {res['verdict']}")
        if failed_p or failed_c:
            print(f"{workload:<16} failed ops: parent {failed_p}, change {failed_c}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"not compared (runs on one side only): {', '.join(missing)}")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
