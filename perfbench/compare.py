"""Compare two sets of benchmark runs.

    python3 perfbench/run.py --compare before.jsonl after.jsonl

Each file holds one JSON line per run, as written by `run.py --record`
(or `sweep.py`). For every workload and end-to-end metric the comparison
prints each side's median and quartiles over its runs, the change of the
median, the spread of each side (quartile distance over median) and a
verdict against the metric's bound in BENCHMARK.json:
- "unresolved" when either side's spread is larger than the bound, since
  then the medians do not repeat well enough to rank the two sides;
- "worse" when the after median is worse than the before median by more
  than the bound;
- "better" when it is better by more than the bound;
- "within" otherwise.
Per-layer metrics from traced runs are listed with their medians only.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict


def load(path):
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"]]


def _failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    wrong = sum(1 for r in runs if not r["correct"])
    return f"{failed}/{attempted} failed, {wrong} incorrect runs"


def compare(before_path, after_path, benchmark_json) -> int:
    with open(benchmark_json, encoding="utf-8") as fh:
        bench = json.load(fh)
    before, after = load(before_path), load(after_path)
    workloads = [w["name"] for w in bench["workloads"]]
    print(f"{'workload':<10} {'metric':<12} {'before q1/med/q3':>26} "
          f"{'after q1/med/q3':>26} {'change':>8} {'spread b/a':>12} "
          f"{'bound':>6}  verdict")
    for wl in workloads:
        a_runs, b_runs = before.get((wl, 0), []), after.get((wl, 0), [])
        if not a_runs or not b_runs:
            print(f"{wl:<10} (no untraced runs on one side)")
            continue
        for m in bench["end_to_end"]:
            a, b = _values(a_runs, m["name"]), _values(b_runs, m["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = qb[1] / qa[1] - 1.0
            worse = change if m["better"] == "lower" else -change
            sa, sb = (qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1]
            verdict = ("unresolved" if max(sa, sb) > m["bound"] else
                       "worse" if worse > m["bound"] else
                       "better" if worse < -m["bound"] else "within")
            spread = f"{sa:.3f}/{sb:.3f}"
            print(f"{wl:<10} {m['name']:<12} "
                  f"{qa[0]:8.3f}/{qa[1]:8.3f}/{qa[2]:8.3f} "
                  f"{qb[0]:8.3f}/{qb[1]:8.3f}/{qb[2]:8.3f} "
                  f"{change:+8.1%} {spread:>12} {m['bound']:6.2f}  {verdict}")
        print(f"{wl:<10} runs: before {len(a_runs)} ({_failed_share(a_runs)}), "
              f"after {len(b_runs)} ({_failed_share(b_runs)})")
    for wl in workloads:
        a_runs, b_runs = before.get((wl, 1), []), after.get((wl, 1), [])
        if not a_runs or not b_runs:
            continue
        print(f"\n{wl}: per-layer medians (traced runs)")
        for m in bench["per_layer"]:
            a, b = _values(a_runs, m["name"]), _values(b_runs, m["name"])
            if a and b:
                ma, mb = statistics.median(a), statistics.median(b)
                print(f"  {m['name']:<28} {ma:14.4f} {mb:14.4f} {m['unit']}")
    return 0
