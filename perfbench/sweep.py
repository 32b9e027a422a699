"""Run the benchmark over several workloads and seeds, one run after the
other, appending each run's result line to a JSON lines file.

    python3 perfbench/sweep.py --out after.jsonl --seeds 1-10
    python3 perfbench/sweep.py --out after.jsonl --seeds 1-3 --trace 1 \
        --workloads desk

Two such files, one per commit, are compared with
`python3 perfbench/run.py --compare before.jsonl after.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    out = Path(args.out).resolve()
    out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for wl in args.workloads:
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--record", str(out)],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no result)"]
            print(f"{wl} seed {seed}: exit {proc.returncode} {last[0][:160]}",
                  flush=True)
            status |= proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
