"""botaclip benchmark: the README pipeline on the desk and canonical
workloads.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --compare before.jsonl after.jsonl
    python3 perfbench/run.py --self-test

Run from the root of a checkout. A run starts a few set-up-only processes
and then one or more rounds; each is a fresh `python3 pipeline.py` process
that imports botaclip from the checkout's `src` once and calls
botaclip.cli.main for every stage. Rounds repeat until --seconds have
passed (at least one). With --trace 1 the run makes one untraced and one
traced round instead, and reports per-layer metrics and the tracing
overhead. The first round's outputs pass every check (checks.py); every
later round must write the same artifacts. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"
# every process of a run must end within this many seconds of its start
RUN_TIMEOUT_S = 170
# set-up-only processes per untraced run, besides the set-up of each round
EXTRA_SETUPS = 2
# BLAS runs on one thread: on a 2-vCPU shared host a two-thread matmul's
# wall time jumps by up to 4x whenever the second vCPU is busy elsewhere,
# while one thread repeats (see README.md, "Thread environment")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def _child_env(ra_threads: str | None = None) -> dict:
    """The environment of a process the benchmark starts: BLAS on one
    thread; the evaluation pool at `ra_threads`, or at the program's default
    (RA_THREADS unset) when that is None."""
    env = {k: v for k, v in os.environ.items() if k != "RA_THREADS"}
    env.update(BLAS_ENV)
    if ra_threads is not None:
        env["RA_THREADS"] = ra_threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _build() -> None:
    """Byte-compile the sources once, so that no round pays for it."""
    import compileall
    for d in (ROOT / "src", HERE):
        compileall.compile_dir(str(d), quiet=2)


def _code_hash() -> str:
    """Digest of the program's and the benchmark's sources: artifacts of one
    seed are compared across runs only while both are unchanged."""
    h = hashlib.sha256()
    for d in (ROOT / "src", HERE):
        for p in sorted(d.rglob("*.py")):
            h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _spawn(workload: str, seed: int, rdir: Path, setup_only: bool,
           trace: bool, timeout: float = RUN_TIMEOUT_S) -> dict:
    """Run one fresh pipeline process in rdir; returns its result, or a
    result with an 'error' key when the process did not finish."""
    from workloads import workload as make
    rdir.mkdir(parents=True)
    spec = {"workload": workload, "seed": seed, "setup_only": setup_only,
            "trace": trace, "src": str(ROOT / "src"),
            "result": str(rdir.parent / f"{rdir.name}.result.json"),
            "spans_file": str(RUNS / "spans" / f"{workload}-{seed}.jsonl")}
    spec_path = rdir.parent / f"{rdir.name}.spec.json"
    log = rdir.parent / f"{rdir.name}.log"
    with open(log, "w") as out:
        spec["spawned"] = time.monotonic()
        spec_path.write_text(json.dumps(spec))
        try:
            code = subprocess.run(
                [sys.executable, str(HERE / "pipeline.py"), str(spec_path)],
                cwd=rdir, env=_child_env(make(workload, seed).ra_threads),
                stdout=out,
                stderr=subprocess.STDOUT, timeout=max(timeout, 1.0)).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
    result_path = Path(spec["result"])
    if code != 0 or not result_path.exists():
        tail = log.read_text(errors="replace")[-2000:]
        return {"error": f"round process exited {code}: {tail}", "stages": []}
    return json.loads(result_path.read_text())


def _cli(argv: list[str], cwd: Path) -> int:
    """Run one botaclip command in a fresh process; its exit code."""
    code = "import sys; from botaclip import cli; sys.exit(cli.main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd,
                          env=_child_env(), stdout=subprocess.DEVNULL,
                          timeout=60).returncode


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from checks import check_manifests, check_round, compare_digests, digests
    from workloads import SYNTH_OUTPUTS, WORKLOADS

    spec = WORKLOADS[workload](seed)
    base = RUNS / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    (RUNS / "spans").mkdir(parents=True, exist_ok=True)
    (RUNS / "digests").mkdir(parents=True, exist_ok=True)
    fails: list[str] = []
    attempted = failed = 0
    start = time.monotonic()

    def spawn(name, setup_only, traced=False):
        nonlocal attempted, failed
        res = _spawn(workload, seed, base / name, setup_only, traced,
                     start + RUN_TIMEOUT_S - time.monotonic())
        bad = [s for s in res["stages"] if s["rc"] != 0]
        attempted += max(len(res["stages"]), 1)
        failed += len(bad) or int("error" in res)
        fails.extend(f"stage {s['name']} exited {s['rc']}" for s in bad)
        fails.extend([res["error"]] if "error" in res else [])
        return res

    setups = [spawn(f"setup{i}", True)
              for i in range(0 if trace else EXTRA_SETUPS)]
    synth_digests = [digests(base / f"setup{i}") for i in range(len(setups))]
    plan = [False, True] if trace else [False]
    rounds, round_digests = [], []
    while plan or (not trace and time.monotonic() - start < seconds):
        traced = plan.pop(0) if plan else False
        name = f"round{len(rounds)}"
        res = spawn(name, False, traced)
        rounds.append(res)
        print(f"{name}{' (traced)' if traced else ''}: "
              + " ".join(f"{s['name']}={s['end'] - s['start']:.2f}s"
                         for s in res["stages"])
              + f" peak_rss={res.get('peak_rss_mb', 0):.1f}MB", file=sys.stderr)
        for s in res["stages"]:
            if s["name"] == "stats":
                print(s["stdout"].strip(), file=sys.stderr)
        fails.extend(f"trace count at {hook} not taken:\n{tb}"
                     for hook, tb in res.get("hook_errors", {}).items())
        if "pipeline_s" not in res or any(s["rc"] for s in res["stages"]):
            break
        # later rounds must write the same artifacts as the first, which
        # passed every check; manifests are not among the digests
        fails += (check_manifests(base / name) if round_digests else
                  check_round(base / name, spec, res["inputs"], res["stages"]))
        round_digests.append(digests(base / name))
        synth_digests.append({p: d for p, d in round_digests[-1].items()
                              if p in SYNTH_OUTPUTS})

    for i, d in enumerate(synth_digests[1:], start=1):
        fails += compare_digests(synth_digests[0], d, f"synth output {i}")
    for i, d in enumerate(round_digests[1:], start=1):
        fails += compare_digests(round_digests[0], d, f"artifact, round {i}")
    if round_digests:
        record = RUNS / "digests" / f"{workload}-{seed}-{_code_hash()}.json"
        if record.exists():
            fails += compare_digests(json.loads(record.read_text()),
                                     round_digests[0],
                                     "artifact, against an earlier run")
        else:
            record.write_text(json.dumps(round_digests[0], indent=0))

    finished = [r for r in rounds if "pipeline_s" in r and "error" not in r]
    values = {}
    if trace and len(finished) == 2:
        plain, traced = finished
        values = dict(traced["layers"])
        values["trace.pipeline_s"] = traced["pipeline_s"]
        values["trace.untraced_pipeline_s"] = plain["pipeline_s"]
        values["trace.overhead"] = (traced["pipeline_s"] / plain["pipeline_s"]
                                    - 1.0)
    elif not trace and finished:
        values["setup_s"] = statistics.median(
            r["setup_s"] for r in setups + finished if "setup_s" in r)
        for key in ("pipeline_s", "train_s", "eval_s", "peak_rss_mb"):
            values[key] = statistics.median(r[key] for r in finished)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if trace else "end_to_end"]}
    if not values:
        fails.append("no round finished")
    elif set(units) != set(values):
        fails.append("metrics differ from BENCHMARK.json: "
                     f"{sorted(set(units) ^ set(values))}")
    metrics = {k: {"value": v, "unit": units.get(k, "")}
               for k, v in values.items()}
    for line in fails:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"{workload} seed {seed}: {len(rounds)} round(s), "
          f"{time.monotonic() - start:.1f}s wall", file=sys.stderr)
    shutil.rmtree(base, ignore_errors=True)
    return {"correct": not fails, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run's result to a JSON "
                    "lines file, for --compare")
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.compare:
        from compare import compare
        return compare(*args.compare, ROOT / "BENCHMARK.json")
    if not (ROOT / "src" / "botaclip" / "cli.py").is_file():
        print(f"no botaclip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test
        return self_test(RUNS / "selftest", _spawn, _cli)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    _build()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
