"""One round of a workload in one fresh process.

Run by run.py as `python3 pipeline.py SPEC.json` with the round directory as
working directory and the checkout's `src` on PYTHONPATH. The process
imports botaclip once and calls botaclip.cli.main for every stage. SPEC
holds the workload, the seed, the spawn time on the monotonic clock, whether
to stop after synth (a set-up-only round) and whether to trace. The result,
with every stage's exit code and standard output, goes to the JSON file SPEC
names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def peak_rss_mb() -> float:
    """Peak resident memory of this process since it was exec'd (VmHWM).
    ru_maxrss is not used: Linux carries into it the resident size of the
    forked copy of the parent before exec, so it would read the benchmark's
    own memory whenever that is larger."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from workloads import TRAIN_COMMANDS, stage_name, workload

    import botaclip
    from botaclip import cli

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(botaclip.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {botaclip.__file__}, not the checkout's "
                         f"{src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    wl = workload(spec["workload"], spec["seed"])
    stages = []

    def run(argv):
        name = stage_name(argv)
        printed = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span(f"cli.{name}"):
                    rc = cli.main(argv)
        t1 = time.perf_counter()
        sys.stdout.write(printed.getvalue())
        stages.append({"name": name, "argv": argv, "rc": rc,
                       "start": t0, "end": t1, "stdout": printed.getvalue()})
        return rc

    result = {"stages": stages}
    rc = run(wl.synth_argv())
    result["setup_s"] = time.monotonic() - spec["spawned"]
    if rc == 0 and not spec["setup_only"]:
        from checks import sha256
        t0 = time.perf_counter()
        wl.derive()
        result["inputs"] = {p: sha256(p) for p in wl.frozen_inputs()}
        result["derive_s"] = time.perf_counter() - t0
        for argv in wl.stages():
            if run(argv) != 0:
                break
        timed = stages[1:]
        result["pipeline_s"] = timed[-1]["end"] - timed[0]["start"]
        result["train_s"] = sum(s["end"] - s["start"] for s in timed
                                if s["argv"][0] in TRAIN_COMMANDS)
        result["eval_s"] = sum(s["end"] - s["start"] for s in timed
                               if s["argv"][0] == "eval")
    result["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()
        result["spans_file"] = spec["spans_file"]
        result["layers"] = tracer.layer_metrics(spec["spans_file"])
        result["hook_errors"] = tracer.hook_errors
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
