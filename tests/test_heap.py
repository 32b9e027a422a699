"""The CLI's allocator policy: memory a command frees stays in the heap.

Each case runs in a fresh process, because the policy is process-wide. The
child imports `botaclip.cli`, optionally runs a tiny `synth` through
`cli.main`, then ten times allocates and frees eight 512 KiB float64
arrays, and prints the minor page faults of each round.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import botaclip

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the policy is glibc's mallopt")

CHILD = """
import json, resource, sys
import numpy as np
from botaclip import cli

if sys.argv[1] == "main":
    assert cli.main(["synth", "--out-dir", sys.argv[2], "--pairs", "8",
                     "--latent-dim", "2", "--img-dim", "8",
                     "--n-species", "8"]) == 0
faults = []
for _ in range(10):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.ones(65536) for _ in range(8)]
    del arrays
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


def _round_faults(mode: str, tmp_path) -> list[int]:
    # malloc settings in the environment would decide the outcome
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env.update(PYTHONPATH=str(Path(botaclip.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", CHILD, mode, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])  # after synth's line


def test_cli_main_keeps_freed_memory_in_the_heap(tmp_path):
    faults = _round_faults("main", tmp_path)
    assert max(faults[1:]) < 100, faults


def test_import_alone_leaves_the_allocator_alone(tmp_path):
    # the same rounds without cli.main fault their pages in again each time
    faults = _round_faults("import", tmp_path)
    assert sorted(faults[1:])[4] > 500, faults
