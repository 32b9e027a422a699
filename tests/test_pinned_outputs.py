"""Every file a tiny run of every command writes, manifests aside, has the
SHA-256 recorded in tests/pinned_digests.json.

A change that must keep outputs bit-identical keeps this table; a change
that alters outputs on purpose regenerates it with the command in
tests/tinyrun.py and says so. The digests hold for the numpy and BLAS
builds and the BLAS kernel recorded beside them, with BLAS on one thread;
elsewhere the test skips and names both.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import botaclip
import tinyrun

TESTS = Path(__file__).parent
PINS = json.loads((TESTS / "pinned_digests.json").read_text())


def test_outputs_match_pins(tmp_path):
    here = tinyrun.versions()
    if here != PINS["versions"]:
        pytest.skip(f"digests pinned with {PINS['versions']}, "
                    f"this machine has {here}")
    path = os.pathsep.join([str(Path(botaclip.__file__).parents[1]),
                            str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(TESTS / "tinyrun.py"),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    got = json.loads(done.stdout)["digests"]
    pinned = PINS["digests"]
    assert got.keys() == pinned.keys()
    assert [name for name in pinned if got[name] != pinned[name]] == []
