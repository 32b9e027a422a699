"""Every file a tiny run of every command writes, manifests aside, has the
SHA-256 recorded in tests/pinned_digests.json, and every file it writes is
the output of exactly one manifest.

A change that must keep outputs bit-identical keeps this table; a change
that alters outputs on purpose regenerates it with the command in
tests/tinyrun.py and says so. The digests hold for the numpy and BLAS
builds and the BLAS kernel recorded beside them, with BLAS on one thread;
elsewhere the digest test skips and names both. The manifest checks hold
on any build.
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import botaclip
import tinyrun

TESTS = Path(__file__).parent
PINS = json.loads((TESTS / "pinned_digests.json").read_text())
# commands that take --out-dir; the others name their output with --out
OUT_DIR_COMMANDS = {"synth", "prep", "train-botania", "train-botaclip",
                    "train-botasp"}
OUT_COMMANDS = {"split", "embed", "eval-plant", "eval-butterfly", "eval-soil",
                "cluster-metrics", "stats"}
SYNTH_FILES = ("images.emb", "covers.csv", "locations.csv", "classes.csv",
               "latents.csv", "eval_species.csv")


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """(root, digests) of one tiny run in a fresh process."""
    root = tmp_path_factory.mktemp("tiny")
    path = os.pathsep.join([str(Path(botaclip.__file__).parents[1]),
                            str(TESTS)])
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, str(TESTS / "tinyrun.py"),
                           str(root)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return root, json.loads(done.stdout)["digests"]


def test_outputs_match_pins(tiny_run):
    here = tinyrun.versions()
    if here != PINS["versions"]:
        pytest.skip(f"digests pinned with {PINS['versions']}, "
                    f"this machine has {here}")
    got = tiny_run[1]
    pinned = PINS["digests"]
    assert got.keys() == pinned.keys()
    assert [name for name in pinned if got[name] != pinned[name]] == []


def test_every_output_has_one_manifest(tiny_run):
    root = tiny_run[0]
    manifests = sorted(root.rglob("*manifest*.json"))
    outputs = Counter()
    for man in manifests:
        doc = json.loads(man.read_text())
        where = man.relative_to(root).as_posix()
        files = list(doc["outputs"])
        # the name rule: <out-dir>/manifest_<command>.json, dashes as
        # underscores, or <out>.manifest.json; the label is the command,
        # with the task for eval
        if man.name.startswith("manifest_"):
            assert doc["command"] in OUT_DIR_COMMANDS, where
            assert man.name == (f"manifest_{doc['command']}.json"
                                .replace("-", "_")), where
            assert {Path(f).parent for f in files} == {
                man.parent.relative_to(root)}, where
        else:
            assert doc["command"] in OUT_COMMANDS, where
            assert files == [where.removesuffix(".manifest.json")]
        for name, digest in [*doc["inputs"].items(),
                             *doc["outputs"].items()]:
            got = hashlib.sha256((root / name).read_bytes()).hexdigest()
            assert got == digest, f"{where}: {name}"
        outputs.update(files)
    written = [p.relative_to(root).as_posix()
               for p in sorted((root / "run").rglob("*"))
               if p.is_file() and "manifest" not in p.name]
    written += [f"data/{name}" for name in SYNTH_FILES]
    assert outputs == Counter(written)
