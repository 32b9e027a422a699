"""Every setting of DEFAULT_CONFIG changes what the command that reads it
writes: set to another valid value on the tiny run's inputs, where the
value can matter, the key must change the digest of an output. A key that
cannot be probed this way is allowed only with a written reason."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import tinyrun
from botaclip import fileio
from botaclip.cli import main

# key -> reason it is not probed
ALLOWED = {
    "data.embeddings": "an input path: another path reads another file",
    "data.covers": "an input path: another path reads another file",
    "data.locations": "an input path: another path reads another file",
    "data.labels": "an input path: another path reads another file",
    "data.botania_checkpoint": "an input path: another path reads another "
                               "file",
}

PLANT = ("eval", "--task", "plant", "--embeddings", "data/images.emb",
         "--covers", "data/eval_species.csv", "--split", "data/split.csv")
# row norms from 0.5 to 2: normalizing them changes the forest's inputs
SCALED_PLANT = PLANT[:4] + ("data/scaled.emb",) + PLANT[5:]
SOIL = ("eval", "--task", "soil", "--embeddings", "data/soil_images.emb",
        "--soil", "data/soil.csv")
BOTANIA = ("train-botania",)
ALIGN = ("train-botaclip",)
BOTASP = ("train-botasp",)
MLP = ("variant=mlp",)
ATTENTION = ("variant=attention",)
# a long, noisy schedule: some epoch fails to improve, so patience matters
UNSTEADY = ("train.max_epochs=12", "optimizer.lr=0.2")
UNSTEADY_BOTANIA = ("botania_train.max_epochs=12", "botania_train.lr=1.0")
UNSTEADY_BOTASP = ("botasp_train.max_epochs=12", "botasp_train.lr=0.2")

# key -> (command, settings of the run it is compared with, its new value)
PROBES = {
    "seed": (ALIGN, (), 6),
    "variant": (ALIGN, (), "mlp"),
    "lambda": (ALIGN, (), 0.0),
    "fold": (ALIGN, (), 2),
    "n_folds": (ALIGN, (), 3),
    "cell_size_m": (ALIGN, (), 10000.0),
    "normalize_on_load": (SCALED_PLANT, (), False),
    "model.projection_dim": (ALIGN, MLP, 5),
    "model.botania_hidden": (BOTANIA, (), 12),
    "model.botania_embed": (BOTANIA, (), 6),
    "model.botania_classes": (BOTANIA, (), 5),
    "model.botania_dropout": (BOTANIA, (), 0.1),
    "model.mlp_tab_hidden": (ALIGN, MLP, 8),
    "model.mlp_img_hidden": (ALIGN, MLP, 8),
    "model.attention_model_dim": (ALIGN, ATTENTION, 12),
    "model.adapter_noise_variance": (ALIGN, (), 0.01),
    "model.botasp_hidden": (BOTASP, (), 12),
    "model.botasp_dropout": (BOTASP, (), 0.1),
    "optimizer.lr": (ALIGN, (), 0.01),
    "optimizer.weight_decay": (ALIGN, (), 0.1),
    "train.batch_size": (ALIGN, (), 16),
    "train.max_epochs": (ALIGN, (), 3),
    "train.patience": (ALIGN, UNSTEADY, 1),
    "train.shuffle": (ALIGN, (), False),
    "botania_train.lr": (BOTANIA, (), 0.02),
    "botania_train.max_epochs": (BOTANIA, (), 2),
    "botania_train.patience": (BOTANIA, UNSTEADY_BOTANIA, 1),
    "botasp_train.lr": (BOTASP, (), 0.01),
    "botasp_train.weight_decay": (BOTASP, (), 0.1),
    "botasp_train.max_epochs": (BOTASP, (), 2),
    "botasp_train.patience": (BOTASP, UNSTEADY_BOTASP, 1),
    "metrics.threshold": (PLANT, (), 0.6),
    "metrics.n_trees": (PLANT, (), 5),
    "metrics.min_presences": (PLANT, (), 40),
    "metrics.max_presences": (PLANT, (), 40),
    "metrics.n_strata": (SOIL, (), 3),
    "metrics.seeds": (PLANT, (), 2),
}


def _leaf_keys(cfg, prefix=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, f"{prefix}{key}.")
        else:
            yield prefix + key


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    """run(command, settings) -> (exit code, {output: digest}), each run
    once in its own directory over the shared tiny inputs."""
    root = tmp_path_factory.mktemp("dead")
    tinyrun.write_inputs(root)
    assert main(["split", "--locations", str(root / "data/locations.csv"),
                 "--out", str(root / "data/split.csv")]) == 0
    emb, ids = fileio.load_embeddings(root / "data/images.emb",
                                      normalize=True)
    fileio.save_embeddings(root / "data/scaled.emb",
                           emb * np.linspace(0.5, 2.0, len(emb))[:, None], ids)
    done = {}

    def run(command, settings):
        if (command, settings) not in done:
            out = Path(f"out{len(done)}")
            argv = [*command, "--config", "base.json"]
            if command[0] == "eval":
                argv += ["--out", str(out / "report.csv")]
            else:
                argv += ["--out-dir", str(out)]
            for setting in settings:
                argv += ["--set", setting]
            cwd = os.getcwd()
            os.chdir(root)
            try:
                out.mkdir()
                code = main(argv)
                done[command, settings] = code, tinyrun.digests(out)
            finally:
                os.chdir(cwd)
        return done[command, settings]

    return run


def test_every_key_is_probed_or_allowed():
    keys = set(_leaf_keys(fileio.DEFAULT_CONFIG))
    assert keys == PROBES.keys() | ALLOWED.keys()


@pytest.mark.parametrize("key", sorted(PROBES))
def test_key_changes_the_outputs(runner, key):
    command, settings, value = PROBES[key]
    base = runner(command, settings)
    assert base[0] == 0
    code, outputs = runner(command, settings + (f"{key}={json.dumps(value)}",))
    assert code == 0
    assert outputs != base[1], f"{key}={value!r} changes no output"
