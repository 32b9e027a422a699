"""A tiny synthetic run of every command, shared by the pinned-digest and
the dead-config tests.

write_inputs(root) writes the inputs under root/data: the `synth` files,
plus butterfly occurrences and soil samples derived from them, each with an
embedding file of their own. run_pipeline(root) then runs synth ->
train-botania -> train-botaclip (the three variants) -> train-botasp ->
embed (the adapters and BotaSP) -> eval (plant, butterfly, soil) -> stats
-> cluster-metrics into root/run, and prep -> split on a long-format survey
derived from the synth covers into root/run/prep. It returns the SHA-256 of
every file under root/data and root/run, manifests left out.

    python tests/tinyrun.py DIR > tests/pinned_digests.json

runs the pipeline in DIR and prints the digests, with the numpy and BLAS
versions they were taken with, as the JSON table that
tests/test_pinned_outputs.py compares against.
"""

import contextlib
import ctypes
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from botaclip import fileio
from botaclip.cli import main

SYNTH = ["--pairs", "96", "--latent-dim", "4", "--img-dim", "8",
         "--n-species", "12", "--views", "2", "--noise", "0.5", "--seed", "3",
         "--cell-size", "20000", "--n-classes", "4", "--n-eval-species", "4"]
BUTTERFLY_SPECIES = 2
SOIL_SAMPLES = 48
# Braun-Blanquet cover-abundance classes, each with the lowest percent
# cover that the survey writes it for
BB_FLOORS = (("r", 0.0), ("+", 1.0), ("1", 5.0), ("2", 25.0), ("3", 50.0),
             ("4", 75.0), ("5", 95.0))

# a run configuration that each tiny command finishes in well under a
# second with; relative paths, so outputs do not depend on the directory
BASE_CONFIG = {
    "seed": 5,
    "data": {"embeddings": "data/images.emb", "covers": "data/covers.csv",
             "locations": "data/locations.csv", "labels": "data/classes.csv"},
    "model": {"projection_dim": 6, "botania_hidden": 10, "botania_embed": 8,
              "botania_classes": 4, "mlp_tab_hidden": 10,
              "mlp_img_hidden": 12, "attention_model_dim": 8,
              "botasp_hidden": 10},
    "train": {"batch_size": 32, "max_epochs": 4},
    "botania_train": {"lr": 0.01, "max_epochs": 3},
    "botasp_train": {"max_epochs": 3},
    "metrics": {"n_trees": 4},
}


def run(argv) -> None:
    rc = main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"exit {rc}: {argv}")


def write_inputs(root) -> None:
    data = Path(root) / "data"
    run(["synth", "--out-dir", data, *SYNTH])
    emb, ids = fileio.load_embeddings(data / "images.emb", normalize=False)
    view0 = {rid[:-2]: row for rid, row in zip(ids, emb) if rid[-2:] == "#0"}
    loc_ids, xy = fileio.read_locations(data / "locations.csv")

    # butterflies: the first evaluation species, complemented where they
    # are present on most plots, so that 1:1 pseudo-absences exist
    presence, plots, species = fileio.read_matrix_csv(
        data / "eval_species.csv")
    rows, occ_ids, occ_emb = [], [], []
    for j in range(BUTTERFLY_SPECIES):
        labels = presence[:, j].astype(np.int64)
        if 2 * labels.sum() > labels.size:
            labels = 1 - labels
        for p, point, label in zip(plots, xy, labels):
            rows.append([species[j], point[0], point[1], int(label)])
            occ_ids.append(f"{species[j]}/{p}")
            occ_emb.append(view0[p])
    fileio.write_csv(data / "occurrences.csv",
                     ["species_id", "x_m", "y_m", "label"], rows)
    fileio.save_embeddings(data / "occ_images.emb", np.array(occ_emb), occ_ids)

    # soil: elevation and two group abundances from the plot's latent
    latents, _, _ = fileio.read_matrix_csv(data / "latents.csv")
    rows = []
    for k in range(SOIL_SAMPLES):
        t = latents[k]
        rows.append([loc_ids[k], xy[k][0], xy[k][1], 800.0 + 400.0 * t[0],
                     math.log1p(math.exp(t[1])), math.log1p(math.exp(t[2]))])
    fileio.write_csv(data / "soil.csv", ["sample_id", "x_m", "y_m",
                                         "elevation_m", "g1", "g2"], rows)
    soil_ids = loc_ids[:SOIL_SAMPLES]
    fileio.save_embeddings(data / "soil_images.emb",
                           np.array([view0[p] for p in soil_ids]), soil_ids)
    (Path(root) / "base.json").write_text(json.dumps(BASE_CONFIG))


def write_survey(data) -> None:
    """data/survey.csv: the long-format survey of the synth plots, one row
    per plot and species with a cover above 0, the cover as its class and
    the synth class as the prodrome class. covers.csv is split as text, so
    the survey does not depend on the matrix reader."""
    lines = (Path(data) / "covers.csv").read_text().splitlines()
    species = lines[0].split(",")[1:]
    _, locations = fileio.read_csv(Path(data) / "locations.csv")
    _, classes = fileio.read_csv(Path(data) / "classes.csv")
    rows = []
    for line, (plot, x, y), (_, cls) in zip(lines[1:], locations, classes):
        plot_id, *covers = line.split(",")
        assert plot_id == plot
        for sp, cover in zip(species, map(float, covers)):
            if cover > 0.0:
                bb = [name for name, floor in BB_FLOORS if cover >= floor][-1]
                rows.append([plot, x, y, cls, sp, bb])
    fileio.write_csv(Path(data) / "survey.csv",
                     ["plot_id", "x_m", "y_m", "prodrome_class", "species_id",
                      "bb_class"], rows)


def versions() -> dict:
    """The numpy and BLAS builds the arithmetic of a run depends on, and
    the kernel that a DYNAMIC_ARCH OpenBLAS, as in numpy's wheels, picks
    for this CPU at run time."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"numpy": np.__version__,
           "blas": f"{blas['name']} {blas.get('version', '?')}"}
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs")
                      .glob("*openblas*")):
        core = getattr(ctypes.CDLL(str(lib)),
                       "scipy_openblas_get_corename64_", None)
        if core is not None:
            core.restype = ctypes.c_char_p
            out["blas_core"] = core().decode()
    return out


def digests(directory) -> dict:
    """{file name: SHA-256} of every file in directory but the manifests."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(directory).iterdir())
            if p.is_file() and "manifest" not in p.name}


def run_pipeline(root) -> dict:
    cwd = os.getcwd()
    os.chdir(root)
    try:
        write_inputs(".")
        cfg = ["--config", "base.json"]
        run(["train-botania", *cfg, "--out-dir", "run/botania"])
        run(["train-botaclip", *cfg, "--out-dir", "run/align",
             "--set", "data.botania_checkpoint=run/botania/botania.ckpt"])
        for variant in ("mlp", "attention"):
            run(["train-botaclip", *cfg, "--out-dir", f"run/{variant}",
                 "--set", f"variant={variant}"])
            run(["embed", "--checkpoint", f"run/{variant}/model.ckpt",
                 "--embeddings", "data/images.emb",
                 "--out", f"run/{variant}/adapted.emb"])
        run(["train-botasp", *cfg, "--out-dir", "run/botasp"])
        run(["embed", "--checkpoint", "run/botasp/botasp.ckpt",
             "--embeddings", "data/images.emb",
             "--out", "run/botasp/features.emb"])
        for name in ("images", "occ_images", "soil_images"):
            run(["embed", "--checkpoint", "run/align/model.ckpt",
                 "--embeddings", f"data/{name}.emb",
                 "--out", f"run/{name}_adapted.emb"])
        for name, emb in (("adapted", "run/images_adapted.emb"),
                          ("raw", "data/images.emb")):
            run(["eval", "--task", "plant", *cfg, "--embeddings", emb,
                 "--covers", "data/eval_species.csv",
                 "--split", "run/align/split.csv",
                 "--out", f"run/report_{name}.csv"])
        run(["eval", "--task", "butterfly", *cfg,
             "--embeddings", "run/occ_images_adapted.emb",
             "--occurrences", "data/occurrences.csv",
             "--out", "run/report_butterfly.csv"])
        run(["eval", "--task", "soil", *cfg,
             "--embeddings", "run/soil_images_adapted.emb",
             "--soil", "data/soil.csv", "--out", "run/report_soil.csv"])
        run(["stats", "--reports", "run/report_adapted.csv",
             "run/report_raw.csv", "--names", "adapted", "raw",
             "--metric", "tss", "--out", "run/stats.csv"])
        run(["cluster-metrics", "--embeddings", "run/images_adapted.emb",
             "--labels", "data/classes.csv", "--out", "run/cluster.csv"])
        write_survey("data")
        run(["prep", "--releves", "data/survey.csv", "--out-dir", "run/prep"])
        run(["split", "--locations", "run/prep/locations.csv",
             "--out", "run/prep/split.csv", "--seed", "5"])
        out = {}
        for directory in ["data", "run", *sorted(Path("run").glob("*/"))]:
            out.update({f"{Path(directory).as_posix()}/{name}": digest
                        for name, digest in digests(directory).items()})
        return out
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    with contextlib.redirect_stdout(sys.stderr):
        table = {"versions": versions(), "digests": run_pipeline(sys.argv[1])}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
