"""The benchmark's two workloads: the synth call that makes each one's
inputs, the tables the benchmark derives from the synth outputs, and the
CLI stages that run on them.

Everything here is the benchmark's own code. It reads and writes the
program's file formats itself and never imports botaclip, so the inputs it
derives and the expectations built from them do not share code with the
program under test.

All paths are relative to a round directory, which is the working
directory of the process that runs the stages.
"""

from __future__ import annotations

import json
import math
import struct

# Cover-abundance classes written into the national survey file: class,
# lower bound of its percent-cover interval, interval midpoint (the value
# prep must put back into the cover matrix).
BB_CLASSES = [("r", 0.0, 0.1), ("+", 0.2, 0.5), ("1", 1.0, 2.5),
              ("2", 5.0, 15.0), ("3", 25.0, 37.5), ("4", 50.0, 62.5),
              ("5", 75.0, 87.5)]
BB_MIDPOINT = {name: mid for name, _, mid in BB_CLASSES}

CELL_SIZE = 5000.0
FOLD = 1  # the CLI's default validation fold


def bb_class(percent: float) -> str:
    name = BB_CLASSES[0][0]
    for cls, lower, _ in BB_CLASSES:
        if percent >= lower:
            name = cls
    return name


class Workload:
    """One workload: sizes, synth arguments, derived inputs and stages.

    `train_logs` lists (path, fixed_epochs, placeholder_columns) for every
    training log; `embeds` lists (input, output) embedding pairs;
    `splits` lists (split manifest, locations file); `reports` maps a
    report path to its task; `stats` lists (stats csv, reports, names).
    """

    name = ""
    why = ""
    # RA_THREADS for the evaluation pool; None leaves the program's default
    ra_threads: str | None = None

    def __init__(self, seed: int):
        self.seed = int(seed)

    def synth_argv(self) -> list[str]:
        raise NotImplementedError

    def derive(self) -> None:
        """Write the benchmark-made inputs, `derive_outputs`."""
        raise NotImplementedError

    def stages(self) -> list[list[str]]:
        raise NotImplementedError

    def frozen_inputs(self) -> list[str]:
        return SYNTH_OUTPUTS + self.derive_outputs

    derive_outputs: list[str] = []
    train_logs: list = []
    embeds: list = []
    splits: list = []
    reports: dict = {}
    stats: list = []
    null_reports: list = []  # reports on constant embeddings
    prep: tuple | None = None  # (survey, cover matrix)


SYNTH_OUTPUTS = ["data/images.emb", "data/covers.csv", "data/locations.csv",
                 "data/classes.csv", "data/latents.csv",
                 "data/eval_species.csv"]


def _synth(pairs, views, img_dim, n_species, seed, n_eval, n_classes=8,
           noise=1.6, cell=CELL_SIZE):
    return ["synth", "--out-dir", "data", "--pairs", str(pairs),
            "--cell-size", repr(cell),
            "--latent-dim", "8", "--img-dim", str(img_dim),
            "--n-species", str(n_species), "--views", str(views),
            "--noise", repr(noise), "--seed", str(seed),
            "--n-classes", str(n_classes), "--n-eval-species", str(n_eval)]


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _plant_stages(embedded: str, covers: str, split: str, cfg: str,
                  out: str, null: bool = False) -> list[list[str]]:
    """Plant eval on the adapted and the raw embeddings (with `null`, also
    on constant ones, data/null.emb), then stats over their reports."""
    models = [("adapted", embedded), ("raw", "data/images.emb")]
    if null:
        models.append(("null", "data/null.emb"))
    reports = [f"{out}/report_{name}.csv" for name, _ in models]
    return [
        *(["eval", "--task", "plant", "--embeddings", emb, "--covers",
           covers, "--split", split, "--config", cfg, "--out", report]
          for (_, emb), report in zip(models, reports)),
        ["stats", "--reports", *reports, "--names",
         *(name for name, _ in models), "--metric", "tss",
         "--out", f"{out}/stats.csv"],
    ]


# --- reading and writing the program's formats, independently ---------------

def read_table(path):
    """(header, rows) of a comma-separated file, rows as string lists."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()]
    return header, rows


def read_emb(path):
    """(rows, cols, float32 payload bytes, ids) of an EMB1 file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"EMB1":
        raise ValueError(f"{path}: not an EMB1 file")
    _, rows, cols = struct.unpack_from("<III", blob, 4)
    start = 16
    payload = blob[start:start + rows * cols * 4]
    pos = start + rows * cols * 4
    (n_ids,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    ids = []
    for _ in range(n_ids):
        (ln,) = struct.unpack_from("<I", blob, pos)
        ids.append(blob[pos + 4:pos + 4 + ln].decode("utf-8"))
        pos += 4 + ln
    if pos != len(blob):
        raise ValueError(f"{path}: {len(blob) - pos} trailing bytes")
    return rows, cols, payload, ids


def write_emb(path, cols: int, row_payloads: list[bytes], ids: list[str]):
    with open(path, "wb") as fh:
        fh.write(b"EMB1")
        fh.write(struct.pack("<III", 1, len(row_payloads), cols))
        fh.write(b"".join(row_payloads))
        fh.write(struct.pack("<I", len(ids)))
        for rid in ids:
            raw = rid.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)


def view0_rows(path="data/images.emb"):
    """{plot id: float32 bytes of its view-0 row} and the column count."""
    rows, cols, payload, ids = read_emb(path)
    width = cols * 4
    out = {}
    for r, rid in enumerate(ids):
        plot, _, view = rid.rpartition("#")
        if view == "0":
            out[plot] = payload[r * width:(r + 1) * width]
    return out, cols


# --- desk -------------------------------------------------------------------

class Desk(Workload):
    """The README walkthrough, plus butterfly and soil evaluation."""

    name = "desk"
    why = ("README model at d=64 on a sparse 192-plot sample: forests on "
           "narrow embeddings, bound by per-node Python; many small steps")
    PAIRS, VIEWS, DIM, SPECIES = 192, 4, 64, 64
    SYNTH_CELL = 50000.0
    EPOCHS = 100
    PATIENCE = 100
    EVAL_SPECIES, PLANT_TREES = 6, 25
    BUTTERFLY_SPECIES, BUTTERFLY_TREES = 2, 10
    SOIL_SAMPLES, SOIL_GROUPS, SOIL_TREES = 60, 2, 1

    derive_outputs = ["train.json", "eval_butterfly.json", "eval_soil.json",
                      "data/null.emb", "data/occurrences.csv",
                      "data/occ_images.emb", "data/soil.csv",
                      "data/soil_images.emb"]
    train_logs = [("run/train_log.csv", EPOCHS, ())]
    embeds = [("data/images.emb", "run/adapted.emb"),
              ("data/occ_images.emb", "run/occ_adapted.emb"),
              ("data/soil_images.emb", "run/soil_adapted.emb")]
    splits = [("run/split.csv", "data/locations.csv")]
    reports = {"run/report_adapted.csv": "plant", "run/report_raw.csv": "plant",
               "run/report_null.csv": "plant",
               "run/report_butterfly.csv": "butterfly",
               "run/report_soil.csv": "soil"}
    null_reports = ["run/report_null.csv"]
    # the null model ranks last on every species that the others predict
    # at all, so Friedman can be significant over the 6 species and the
    # Wilcoxon and Holm rows are written
    stats = [("run/stats.csv", ["run/report_adapted.csv", "run/report_raw.csv",
                                "run/report_null.csv"],
              ["adapted", "raw", "null"])]

    def synth_argv(self):
        return _synth(self.PAIRS, self.VIEWS, self.DIM, self.SPECIES,
                      self.seed, self.EVAL_SPECIES, cell=self.SYNTH_CELL)

    def derive(self):
        _write_json("train.json", {
            "seed": self.seed,
            "data": {"embeddings": "data/images.emb",
                     "covers": "data/covers.csv",
                     "locations": "data/locations.csv"},
            "model": {"botania_hidden": 96, "botania_classes": 8},
            "train": {"max_epochs": self.EPOCHS, "patience": self.PATIENCE},
            "metrics": {"n_trees": self.PLANT_TREES}})
        _write_json("eval_butterfly.json",
                    {"seed": self.seed,
                     "metrics": {"n_trees": self.BUTTERFLY_TREES}})
        _write_json("eval_soil.json",
                    {"seed": self.seed,
                     "metrics": {"n_trees": self.SOIL_TREES}})
        self._derive_null()
        view0, cols = view0_rows()
        _, locs = read_table("data/locations.csv")
        xy = {r[0]: (r[1], r[2]) for r in locs}
        plots = [r[0] for r in locs]
        self._derive_occurrences(view0, cols, xy)
        self._derive_soil(view0, cols, xy, plots)

    @staticmethod
    def _derive_null():
        """data/null.emb: the rows and ids of data/images.emb, every row the
        first unit vector."""
        rows, cols, _, ids = read_emb("data/images.emb")
        row = struct.pack(f"<{cols}f", 1.0, *([0.0] * (cols - 1)))
        write_emb("data/null.emb", cols, [row] * rows, ids)

    def _derive_occurrences(self, view0, cols, xy):
        """One row per (butterfly species, plot). A species is a synthetic
        evaluation species; where it is present on more than half of the
        plots its complement is used, so that 1:1 pseudo-absences exist."""
        header, rows = read_table("data/eval_species.csv")
        lines = ["species_id,x_m,y_m,label"]
        payloads, ids = [], []
        for j in range(self.BUTTERFLY_SPECIES):
            sp = header[1 + j]
            labels = [int(r[1 + j]) for r in rows]
            if 2 * sum(labels) > len(labels):
                labels = [1 - v for v in labels]
            for r, lab in zip(rows, labels):
                x, y = xy[r[0]]
                lines.append(f"{sp},{x},{y},{lab}")
                payloads.append(view0[r[0]])
                ids.append(f"{sp}/{r[0]}")
        with open("data/occurrences.csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        write_emb("data/occ_images.emb", cols, payloads, ids)

    def _derive_soil(self, view0, cols, xy, plots):
        """The first plots as soil samples. Elevation and group abundances
        are smooth functions of the plot's ground-truth latent vector, so
        the embeddings carry signal about them."""
        _, lat = read_table("data/latents.csv")
        groups = [f"g{k + 1}" for k in range(self.SOIL_GROUPS)]
        lines = [",".join(["sample_id", "x_m", "y_m", "elevation_m"] + groups)]
        for r in lat[:self.SOIL_SAMPLES]:
            t = [float(v) for v in r[1:]]
            elevation = 800.0 + 400.0 * t[0]
            abund = [math.log1p(math.exp(t[1 + k])) for k in range(len(groups))]
            x, y = xy[r[0]]
            lines.append(",".join([r[0], x, y, repr(elevation)]
                                  + [repr(a) for a in abund]))
        with open("data/soil.csv", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        sample = plots[:self.SOIL_SAMPLES]
        write_emb("data/soil_images.emb", cols, [view0[p] for p in sample],
                  sample)

    def stages(self):
        *plant, stats = _plant_stages("run/adapted.emb",
                                      "data/eval_species.csv", "run/split.csv",
                                      "train.json", "run", null=True)
        return [
            ["train-botaclip", "--config", "train.json", "--out-dir", "run"],
            ["embed", "--checkpoint", "run/model.ckpt",
             "--embeddings", "data/images.emb", "--out", "run/adapted.emb"],
            ["embed", "--checkpoint", "run/model.ckpt",
             "--embeddings", "data/occ_images.emb",
             "--out", "run/occ_adapted.emb"],
            ["embed", "--checkpoint", "run/model.ckpt",
             "--embeddings", "data/soil_images.emb",
             "--out", "run/soil_adapted.emb"],
            *plant,
            ["eval", "--task", "butterfly", "--embeddings",
             "run/occ_adapted.emb", "--occurrences", "data/occurrences.csv",
             "--config", "eval_butterfly.json",
             "--out", "run/report_butterfly.csv"],
            ["eval", "--task", "soil", "--embeddings", "run/soil_adapted.emb",
             "--soil", "data/soil.csv", "--config", "eval_soil.json",
             "--out", "run/report_soil.csv"],
            stats,
        ]


# --- canonical ----------------------------------------------------------------

class Canonical(Workload):
    """The paper's widths (d=768, 3587 species, cover MLP 3587-1536-768-232,
    BotaSP hidden 1536) on a modest sample, entering through a long-format
    survey file; fixed epoch count."""

    name = "canonical"
    why = ("paper widths d=768, 3587 species, from a survey through prep: "
           "CSV ingestion, dense float64 matmuls, AdamW, peak memory; "
           "forest in its wide regime")
    PAIRS, VIEWS, DIM, SPECIES, CLASSES = 128, 4, 768, 3587, 232
    SYNTH_CELL = 50000.0
    EPOCHS = 2
    EVAL_SPECIES, TREES = 2, 100
    ra_threads = "1"

    derive_outputs = ["train.json", "train_botaclip.json", "data/survey.csv"]
    train_logs = [("botania/train_log.csv", EPOCHS, ("tau", "b")),
                  ("run/train_log.csv", EPOCHS, ()),
                  ("botasp/train_log.csv", EPOCHS, ("tau", "b"))]
    embeds = [("data/images.emb", "run/adapted.emb")]
    splits = [("prep/split.csv", "prep/locations.csv"),
              ("run/split.csv", "prep/locations.csv")]
    reports = {"run/report_adapted.csv": "plant", "run/report_raw.csv": "plant"}
    stats = [("run/stats.csv", ["run/report_adapted.csv", "run/report_raw.csv"],
              ["adapted", "raw"])]
    prep = ("data/survey.csv", "prep/cover_matrix.csv")

    def synth_argv(self):
        return _synth(self.PAIRS, self.VIEWS, self.DIM, self.SPECIES,
                      self.seed, self.EVAL_SPECIES, n_classes=self.CLASSES,
                      cell=self.SYNTH_CELL)

    def derive(self):
        fixed = {"max_epochs": self.EPOCHS, "patience": self.EPOCHS}
        cfg = {"seed": self.seed,
               "data": {"embeddings": "data/images.emb",
                        "covers": "prep/cover_matrix.csv",
                        "locations": "prep/locations.csv",
                        "labels": "prep/labels.csv"},
               "train": dict(fixed), "botania_train": dict(fixed),
               "botasp_train": dict(fixed),
               "metrics": {"n_trees": self.TREES}}
        _write_json("train.json", cfg)
        cfg["data"]["botania_checkpoint"] = "botania/botania.ckpt"
        _write_json("train_botaclip.json", cfg)
        derive_survey()

    def stages(self):
        return [
            ["prep", "--releves", "data/survey.csv", "--out-dir", "prep"],
            ["split", "--locations", "prep/locations.csv",
             "--out", "prep/split.csv", "--seed", str(self.seed)],
            ["train-botania", "--config", "train.json", "--out-dir", "botania"],
            ["train-botaclip", "--config", "train_botaclip.json",
             "--out-dir", "run"],
            ["train-botasp", "--config", "train.json", "--out-dir", "botasp"],
            ["embed", "--checkpoint", "run/model.ckpt",
             "--embeddings", "data/images.emb", "--out", "run/adapted.emb"],
            *_plant_stages("run/adapted.emb", "data/eval_species.csv",
                           "run/split.csv", "train.json", "run"),
        ]


def derive_survey():
    """data/survey.csv: the long-format survey, one row per (plot, species
    with cover > 0), the cover written as its cover-abundance class and the
    plot's synth class as its prodrome class. Streams the synth covers so
    the benchmark holds little memory of its own."""
    _, locs = read_table("data/locations.csv")
    _, classes = read_table("data/classes.csv")
    with open("data/covers.csv", encoding="utf-8") as src, \
            open("data/survey.csv", "w", encoding="utf-8") as out:
        species = src.readline().rstrip("\n").split(",")[1:]
        out.write("plot_id,x_m,y_m,prodrome_class,species_id,bb_class\n")
        for line, loc, cls in zip(src, locs, classes):
            parts = line.rstrip("\n").split(",")
            pre = f"{parts[0]},{loc[1]},{loc[2]},{cls[1]},"
            out.write("".join(
                f"{pre}{species[j]},{bb_class(float(v))}\n"
                for j, v in enumerate(parts[1:])
                if v != "0.0" and float(v) > 0.0))


class Mini(Desk):
    """A desk round cut to a few seconds, for the checks' self-test."""

    name = "mini"
    PAIRS, VIEWS = 256, 2
    EPOCHS = PATIENCE = 3
    train_logs = [("run/train_log.csv", EPOCHS, ())]
    PLANT_TREES, BUTTERFLY_TREES, SOIL_TREES = 5, 5, 1


WORKLOADS = {w.name: w for w in (Desk, Canonical)}


def workload(name: str, seed: int) -> Workload:
    return {**WORKLOADS, Mini.name: Mini}[name](seed)

TRAIN_COMMANDS = ("train-botania", "train-botaclip", "train-botasp")


def stage_name(argv: list[str]) -> str:
    """cli.<name>_s label of one stage: the command, with the task for
    eval, dashes as underscores."""
    name = argv[0]
    if name == "eval":
        name = f"eval_{argv[argv.index('--task') + 1]}"
    return name.replace("-", "_")
