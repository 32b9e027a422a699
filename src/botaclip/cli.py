"""Command-line surface chaining ingestion, training, embedding export,
downstream evaluation and statistics.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Failures emit one JSON line on stderr. A command that writes files writes a
manifest of the resolved config and content hashes of its inputs and outputs,
so a rerun with the same config and seed reproduces every file bit for bit.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, evaluate, fileio, synth, training
from .dataprep import CoverMatrix, PairedDataset, binarize_presence, filter_by_support
from .errors import DataError, NumericError, UsageError
from .metrics import cluster_indices
from .numerics import Rng
from .spatial import FoldAssignment, buffered_split, roles_for_fold
from .stats import ablation_report
from .training import TrainConfig

# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit_error(exc: Exception, code: int) -> int:
    line = json.dumps({"error": type(exc).__name__, "exit": code,
                       "message": str(exc)})
    print(line, file=sys.stderr)
    return code


def _parse_set(values):
    overrides: dict = {}
    for item in values or []:
        if "=" not in item:
            raise UsageError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        fileio.set_config_key(overrides, key, value)
    return overrides


def _load_cfg(args) -> dict:
    """The run configuration of the flags config_flags adds."""
    overrides = _parse_set(args.set)
    if args.seed is not None:
        overrides["seed"] = args.seed
    return fileio.load_config(args.config, overrides)


def _model_from_checkpoint(path, build, what: str):
    """build(state) over the checkpoint at path; a checkpoint that lacks a
    parameter the model needs, such as another trainer's, is a DataError."""
    state = fileio.load_checkpoint(path)
    try:
        return build(state)
    except KeyError as exc:
        raise DataError(f"{path}: not {what} checkpoint (no parameter "
                        f"{exc})") from None


def _outdir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- dataset assembly helpers ---------------------------------------------------

def _view_keys(emb_ids) -> list:
    """(plot, view) of each embedding row id, "plot#view" or "plot" for
    view 0. A view that is not an integer in [0, 2**63), or a (plot, view)
    that two rows share, raises DataError."""
    id_of = {}  # (plot, view) -> row id, in row order
    for rid in emb_ids:
        plot, sep, view = rid.rpartition("#")
        try:
            key = (plot, int(view)) if sep else (rid, 0)
            if not 0 <= key[1] < 2 ** 63:  # an int64 view index
                raise ValueError
        except ValueError:
            raise DataError(f"embedding row id {rid!r}: view {view!r} is not "
                            "an integer in [0, 2**63)") from None
        if key in id_of:
            raise DataError(f"embedding rows {id_of[key]!r} and {rid!r} "
                            f"are both view {key[1]} of plot {key[0]!r}")
        id_of[key] = rid
    return list(id_of)


def _locations_of(path, plot_ids) -> np.ndarray:
    """The points of the locations file at path, one per plot of plot_ids
    in that order, matched by id; rows of other plots are ignored."""
    ids, pts = fileio.read_locations(path)
    row_of = {i: k for k, i in enumerate(ids)}
    missing = [p for p in plot_ids if p not in row_of]
    if missing:
        raise DataError(f"no location for plot {missing[0]}")
    return pts[[row_of[p] for p in plot_ids]]


def _paired_dataset(emb, emb_ids, covers: CoverMatrix, pts):
    pair_of = {p: i for i, p in enumerate(covers.plot_ids)}
    if emb_ids is None:
        if emb.shape[0] != len(covers.plot_ids):
            raise DataError("embedding rows must match cover plots when the "
                            "file carries no row ids")
        pair_index = np.arange(emb.shape[0])
        view_index = np.zeros(emb.shape[0], dtype=np.int64)
    else:
        pair_index = np.empty(emb.shape[0], dtype=np.int64)
        view_index = np.empty(emb.shape[0], dtype=np.int64)
        for r, (plot, view) in enumerate(_view_keys(emb_ids)):
            if plot not in pair_of:
                raise DataError(
                    f"embedding row {emb_ids[r]!r} has no cover plot")
            pair_index[r] = pair_of[plot]
            view_index[r] = view
    return PairedDataset(emb, pair_index, view_index, covers.values, pts,
                         list(covers.plot_ids))


def _view0_matrix(emb, emb_ids, plot_ids):
    """One embedding row per plot, the first view, ordered like plot_ids."""
    if emb_ids is None:
        if emb.shape[0] != len(plot_ids):
            raise DataError("embedding rows must match plots 1:1")
        return emb
    row_of = {plot: r for r, (plot, view) in enumerate(_view_keys(emb_ids))
              if view == 0}
    missing = [p for p in plot_ids if p not in row_of]
    if missing:
        raise DataError(f"no view-0 embedding for plot {missing[0]}")
    return emb[[row_of[p] for p in plot_ids]]


def _assignment_from_cfg(points, cfg) -> FoldAssignment:
    return FoldAssignment.build(points, cfg["n_folds"],
                                Rng(cfg["seed"]).substream("folds"),
                                cfg["cell_size_m"])


def _assignment_from_split_file(path) -> tuple[FoldAssignment, list[str]]:
    ids, cells, folds, _ = fileio.read_split_manifest(path)
    fold_of_cell = {}
    for k, (cell, fold) in enumerate(zip(map(tuple, cells.tolist()),
                                         folds.tolist())):
        prev = fold_of_cell.setdefault(cell, fold)
        if prev != fold:
            raise fileio.row_error(
                path, k, f"cell {cell} maps to folds {prev} and {fold}")
    return FoldAssignment(float("nan"), int(folds.max()) + 1, cells,
                          fold_of_cell, folds), ids


def _save_model(out, name, model, log) -> list[Path]:
    """Write model to out/name and log to out/train_log.csv; their paths."""
    paths = [out / name, out / "train_log.csv"]
    fileio.save_checkpoint(paths[0], training.model_state(model))
    log.to_csv(paths[1])
    return paths


def _train_cfg(cfg, section) -> TrainConfig:
    """The section's training settings, each count checked to be at least 1
    before anything is read or written."""
    block = cfg[section]
    for key, value in (("train.batch_size", cfg["train"]["batch_size"]),
                       (f"{section}.max_epochs", block["max_epochs"]),
                       (f"{section}.patience", block["patience"])):
        if value < 1:
            raise ValueError(f"{key} must be >= 1, got {value}")
    return TrainConfig(batch_size=cfg["train"]["batch_size"],
                       max_epochs=block["max_epochs"],
                       patience=block["patience"],
                       lam=cfg["lambda"],
                       seed=cfg["seed"],
                       shuffle=cfg["train"]["shuffle"])


# --- subcommands -----------------------------------------------------------------
# each returns its manifest's (config, inputs, outputs), or None if it wrote none

def cmd_synth(args):
    out = _outdir(args)
    data = synth.generate_synthetic(
        pairs=args.pairs, latent_dim=args.latent_dim, img_dim=args.img_dim,
        n_species=args.n_species, views_per_pair=args.views,
        noise=args.noise, seed=args.seed, cell_size=args.cell_size,
        n_classes=args.n_classes, n_eval_species=args.n_eval_species)
    ds = data.dataset
    fileio.save_embeddings(out / "images.emb", ds.images,
                           ids=synth.view_ids(data))
    fileio.write_matrix_csv(out / "covers.csv", ds.covers, ds.plot_ids,
                            data.species_ids)
    fileio.write_locations(out / "locations.csv", ds.plot_ids, ds.locations)
    fileio.write_labels(out / "classes.csv", ds.plot_ids, data.class_labels)
    fileio.write_matrix_csv(out / "latents.csv", data.latents, ds.plot_ids,
                            [f"t{k}" for k in range(data.latents.shape[1])])
    fileio.write_matrix_csv(out / "eval_species.csv", data.eval_presence,
                            ds.plot_ids, data.eval_species_ids)
    cfg = {k: getattr(args, k) for k in
           ("pairs", "latent_dim", "img_dim", "n_species", "views", "noise",
            "seed", "cell_size", "n_classes", "n_eval_species")}
    outputs = [out / n for n in ("images.emb", "covers.csv", "locations.csv",
                                 "classes.csv", "latents.csv",
                                 "eval_species.csv")]
    print(f"wrote {len(outputs)} files to {out}")
    return cfg, [], outputs


def cmd_prep(args):
    releves = fileio.read_releves(args.releves)
    inputs = [args.releves]
    if args.species_index:
        inputs.append(args.species_index)
        text = Path(args.species_index).read_text(encoding="utf-8")
        species = [ln.strip() for ln in text.splitlines() if ln.strip()]
    else:
        species = sorted({sp for rel in releves
                          for sp, _ in rel.species_covers})
    from .dataprep import build_cover_matrix
    matrix, labels = build_cover_matrix(releves, species)
    out = _outdir(args)
    fileio.write_matrix_csv(out / "cover_matrix.csv", matrix.values,
                            matrix.plot_ids, matrix.species_ids)
    fileio.write_labels(out / "labels.csv", matrix.plot_ids, labels)
    fileio.write_locations(out / "locations.csv", matrix.plot_ids,
                           [(r.x, r.y) for r in releves])
    print(f"{len(releves)} plots x {len(species)} species -> {out}")
    return ({"species_index": args.species_index or "derived"}, inputs,
            [out / n for n in ("cover_matrix.csv", "labels.csv",
                               "locations.csv")])


def cmd_split(args):
    ids, pts = fileio.read_locations(args.locations)
    fa = FoldAssignment.build(pts, args.folds,
                              Rng(args.seed).substream("folds"),
                              args.cell_size)
    roles = roles_for_fold(fa, args.fold)
    fileio.write_split_manifest(args.out, ids, fa.cells, fa.fold_ids, roles)
    cfg = {"cell_size": args.cell_size, "folds": args.folds,
           "fold": args.fold, "seed": args.seed}
    n_val = int(np.sum(roles == "validation"))
    n_buf = int(np.sum(roles == "buffer-excluded"))
    print(f"{len(ids)} samples: {len(ids) - n_val - n_buf} train, "
          f"{n_val} validation, {n_buf} buffer-excluded")
    return cfg, [args.locations], [args.out]


def cmd_train_botania(args):
    cfg = _load_cfg(args)
    tcfg = _train_cfg(cfg, "botania_train")
    data = cfg["data"]
    covers, plot_ids, _ = fileio.read_matrix_csv(data["covers"])
    label_ids, labels = fileio.read_labels(data["labels"])
    if label_ids != plot_ids:
        raise DataError("labels and covers disagree on plot order")
    fa = _assignment_from_cfg(_locations_of(data["locations"], plot_ids), cfg)
    train_idx, val_idx = buffered_split(fa, cfg["fold"])
    model, log = training.train_botania(
        covers, labels, train_idx, val_idx, tcfg,
        hidden=cfg["model"]["botania_hidden"],
        embed=cfg["model"]["botania_embed"],
        n_classes=cfg["model"]["botania_classes"],
        dropout_rate=cfg["model"]["botania_dropout"],
        lr=cfg["botania_train"]["lr"])
    out = _outdir(args)
    outputs = _save_model(out, "botania.ckpt", model, log)
    acc = training.botania_accuracy(model, covers[val_idx], labels[val_idx])
    print(f"best epoch {log.best_epoch}, val top-1 accuracy {acc:.3f}")
    return cfg, [data["covers"], data["labels"], data["locations"]], outputs


def cmd_train_botaclip(args):
    cfg = _load_cfg(args)
    tcfg = _train_cfg(cfg, "train")
    data = cfg["data"]
    if data["botania_checkpoint"] and cfg["variant"] != "botania-linear":
        raise UsageError("data.botania_checkpoint seeds only the "
                         f"botania-linear variant, not {cfg['variant']!r}")
    emb, emb_ids = fileio.load_embeddings(data["embeddings"],
                                          normalize=cfg["normalize_on_load"])
    covers = CoverMatrix(*fileio.read_matrix_csv(data["covers"]))
    pairs = _paired_dataset(emb, emb_ids, covers,
                            _locations_of(data["locations"], covers.plot_ids))
    fa = _assignment_from_cfg(pairs.locations, cfg)

    m = cfg["model"]
    inputs = [data["embeddings"], data["covers"], data["locations"]]
    botania = None
    if data["botania_checkpoint"]:
        inputs.append(data["botania_checkpoint"])
        botania = _model_from_checkpoint(
            data["botania_checkpoint"],
            lambda state: training.botania_from_state(
                state, dropout_rate=m["botania_dropout"]),
            "a BotaNIA")
    linear = cfg["variant"] == "botania-linear"
    model, log = training.train_botaclip(
        pairs, fa, tcfg, variant=cfg["variant"], fold=cfg["fold"],
        lr=cfg["optimizer"]["lr"],
        weight_decay=cfg["optimizer"]["weight_decay"],
        proj_dim=emb.shape[1] if linear else m["projection_dim"],
        botania=botania, botania_hidden=m["botania_hidden"],
        botania_classes=m["botania_classes"],
        botania_dropout=m["botania_dropout"],
        adapter_noise_variance=m["adapter_noise_variance"],
        mlp_img_hidden=m["mlp_img_hidden"], mlp_tab_hidden=m["mlp_tab_hidden"],
        attn_model_dim=m["attention_model_dim"])
    out = _outdir(args)
    outputs = _save_model(out, "model.ckpt", model, log) + [out / "split.csv"]
    fileio.write_split_manifest(outputs[-1], pairs.plot_ids, fa.cells,
                                fa.fold_ids, roles_for_fold(fa, cfg["fold"]))
    print(f"variant {cfg['variant']}, best epoch {log.best_epoch}, "
          f"val loss {min(log.val_loss):.5f}")
    return cfg, inputs, outputs


def cmd_train_botasp(args):
    cfg = _load_cfg(args)
    tcfg = _train_cfg(cfg, "botasp_train")
    data = cfg["data"]
    emb, emb_ids = fileio.load_embeddings(data["embeddings"],
                                          normalize=cfg["normalize_on_load"])
    covers_vals, plot_ids, _ = fileio.read_matrix_csv(data["covers"])
    X = _view0_matrix(emb, emb_ids, plot_ids)
    binary = binarize_presence(covers_vals)
    kept = filter_by_support(binary, cfg["metrics"]["min_presences"],
                             cfg["metrics"]["max_presences"] or None)
    if kept.size == 0:
        raise DataError("no species pass the support filter")
    fa = _assignment_from_cfg(_locations_of(data["locations"], plot_ids), cfg)
    train_idx, val_idx = buffered_split(fa, cfg["fold"])
    model, log = training.train_botasp(
        X, binary[:, kept], train_idx, val_idx, tcfg,
        proj_dim=X.shape[1], hidden=cfg["model"]["botasp_hidden"],
        dropout_rate=cfg["model"]["botasp_dropout"],
        lr=cfg["botasp_train"]["lr"],
        weight_decay=cfg["botasp_train"]["weight_decay"])
    out = _outdir(args)
    outputs = _save_model(out, "botasp.ckpt", model, log)
    print(f"{kept.size} species, best epoch {log.best_epoch}")
    return cfg, [data["embeddings"], data["covers"], data["locations"]], outputs


def cmd_embed(args):
    model = _model_from_checkpoint(args.checkpoint,
                                   training.alignment_model_from_state,
                                   "an alignment model")
    emb, ids = fileio.load_embeddings(args.embeddings,
                                      normalize=not args.raw_input)
    adapted = model.encode_images(emb)
    fileio.save_embeddings(args.out, adapted, ids=ids)
    print(f"adapted {adapted.shape[0]} x {adapted.shape[1]} -> {args.out}")
    return ({"raw_input": args.raw_input}, [args.checkpoint, args.embeddings],
            [args.out])


def cmd_eval(args):
    cfg = _load_cfg(args)
    met = cfg["metrics"]
    if met["seeds"] < 1:
        raise ValueError(f"metrics.seeds must be >= 1, got {met['seeds']}")
    if not 0.0 <= met["threshold"] <= 1.0:
        raise ValueError("metrics.threshold must be in [0, 1], got "
                         f"{met['threshold']}")
    seeds = tuple(range(met["seeds"]))
    if args.task == "plant" and not (args.covers and args.split):
        raise UsageError("plant task needs --covers and --split")
    if args.task == "butterfly" and not args.occurrences:
        raise UsageError("butterfly task needs --occurrences")
    if args.task == "soil" and not args.soil:
        raise UsageError("soil task needs --soil")
    emb, emb_ids = fileio.load_embeddings(args.embeddings,
                                          normalize=cfg["normalize_on_load"])
    if args.task == "plant":
        covers = CoverMatrix(*fileio.read_matrix_csv(args.covers))
        fa, split_ids = _assignment_from_split_file(args.split)
        if split_ids != covers.plot_ids:
            raise DataError("split manifest and covers disagree on plots")
        X = _view0_matrix(emb, emb_ids, covers.plot_ids)
        report = evaluate.eval_plant(
            X, covers, fa, cfg["fold"], n_trees=met["n_trees"],
            threshold=met["threshold"], min_presences=met["min_presences"],
            max_presences=met["max_presences"] or None, seeds=seeds)
        inputs = [args.embeddings, args.covers, args.split]
    elif args.task == "butterfly":
        occ, row_index = fileio.read_occurrences(args.occurrences)
        report = evaluate.eval_butterfly(
            emb, occ, row_index, n_folds=cfg["n_folds"],
            cell_size=cfg["cell_size_m"], n_trees=met["n_trees"],
            threshold=met["threshold"], seeds=seeds)
        inputs = [args.embeddings, args.occurrences]
    else:  # soil, the last of the parser's choices
        table = fileio.read_soil(args.soil)
        report = evaluate.eval_soil(
            emb, table, n_folds=cfg["n_folds"], n_strata=met["n_strata"],
            n_trees=met["n_trees"], seeds=seeds)
        inputs = [args.embeddings, args.soil]
    report.to_csv(args.out)
    print(report.pretty())
    return cfg, inputs, [args.out]


def cmd_cluster_metrics(args):
    emb, emb_ids = fileio.load_embeddings(args.embeddings,
                                          normalize=not args.raw_input)
    label_ids, labels = fileio.read_labels(args.labels)
    out = cluster_indices(_view0_matrix(emb, emb_ids, label_ids), labels)
    print(f"davies_bouldin={out['davies_bouldin']!r} "
          f"calinski_harabasz={out['calinski_harabasz']!r}")
    if not args.out:
        return None
    fileio.write_csv(args.out, ["metric", "value"],
                     [["davies_bouldin", out["davies_bouldin"]],
                      ["calinski_harabasz", out["calinski_harabasz"]]])
    return {}, [args.embeddings, args.labels], [args.out]


def cmd_stats(args):
    if len(args.reports) < 2:
        raise UsageError("need at least two reports")
    names = args.names or [Path(p).stem for p in args.reports]
    if len(names) != len(args.reports):
        raise UsageError("--names must match --reports")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise UsageError(f"model name {repeated[0]!r} is given to two "
                         "reports; set distinct --names")
    if not 0.0 < args.alpha < 1.0:  # NaN fails this as well
        raise ValueError(f"--alpha must be in (0, 1), got {args.alpha}")
    reports = [evaluate.MetricReport.from_csv(p) for p in args.reports]
    score_maps = [r.scores_for(args.metric) for r in reports]
    common = sorted(set.intersection(*(set(m) for m in score_maps)))
    for name, m in zip(names, score_maps):
        print(f"{name}: {len(m) - len(common)} of {len(m)} units left out, "
              f"not in every report")
    if len(common) < 2:
        raise DataError(f"fewer than two shared units carry {args.metric!r}")
    scores = {name: np.array([m[u] for u in common])
              for name, m in zip(names, score_maps)}
    result = ablation_report(scores, higher_is_better=not args.lower_is_better,
                             alpha=args.alpha)
    print(f"friedman chi2={result.friedman.statistic:.4f} "
          f"p={result.friedman.p_value:.3e} over {len(common)} units")
    if result.best_model is None:
        print("no significant winner")
    else:
        print(f"best model: {result.best_model}")
        for c in result.comparisons:
            print(f"  {c.comparison}: W={c.statistic:g} p={c.p_value:.3e} "
                  f"p_adj={c.p_adjusted:.3e} median_diff={c.median_diff:+.4f} "
                  f"change={c.pct_change:+.1f}%")
    if not args.out:
        return None
    rows = [["friedman", result.friedman.statistic, result.friedman.p_value,
             float("nan"), float("nan"), float("nan")]]
    for c in result.comparisons:
        rows.append([c.comparison, c.statistic, c.p_value, c.p_adjusted,
                     c.median_diff, c.pct_change])
    fileio.write_csv(args.out, ["comparison", "statistic", "p_value",
                                "p_adjusted", "median_diff", "pct_change"], rows)
    return ({"metric": args.metric, "alpha": args.alpha}, list(args.reports),
            [args.out])


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="botaclip",
                     description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a (dotted) config key")
        p.add_argument("--seed", type=int, help="override config seed")

    p = sub.add_parser("synth", help="generate a synthetic paired dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pairs", type=int, default=512)
    p.add_argument("--latent-dim", type=int, default=8)
    p.add_argument("--img-dim", type=int, default=768)
    p.add_argument("--n-species", type=int, default=64)
    p.add_argument("--views", type=int, default=1)
    p.add_argument("--noise", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cell-size", type=float, default=5000.0)
    p.add_argument("--n-classes", type=int, default=8)
    p.add_argument("--n-eval-species", type=int, default=10)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("prep", help="long-format surveys to cover matrix")
    p.add_argument("--releves", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--species-index")
    p.set_defaults(func=cmd_prep)

    p = sub.add_parser("split", help="write a buffered spatial split manifest")
    p.add_argument("--locations", required=True)
    p.add_argument("--out", required=True)
    cfg = fileio.DEFAULT_CONFIG
    p.add_argument("--cell-size", type=float, default=cfg["cell_size_m"])
    p.add_argument("--folds", type=int, default=cfg["n_folds"])
    p.add_argument("--fold", type=int, default=cfg["fold"])
    p.add_argument("--seed", type=int, default=cfg["seed"])
    p.set_defaults(func=cmd_split)

    for name, func, text in (
            ("train-botania", cmd_train_botania, "pretrain the cover classifier"),
            ("train-botaclip", cmd_train_botaclip, "contrastive alignment"),
            ("train-botasp", cmd_train_botasp, "supervised baseline")):
        p = sub.add_parser(name, help=text)
        config_flags(p)
        p.add_argument("--out-dir", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("embed", help="apply a trained image adapter")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--raw-input", action="store_true",
                   help="skip unit-normalization of the input rows")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="downstream evaluation")
    p.add_argument("--task", required=True,
                   choices=("plant", "butterfly", "soil"))
    p.add_argument("--embeddings", required=True)
    p.add_argument("--covers")
    p.add_argument("--split")
    p.add_argument("--occurrences")
    p.add_argument("--soil")
    p.add_argument("--out", required=True)
    config_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cluster-metrics", help="cluster quality indices")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out")
    p.add_argument("--raw-input", action="store_true")
    p.set_defaults(func=cmd_cluster_metrics)

    p = sub.add_parser("stats", help="compare metric reports across models")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--names", nargs="*")
    p.add_argument("--metric", required=True)
    p.add_argument("--out")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--lower-is-better", action="store_true")
    p.set_defaults(func=cmd_stats)

    return parser


def _keep_freed_memory() -> None:
    """Keep the memory a command frees in the heap for its next step.

    Under glibc's dynamic thresholds the heap is trimmed after a training
    step frees its temporaries, and the next step faults the same pages
    back in. This fixes the mmap threshold at 32 MiB, the ceiling of the
    dynamic one, and the trim threshold at 1 GiB, above the tens of
    megabytes a step frees at the paper's widths. Either setting alone turns
    off the dynamic adjustment of both. Off glibc this does nothing, and
    importing the library never calls it."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):  # no confstr or name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a non-finite intermediate is reported by the explicit finite
        # checks, as one JSON line, not by numpy warnings on stderr
        with np.errstate(all="ignore"):
            record = args.func(args)
        if record is not None:
            if hasattr(args, "out_dir"):
                name = args.command.replace("-", "_")
                path = Path(args.out_dir) / f"manifest_{name}.json"
            else:
                path = f"{args.out}.manifest.json"
            task = f"-{args.task}" if args.command == "eval" else ""
            fileio.write_manifest(path, args.command + task, *record)
        return 0
    except UsageError as exc:
        return _emit_error(exc, 1)
    except (DataError, OSError, UnicodeDecodeError) as exc:
        return _emit_error(exc, 2)
    except NumericError as exc:
        return _emit_error(exc, 3)
    except ValueError as exc:
        # an argument or config value out of range
        return _emit_error(exc, 1)


if __name__ == "__main__":
    sys.exit(main())
