"""Output checks computed apart from the program.

Nothing here imports botaclip. Each check reads the files a round wrote
and either recomputes a value with numpy, scipy or the closed form, or
tests a property the method must have. A check returns a list of failure
messages; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import BB_MIDPOINT, CELL_SIZE, FOLD, read_emb, read_table

REPORT_HEADER = ["task", "unit", "fold", "seed", "metric", "value"]
RANGES = {"tss": (-1.0, 1.0), "f1": (0.0, 1.0), "sensitivity": (0.0, 1.0),
          "specificity": (0.0, 1.0), "boyce": (-1.0, 1.0),
          "spearman": (-1.0, 1.0), "mae": (0.0, 1.0)}
TSS_TOL = 1e-12
UNIT_NORM_TOL = 1e-6  # float32 storage of a unit vector of width <= 768
STATS_RTOL = 1e-9
IMPROVEMENT_EPS = 1e-12  # strict improvement, as in early stopping


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digests(root: Path) -> dict[str, str]:
    """Hash of every artifact under root except manifests."""
    return {str(p.relative_to(root)): sha256(p)
            for p in sorted(root.rglob("*"))
            if p.is_file() and "manifest" not in p.name}


def compare_digests(a: dict, b: dict, what: str) -> list[str]:
    bad = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"{what}: {k} differs" for k in bad[:5]]


# --- stage results and inputs --------------------------------------------------

def check_manifests(root: Path) -> list[str]:
    """Every hash a manifest records matches a fresh digest of its file."""
    fails = []
    manifests = sorted(root.rglob("*manifest*.json"))
    if not manifests:
        return [f"{root}: no manifests"]
    for man in manifests:
        doc = json.loads(man.read_text())
        for side in ("inputs", "outputs"):
            for path, digest in doc[side].items():
                if sha256(root / path) != digest:
                    fails.append(f"{man.name}: {side[:-1]} {path} no longer "
                                 "matches its hash")
    return fails


def check_frozen(root: Path, before: dict) -> list[str]:
    return [f"input {p} changed during the pipeline"
            for p, digest in before.items() if sha256(root / p) != digest]


# --- spatial split -----------------------------------------------------------

def _keys(cells) -> np.ndarray:
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    return cells[:, 0] * (1 << 32) + (cells[:, 1] + (1 << 31))


def train_mask(cells, val_cells) -> np.ndarray:
    """True for samples whose cell is at Chebyshev distance >= 2 from every
    validation cell."""
    cells = np.asarray(cells, dtype=np.int64)
    val = np.unique(_keys(val_cells))
    near = np.zeros(len(cells), dtype=bool)
    for dx, dy in itertools.product((-1, 0, 1), repeat=2):
        near |= np.isin(_keys(cells + np.array([dx, dy])), val)
    return ~near


def check_split(root: Path, split_csv: str, locations_csv: str,
                cell_size: float = CELL_SIZE, fold: int = FOLD) -> list[str]:
    from scipy.spatial import cKDTree

    header, rows = read_table(root / split_csv)
    if header != ["sample_id", "cell_ix", "cell_iy", "fold", "role"]:
        return [f"{split_csv}: bad header"]
    _, locs = read_table(root / locations_csv)
    if [r[0] for r in rows] != [r[0] for r in locs]:
        return [f"{split_csv}: sample ids differ from {locations_csv}"]
    xy = np.array([[float(r[1]), float(r[2])] for r in locs])
    cells = np.array([[int(r[1]), int(r[2])] for r in rows])
    folds = np.array([int(r[3]) for r in rows])
    roles = np.array([r[4] for r in rows])
    fails = []
    if not np.array_equal(cells, np.floor(xy / cell_size).astype(np.int64)):
        fails.append(f"{split_csv}: cells are not floor(xy / {cell_size})")
    fold_of = {}
    for key, f in zip(_keys(cells).tolist(), folds.tolist()):
        if fold_of.setdefault(key, f) != f:
            fails.append(f"{split_csv}: a cell carries two folds")
            break
    val = roles == "validation"
    train = roles == "train"
    if not np.array_equal(val, folds == fold):
        fails.append(f"{split_csv}: validation is not exactly fold {fold}")
    clear = train_mask(cells, cells[val]) & ~val
    if np.any(train & ~clear):
        fails.append(f"{split_csv}: {int(np.sum(train & ~clear))} train "
                     "samples within Chebyshev cell distance 1 of validation")
    if np.any(clear & ~train):
        fails.append(f"{split_csv}: {int(np.sum(clear & ~train))} samples "
                     "excluded though no validation cell touches them")
    if not train.any() or not val.any():
        fails.append(f"{split_csv}: empty train or validation side")
    else:
        dist, _ = cKDTree(xy[val]).query(xy[train], k=1)
        if dist.min() < cell_size:
            fails.append(f"{split_csv}: train and validation samples "
                         f"{dist.min():.1f} m apart, under {cell_size} m")
    return fails


# --- embeddings and training logs --------------------------------------------

def check_embedding(root: Path, src: str, out: str) -> list[str]:
    rows_in, _, _, ids_in = read_emb(root / src)
    rows, cols, payload, ids = read_emb(root / out)
    fails = []
    if rows != rows_in or ids != ids_in:
        fails.append(f"{out}: rows or ids differ from {src}")
    values = np.frombuffer(payload, dtype="<f4").reshape(rows, cols)
    dev = np.abs(np.linalg.norm(values.astype(np.float64), axis=1) - 1.0)
    if dev.size and dev.max() > UNIT_NORM_TOL:
        fails.append(f"{out}: a row norm is off 1 by {dev.max():.2e}")
    return fails


def best_epoch(val_losses) -> int:
    """First epoch of the lowest validation loss under the method's
    early-stopping rule: a new best must undercut the old by more than
    IMPROVEMENT_EPS."""
    best, best_loss = -1, math.inf
    for epoch, v in enumerate(val_losses, start=1):
        if v < best_loss - IMPROVEMENT_EPS:
            best, best_loss = epoch, v
    return best


def check_train_log(root: Path, path: str, epochs: int | None,
                    placeholders=(), printed: str = "") -> list[str]:
    """Fixed-work logs have exactly `epochs` rows; values are finite except
    the placeholder columns, which hold NaN; the epoch of the best
    validation loss in the log is the best epoch the train command printed
    (`printed` is its standard output), the one whose weights it saved."""
    header, rows = read_table(root / path)
    if header != ["epoch", "train_loss", "val_loss", "scl", "reg", "tau", "b"]:
        return [f"{path}: bad header"]
    fails = []
    if epochs is not None and len(rows) != epochs:
        fails.append(f"{path}: {len(rows)} epochs logged, expected {epochs}")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        fails.append(f"{path}: epochs are not 1..n")
    for j, col in enumerate(header[1:], start=1):
        vals = [float(r[j]) for r in rows]
        if col in placeholders:
            ok = all(math.isnan(v) for v in vals)
        else:
            ok = all(math.isfinite(v) for v in vals)
        if not ok:
            fails.append(f"{path}: column {col} has unexpected values")
    said = re.findall(r"best epoch (-?\d+)", printed)
    want = best_epoch(float(r[2]) for r in rows)
    if len(said) != 1:
        fails.append(f"{path}: the train command printed no best epoch")
    elif int(said[0]) != want:
        fails.append(f"{path}: best validation loss at epoch {want}, but "
                     f"the train command kept epoch {said[0]}")
    return fails


# --- prep ---------------------------------------------------------------------

def check_prep(root: Path, survey: str, matrix: str) -> list[str]:
    """The cover matrix equals the cover-abundance midpoints of the survey:
    plots in first-seen order, species sorted, absent species zero."""
    col_of, row_of, cells = {}, {}, []
    with open(root / survey, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            plot, _, _, _, sp, bb = line.rstrip("\n").split(",")
            row_of.setdefault(plot, len(row_of))
            col_of.setdefault(sp, None)
            cells.append((plot, sp, BB_MIDPOINT[bb]))
    species = sorted(col_of)
    col_of = {s: j for j, s in enumerate(species)}
    expected = np.zeros((len(row_of), len(species)))
    for plot, sp, value in cells:
        expected[row_of[plot], col_of[sp]] = value
    header, rows = read_table(root / matrix)
    if header[1:] != species or [r[0] for r in rows] != list(row_of):
        return [f"{matrix}: plots or species differ from {survey}"]
    got = np.array([[float(v) for v in r[1:]] for r in rows])
    if not np.array_equal(got, expected):
        return [f"{matrix}: {int(np.sum(got != expected))} cells differ from "
                "the survey's midpoints"]
    return []


# --- reports and statistics -------------------------------------------------------

def read_report(path):
    header, rows = read_table(path)
    if header != REPORT_HEADER:
        raise ValueError(f"{path}: bad report header")
    return [(r[0], r[1], int(r[2]), int(r[3]), r[4], float(r[5])) for r in rows]


def check_report(root: Path, path: str, task: str,
                 null: bool = False) -> list[str]:
    """Ranges and tss = sensitivity + specificity - 1 on every row; mean
    TSS above 0 for plant and butterfly. A `null` report scores constant
    embeddings: a forest cannot split them, so it predicts one class and
    every TSS is exactly 0."""
    rows = read_report(root / path)
    fails = []
    if not rows:
        return [f"{path}: no rows"]
    if any(r[0] != task for r in rows):
        fails.append(f"{path}: rows of another task than {task}")
    groups = {}
    for _, unit, fold, seed, metric, value in rows:
        groups.setdefault((unit, fold, seed), {})[metric] = value
        lo, hi = RANGES.get(metric, (-math.inf, math.inf))
        if not lo <= value <= hi:
            fails.append(f"{path}: {metric}={value!r} outside [{lo}, {hi}]")
    for key, m in groups.items():
        if {"tss", "sensitivity", "specificity"} <= set(m):
            want = m["sensitivity"] + m["specificity"] - 1.0
            if abs(m["tss"] - want) > TSS_TOL:
                fails.append(f"{path}: {key} tss {m['tss']!r} != "
                             f"sensitivity + specificity - 1 = {want!r}")
    tss = [r[5] for r in rows if r[4] == "tss"]
    if null:
        if not tss or any(v != 0.0 for v in tss):
            fails.append(f"{path}: a TSS on constant embeddings is not 0")
    elif task in ("plant", "butterfly"):
        if not tss or sum(tss) / len(tss) <= 0.0:
            fails.append(f"{path}: mean TSS is not above 0")
    return fails


def _unit_means(rows, metric):
    acc = {}
    for _, unit, _, _, m, value in rows:
        if m == metric:
            acc.setdefault(unit, []).append(value)
    return {u: float(np.mean(v)) for u, v in acc.items()}


def _wilcoxon(a, b):
    """Two-sided signed-rank test, zero differences dropped: statistic
    min(W+, W-); exact p by enumerating sign patterns up to n = 12, normal
    approximation with tie and continuity correction (scipy) beyond."""
    from scipy import stats
    d = np.asarray(a) - np.asarray(b)
    d = d[d != 0.0]
    n = d.size
    ranks = stats.rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    stat = min(w_plus, float(ranks.sum()) - w_plus)
    if n > 12:
        res = stats.wilcoxon(d, zero_method="wilcox", correction=True,
                             method="approx")
        return stat, float(res.pvalue)
    total = float(ranks.sum())
    hits = 0
    for signs in itertools.product((0.0, 1.0), repeat=n):
        wp = float(np.dot(signs, ranks))
        hits += min(wp, total - wp) <= stat + 1e-12
    return stat, hits / 2.0 ** n


def _close(a, b, rtol=STATS_RTOL, atol=1e-12):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def check_stats(root: Path, path: str, reports: list[str], names: list[str],
                metric: str = "tss", alpha: float = 0.05) -> list[str]:
    """Friedman statistic and p-value, and the best-versus-other Wilcoxon
    statistic, p-value and Holm adjustment, recomputed from the reports."""
    from scipy import stats
    header, rows = read_table(root / path)
    if header[:3] != ["comparison", "statistic", "p_value"]:
        return [f"{path}: bad header"]
    means = [_unit_means(read_report(root / r), metric) for r in reports]
    units = sorted(set.intersection(*(set(m) for m in means)))
    scores = np.array([[m[u] for m in means] for u in units])
    n, k = scores.shape
    ranks = np.vstack([stats.rankdata(row) for row in scores])
    chi2 = max(12.0 / (n * k * (k + 1)) * float(np.sum(ranks.sum(0) ** 2))
               - 3.0 * n * (k + 1), 0.0)
    p = float(stats.chi2.sf(chi2, k - 1))
    fails = []
    by_name = {r[0]: [float(v) for v in r[1:]] for r in rows}
    fried = by_name.get("friedman")
    if fried is None or not (_close(fried[0], chi2) and _close(fried[1], p)):
        fails.append(f"{path}: friedman row {fried} != recomputed "
                     f"({chi2!r}, {p!r})")
    comparisons = [r for r in rows if r[0] != "friedman"]
    if p >= alpha:
        if comparisons:
            fails.append(f"{path}: comparisons listed though Friedman "
                         f"p={p:.3g} >= {alpha}")
        return fails
    best = int(np.argmax(ranks.mean(axis=0)))
    others = [j for j in range(k) if j != best]
    expected = []
    for j in others:
        stat, pw = _wilcoxon(scores[:, best], scores[:, j])
        expected.append((f"{names[best]} vs {names[j]}", stat, pw))
    order = np.argsort([e[2] for e in expected], kind="stable")
    holm, running = {}, 0.0
    for rank, idx in enumerate(order):
        running = max(running, min(1.0, (len(order) - rank) * expected[idx][2]))
        holm[expected[idx][0]] = running
    if [c[0] for c in comparisons] != [e[0] for e in expected]:
        return fails + [f"{path}: comparisons {[c[0] for c in comparisons]} "
                        f"!= {[e[0] for e in expected]}"]
    for (label, stat, pw), row in zip(expected, comparisons):
        got = [float(v) for v in row[1:4]]
        if not (_close(got[0], stat) and _close(got[1], pw)
                and _close(got[2], holm[label])):
            fails.append(f"{path}: {label} row {got} != recomputed "
                         f"({stat!r}, {pw!r}, {holm[label]!r})")
    return fails


# --- one round ---------------------------------------------------------------------

def _printed_by(stages, out_dir: str) -> str:
    """Standard output of the train command that wrote into out_dir."""
    for s in stages:
        argv = s["argv"]
        if "--out-dir" in argv and argv[argv.index("--out-dir") + 1] == out_dir:
            return s["stdout"]
    return ""


def check_round(root: Path, workload, inputs_before: dict,
                stages: list) -> list[str]:
    """Every output check of one finished round of `workload`; `stages`
    are the round's stage records with their standard output."""
    fails = check_manifests(root) + check_frozen(root, inputs_before)
    for split_csv, locations in workload.splits:
        fails += check_split(root, split_csv, locations)
    for src, out in workload.embeds:
        fails += check_embedding(root, src, out)
    for path, epochs, placeholders in workload.train_logs:
        fails += check_train_log(root, path, epochs, placeholders,
                                 _printed_by(stages, str(Path(path).parent)))
    if workload.prep:
        fails += check_prep(root, *workload.prep)
    for path, task in workload.reports.items():
        fails += check_report(root, path, task,
                              null=path in workload.null_reports)
    for path, reports, names in workload.stats:
        fails += check_stats(root, path, reports, names)
    return fails
