"""Binary embedding/checkpoint containers, CSV schemas, configs, manifests.

Embeddings are stored as 32-bit floats and widened to 64-bit on load (with
optional unit-normalization of rows, the default for ingestion). CSV is RFC
4180 with "\n" line ends; floats are written with repr() to round-trip exactly.
The wide plot x species matrices are formatted a row at a time and, when the
file is plain, parsed whole by numpy; both give the bytes and values of the
per-cell path.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
import struct
import sys

import numpy as np

from .errors import DataError, NumericError, UsageError
from .numerics import ZERO_ROW_EPS, as_matrix, l2_normalize_rows, row_norms

EMB_MAGIC = b"EMB1"
CKPT_MAGIC = b"CKPT"
FORMAT_VERSION = 1


def _read_exact(fh, n: int, what: str) -> bytes:
    """n bytes of fh, or DataError. A length above 1 MiB, which a
    garbled header can make gigabytes, is checked against the bytes left in
    the file before anything is read."""
    if n > 1 << 20:
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if n > left:
            raise DataError(f"{what}: wanted {n} bytes, got {left}")
    data = fh.read(n)
    if len(data) != n:
        raise DataError(f"{what}: wanted {n} bytes, got {len(data)}")
    return data


def save_embeddings(path, values: np.ndarray, ids: list[str] | None = None) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise DataError("embeddings must be a 2-D matrix")
    if ids is not None:
        if len(ids) != values.shape[0]:
            raise DataError("one id per row required")
        if len(set(ids)) != len(ids):
            raise DataError("row ids must be unique")
    payload = np.ascontiguousarray(values, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(EMB_MAGIC)
        fh.write(struct.pack("<III", FORMAT_VERSION, values.shape[0],
                             values.shape[1]))
        fh.write(payload)
        if ids is None:
            fh.write(struct.pack("<I", 0))
        else:
            fh.write(struct.pack("<I", len(ids)))
            for rid in ids:
                raw = rid.encode("utf-8")
                fh.write(struct.pack("<I", len(raw)))
                fh.write(raw)


def load_embeddings(path, *, normalize: bool):
    """Returns (float64 matrix, ids or None). normalize projects rows onto
    the unit sphere. A row with a NaN or inf, or with zero norm where rows
    are normalized, raises DataError naming the file and the row."""
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != EMB_MAGIC:
            raise DataError(f"{path} is not an embedding file")
        version, rows, cols = struct.unpack("<III",
                                            _read_exact(fh, 12, "header"))
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported embedding version {version}")
        raw = _read_exact(fh, rows * cols * 4, "payload")
        values = np.frombuffer(raw, dtype="<f4").reshape(rows, cols)
        (n_ids,) = struct.unpack("<I", _read_exact(fh, 4, "id count"))
        ids = None
        if n_ids:
            if n_ids != rows:
                raise DataError("id count does not match row count")
            ids = []
            for _ in range(n_ids):
                (ln,) = struct.unpack("<I", _read_exact(fh, 4, "id length"))
                ids.append(_read_exact(fh, ln, "id").decode("utf-8"))
            if len(set(ids)) != len(ids):
                raise DataError("row ids must be unique")
    wide = values.astype(np.float64)
    try:
        wide = l2_normalize_rows(wide) if normalize else as_matrix(wide)
    except NumericError:
        raise _bad_row(path, wide, ids) from None
    wide.flags.writeable = False
    return wide, ids


def _bad_row(path, m: np.ndarray, ids) -> DataError:
    """DataError naming the first row of m with a NaN or inf or, if there
    is none, the first row of zero norm."""
    finite = np.isfinite(m).all(axis=1)
    if finite.all():
        k, problem = int(np.argmax(row_norms(m) <= ZERO_ROW_EPS)), "zero norm"
    else:
        k, problem = int(np.argmin(finite)), "NaN or inf"
    row = f"row {k}" if ids is None else f"row {k} (id {ids[k]!r})"
    return DataError(f"{path}, {row}: {problem}")


def save_checkpoint(path, params: dict[str, np.ndarray]) -> None:
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(params)))
        for name, value in params.items():
            raw = name.encode("utf-8")
            value = np.asarray(value, dtype=np.float64)
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", value.ndim))
            for dim in value.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(value, dtype="<f8"))


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Named float64 arrays, read-only views over the bytes read; a model
    built from them copies each into its own parameter."""
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CKPT_MAGIC:
            raise DataError(f"{path} is not a checkpoint file")
        version, count = struct.unpack("<II", _read_exact(fh, 8, "header"))
        if version != FORMAT_VERSION:
            raise DataError(f"unsupported checkpoint version {version}")
        for _ in range(count):
            (name_len,) = struct.unpack("<I", _read_exact(fh, 4, "name length"))
            name = _read_exact(fh, name_len, "name").decode("utf-8")
            (ndim,) = struct.unpack("<I", _read_exact(fh, 4, "ndim"))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, "dim"))[0]
                          for _ in range(ndim))
            n = math.prod(shape)
            raw = _read_exact(fh, n * 8, f"payload of {name}")
            try:
                out[name] = np.frombuffer(raw, "<f8").reshape(shape)
            except ValueError as exc:  # a shape numpy cannot hold
                raise DataError(f"{path}: {name}: {exc}") from None
    return out


# --- CSV ---------------------------------------------------------------------

_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def fmt_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = str(v)
    if _NEEDS_QUOTES.search(v):
        v = '"' + v.replace('"', '""') + '"'
    return v


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(fmt_cell, header)) + "\n")
        for row in rows:
            fh.write(",".join(fmt_cell(v) for v in row) + "\n")


def _kept(record) -> bool:
    """False for the record of a blank or whitespace-only line."""
    return len(record) > 1 or bool(record and record[0].strip())


def read_csv(path):
    """(header, data rows) of a CSV file, every row a list of its text
    cells. Blank and whitespace-only lines are skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    if min(map(len, rows), default=2) < 2:  # a blank line has < 2 fields
        rows = [r for r in rows if _kept(r)]
    if not rows:
        raise DataError(f"{path} is empty")
    return rows[0], rows[1:]


def row_error(path, k: int, problem) -> DataError:
    """DataError naming the file line where data row k of read_csv ends;
    the file is read again to count lines, as a quoted cell may span them."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        ends = [reader.line_num for record in reader if _kept(record)]
    return DataError(f"{path}, line {ends[k + 1]}: {problem}")


def _check_rows(path, good: np.ndarray, problem: str) -> None:
    """Raise row_error for the first data row with a False in good, which
    holds one entry or one row of entries per data row."""
    if not good.all():
        bad = ~good.reshape(len(good), -1).all(axis=1)
        raise row_error(path, int(np.flatnonzero(bad)[0]), problem)


def typed_columns(path, header, rows, cols, dtype=np.float64,
                  nan_ok: bool = False) -> np.ndarray:
    """The cells of column cols of the data rows as a float64 or int64
    array: 1-D for a column index, rows x columns for a slice. A row whose
    field count is not the header's, a cell that is not a number, or a
    non-finite float (NaN passes with nan_ok) raises row_error."""
    n = len(header)
    if set(map(len, rows)) - {n}:
        k = next(k for k, r in enumerate(rows) if len(r) != n)
        raise row_error(path, k, f"{len(rows[k])} fields, the header has {n}")
    cells = [r[cols] for r in rows]
    try:
        values = np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for k, cell in enumerate(cells):
            try:
                np.array(cell, dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise row_error(path, k, exc) from None
        raise
    if values.dtype.kind == "f":
        _check_rows(path, ~np.isinf(values) if nan_ok else np.isfinite(values),
                    "non-finite value")
    return values


def write_matrix_csv(path, values: np.ndarray, row_ids: list[str],
                     col_ids: list[str]) -> None:
    """A wide id+numeric-columns CSV, one row of values per row id. Each
    row's tolist() is formatted with repr(), which for a Python float, int
    or bool is the text fmt_cell gives the numpy cell; ids go through
    fmt_cell."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise TypeError(f"matrix values must be numbers, not {values.dtype}")
    if values.dtype.kind == "f":  # float(v) of each cell, as in fmt_cell
        values = values.astype(np.float64, copy=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(fmt_cell, ["plot_id", *col_ids])) + "\n")
        for rid, row in zip(row_ids, values):
            fh.write(",".join([fmt_cell(rid), *map(repr, row.tolist())]) + "\n")


# Text that _read_plain_matrix leaves to read_csv: the quote and CR, which
# csv.reader interprets, and U+001C-U+001F, which numpy strips around a
# number as whitespace and float() does not.
_NOT_PLAIN = re.compile('["\r\x1c-\x1f]')


def _read_plain_matrix(path):
    """(values, row_ids, header) of a matrix file that is plain text with
    one field count and only finite numbers numpy's text reader parses;
    None for any other file. np.loadtxt parses each number with
    PyOS_string_to_double, as float() does, so the values are read_csv's
    and typed_columns'."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError:
        return None
    if _NOT_PLAIN.search(text):
        return None
    lines = [ln for ln in text.split("\n") if "," in ln or ln.strip()]
    if len(lines) < 2 or max(map(len, lines)) > csv.field_size_limit():
        return None
    header = lines[0].split(",")
    if {ln.count(",") for ln in lines} != {len(header) - 1} or len(header) < 2:
        return None
    try:
        values = np.loadtxt(lines[1:], delimiter=",", comments=None,
                            usecols=range(1, len(header)), ndmin=2)
    except ValueError:  # a cell such as 1_0 that float() alone reads
        return None
    if not np.isfinite(values).all():
        return None
    return values, [ln.partition(",")[0] for ln in lines[1:]], header


def read_matrix_csv(path):
    """Returns (values, row_ids, col_ids) for a wide id+numeric-columns CSV.
    A plain file is parsed whole by numpy; any other goes through read_csv
    and typed_columns, with the same values and the same errors. A row id
    that repeats an earlier one raises row_error."""
    plain = _read_plain_matrix(path)
    if plain is None:
        header, rows = read_csv(path)
        plain = (typed_columns(path, header, rows, slice(1, None)),
                 [r[0] for r in rows], header)
    values, row_ids, header = plain
    _check_unique(path, row_ids)
    return values, row_ids, header[1:]


def _check_unique(path, ids) -> None:
    """Raise row_error for the first data row whose id repeats an earlier
    row's."""
    first: dict[str, int] = {}
    for k, rid in enumerate(ids):
        if first.setdefault(rid, k) != k:
            raise row_error(path, k, f"row id {rid!r} repeats an earlier row")


# --- domain schemas -----------------------------------------------------------

def read_releves(path):
    """Long-format survey file: plot_id, x_m, y_m, prodrome_class,
    species_id, bb_class. Returns a list of Releve in first-seen order;
    every row of a plot must repeat its location and class."""
    from .dataprep import Releve
    header, rows = read_csv(path)
    expected = ["plot_id", "x_m", "y_m", "prodrome_class", "species_id",
                "bb_class"]
    if header != expected:
        raise DataError(f"{path}: header must be {','.join(expected)}")
    x = typed_columns(path, header, rows, 1)
    y = typed_columns(path, header, rows, 2)
    cls = typed_columns(path, header, rows, 3, np.int64)
    first: dict[str, int] = {}
    owner = np.array([first.setdefault(r[0], k) for k, r in enumerate(rows)],
                     dtype=np.int64)
    _check_rows(path, (x == x[owner]) & (y == y[owner]) & (cls == cls[owner]),
                "x_m, y_m or prodrome_class differs from the plot's first row")
    releves = {p: Releve(p, float(x[k]), float(y[k]), [], int(cls[k]))
               for p, k in first.items()}
    for r in rows:  # one interned string per species id keeps later walks fast
        releves[r[0]].species_covers.append((sys.intern(r[4]), r[5]))
    return list(releves.values())


def read_locations(path):
    """(ids, points) of a locations file; an id that repeats an earlier
    row's raises row_error."""
    header, rows = read_csv(path)
    if header[:3] not in (["plot_id", "x_m", "y_m"],
                          ["sample_id", "x_m", "y_m"]):
        raise DataError(f"{path}: expected id, x_m, y_m columns")
    ids = [r[0] for r in rows]
    _check_unique(path, ids)
    return ids, typed_columns(path, header, rows, slice(1, 3))


def write_locations(path, ids, points):
    write_csv(path, ["plot_id", "x_m", "y_m"],
              ([i, p[0], p[1]] for i, p in zip(ids, points)))


def read_labels(path):
    """(ids, class ids) of a labels file; an id that repeats an earlier
    row's raises row_error."""
    header, rows = read_csv(path)
    if header != ["plot_id", "class_id"]:
        raise DataError(f"{path}: expected plot_id, class_id")
    ids = [r[0] for r in rows]
    _check_unique(path, ids)
    return ids, typed_columns(path, header, rows, 1, np.int64)


def write_labels(path, ids, labels):
    write_csv(path, ["plot_id", "class_id"], zip(ids, labels))


def read_occurrences(path):
    """occurrences.csv: species_id, x_m, y_m, label (1 presence,
    0 candidate absence). Returns ({species: OccurrenceSet},
    {species: (presence_rows, candidate_rows)}) where rows index the file
    order, which is also the order of the matching embedding matrix."""
    from .dataprep import OccurrenceSet
    header, rows = read_csv(path)
    if header != ["species_id", "x_m", "y_m", "label"]:
        raise DataError(f"{path}: expected species_id, x_m, y_m, label")
    xy = typed_columns(path, header, rows, slice(1, 3))
    label = typed_columns(path, header, rows, 3, np.int64)
    _check_rows(path, (label == 0) | (label == 1), "label must be 0 or 1")
    rows_of: dict[str, list] = {}
    for k, r in enumerate(rows):
        rows_of.setdefault(r[0], []).append(k)
    occ, row_index = {}, {}
    for sp, ks in rows_of.items():
        ks = np.array(ks, dtype=np.int64)
        pres, cand = ks[label[ks] == 1], ks[label[ks] == 0]
        occ[sp] = OccurrenceSet(sp, xy[pres], xy[cand])
        row_index[sp] = (pres, cand)
    return occ, row_index


def read_soil(path):
    """soil.csv: sample_id, x_m, y_m, elevation_m, then one column per
    trophic group."""
    from .dataprep import TrophicTable
    header, rows = read_csv(path)
    if header[:4] != ["sample_id", "x_m", "y_m", "elevation_m"]:
        raise DataError(f"{path}: expected sample_id, x_m, y_m, elevation_m, ...")
    locs = typed_columns(path, header, rows, slice(1, 3))
    elev = typed_columns(path, header, rows, 3)
    vals = typed_columns(path, header, rows, slice(4, None))
    _check_rows(path, vals >= 0, "abundances must be non-negative")
    return TrophicTable(vals, elev, [r[0] for r in rows], header[4:], locs)


def write_split_manifest(path, ids, cells, folds, roles):
    write_csv(path, ["sample_id", "cell_ix", "cell_iy", "fold", "role"],
              ([i, c[0], c[1], f, r]
               for i, c, f, r in zip(ids, cells, folds, roles)))


def read_split_manifest(path):
    header, rows = read_csv(path)
    if header != ["sample_id", "cell_ix", "cell_iy", "fold", "role"]:
        raise DataError(f"{path}: bad split manifest header")
    cells = typed_columns(path, header, rows, slice(1, 3), np.int64)
    folds = typed_columns(path, header, rows, 3, np.int64)
    roles = np.array([r[4] for r in rows], dtype=object)
    return [r[0] for r in rows], cells, folds, roles


# --- run configuration ---------------------------------------------------------

DEFAULT_CONFIG = {
    "seed": 0,
    "variant": "botania-linear",
    "lambda": 1.0,
    "fold": 1,
    "n_folds": 5,
    "cell_size_m": 5000.0,
    "normalize_on_load": True,
    "data": {
        "embeddings": "",
        "covers": "",
        "locations": "",
        "labels": "",
        "botania_checkpoint": "",
    },
    "model": {
        "projection_dim": 768,
        "botania_hidden": 1536,
        "botania_embed": 768,
        "botania_classes": 232,
        "botania_dropout": 0.4,
        "mlp_tab_hidden": 1024,
        "mlp_img_hidden": 2600,
        "attention_model_dim": 1024,
        "adapter_noise_variance": 1e-4,
        "botasp_hidden": 1536,
        "botasp_dropout": 0.4,
    },
    "optimizer": {
        "lr": 1e-3,
        "weight_decay": 1e-3,
    },
    "train": {
        "batch_size": 256,
        "max_epochs": 1000,
        "patience": 10,
        "shuffle": True,
    },
    "botania_train": {
        "lr": 0.3,
        "max_epochs": 300,
        "patience": 20,
    },
    "botasp_train": {
        "lr": 1e-3,
        "weight_decay": 1e-3,
        "max_epochs": 200,
        "patience": 10,
    },
    "metrics": {
        "threshold": 0.5,
        "n_trees": 100,
        "min_presences": 1,
        "max_presences": 0,
        "n_strata": 5,
        "seeds": 1,
    },
}


def _merge_strict(base: dict, override: dict, prefix: str = "") -> dict:
    out = dict(base)
    for key, value in override.items():
        if key not in base:
            raise UsageError(f"unknown config key: {prefix}{key}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise UsageError(f"config key {prefix}{key} must be a table")
            out[key] = _merge_strict(base[key], value, f"{prefix}{key}.")
        elif not _fits(base[key], value):
            raise UsageError(f"config key {prefix}{key} must be "
                             f"{type(base[key]).__name__}, got {value!r}")
        else:
            out[key] = value
    return out


def _fits(default, value) -> bool:
    """Whether value may replace default: the same type, or an int for a
    float, but never a bool for a number."""
    if isinstance(default, float) and not isinstance(value, bool):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid by the JSON file, overlaid by explicit overrides.
    Unknown keys are rejected at every level."""
    cfg = DEFAULT_CONFIG
    if path:
        with open(path, encoding="utf-8") as fh:
            cfg = _merge_strict(cfg, json.load(fh))
    if overrides:
        cfg = _merge_strict(cfg, overrides)
    return cfg


def set_config_key(overrides: dict, dotted: str, value) -> None:
    """Place `value` at a dotted path such as optimizer.lr."""
    parts = dotted.split(".")
    node = overrides
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


# --- manifests ------------------------------------------------------------------

def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def write_manifest(path, command: str, config: dict, inputs, outputs) -> None:
    """Reproducibility record: resolved config plus content hashes of every
    input and output. Deliberately free of timestamps so reruns are
    bit-identical."""
    doc = {
        "command": command,
        "config": config,
        "config_sha256": config_hash(config),
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": {str(p): sha256_file(p) for p in outputs},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
