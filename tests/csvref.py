"""Frozen per-cell forms of the wide matrix CSV writer and reader.

The library formats a matrix row by row and parses a plain file whole with
numpy; these are the per-cell writer and the csv.reader + typed_columns
reader it must match byte for byte, value for value and error text for
error text. They are kept here as oracles that never share code with it.
"""

import csv
import re

import numpy as np

from botaclip.errors import DataError

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


def write_matrix_csv(path, values, row_ids, col_ids, id_column="plot_id"):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(fmt_cell, [id_column] + list(col_ids))) + "\n")
        for rid, row in zip(row_ids, values):
            fh.write(",".join(fmt_cell(v) for v in [rid] + list(row)) + "\n")


def _kept(record) -> bool:
    return len(record) > 1 or bool(record and record[0].strip())


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        try:
            rows = list(reader)
        except csv.Error as exc:
            raise DataError(f"{path}, line {reader.line_num}: {exc}") from None
    rows = [r for r in rows if _kept(r)]
    if not rows:
        raise DataError(f"{path} is empty")
    return rows[0], rows[1:]


def row_error(path, k: int, problem) -> DataError:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, strict=True)
        ends = [reader.line_num for record in reader if _kept(record)]
    return DataError(f"{path}, line {ends[k + 1]}: {problem}")


def read_matrix_csv(path):
    """(values, row_ids, col_ids): the float64 cells of every column but
    the first, converted as float() converts them."""
    header, rows = read_csv(path)
    n = len(header)
    for k, r in enumerate(rows):
        if len(r) != n:
            raise row_error(path, k, f"{len(r)} fields, the header has {n}")
    cells = [r[1:] for r in rows]
    try:
        values = np.array(cells, dtype=np.float64)
    except (ValueError, OverflowError):
        for k, cell in enumerate(cells):
            try:
                np.array(cell, dtype=np.float64)
            except (ValueError, OverflowError) as exc:
                raise row_error(path, k, exc) from None
        raise
    finite = np.isfinite(values)
    if not finite.all():
        bad = ~finite.reshape(len(finite), -1).all(axis=1)
        raise row_error(path, int(np.flatnonzero(bad)[0]), "non-finite value")
    return values, [r[0] for r in rows], header[1:]
