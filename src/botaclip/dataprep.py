"""Raw tabular ecology inputs to model-ready matrices.

Covers arrive as ordinal cover-abundance classes per (plot, species) pair and
leave as a dense plots-by-species percent matrix; occurrence and soil tables
get balanced, normalized and stratified here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateEntry,
    EmptySample,
    InsufficientAbsences,
    UnknownClass,
    UnknownSpecies,
)

# Interval midpoints of the cover-abundance scale; "r" encodes rare,
# negligible cover.
BRAUN_BLANQUET_PERCENT = {
    "r": 0.1,
    "+": 0.5,
    "1": 2.5,
    "2": 15.0,
    "3": 37.5,
    "4": 62.5,
    "5": 87.5,
}


@dataclass
class Releve:
    """One survey plot: location in planar meters, class label, and the
    recorded species with their cover-abundance classes."""
    plot_id: str
    x: float
    y: float
    species_covers: list  # (species_id, bb_class) pairs
    prodrome_class: int = -1


@dataclass
class CoverMatrix:
    values: np.ndarray  # plots x species, percent cover in [0, 100]
    plot_ids: list[str]
    species_ids: list[str]


@dataclass
class OccurrenceSet:
    species_id: str
    presences: np.ndarray          # (n, 2) planar coordinates
    candidate_absences: np.ndarray


@dataclass
class TrophicTable:
    values: np.ndarray  # samples x groups
    elevations: np.ndarray
    sample_ids: list[str]
    group_ids: list[str] = field(default_factory=list)
    locations: np.ndarray | None = None


@dataclass
class PairedDataset:
    """Aligned multimodal records: one cover vector and location per pair,
    one or more image-embedding views per pair."""
    images: np.ndarray       # (total_views, d_img), unit-norm rows
    pair_index: np.ndarray   # (total_views,) pair each view belongs to
    view_index: np.ndarray   # (total_views,) view number within its pair
    covers: np.ndarray       # (n_pairs, n_species), percent cover
    locations: np.ndarray    # (n_pairs, 2), planar meters
    plot_ids: list[str]

    def view_rows_for_pairs(self, pairs: np.ndarray,
                            first_view_only: bool = False) -> np.ndarray:
        mask = np.isin(self.pair_index, pairs)
        if first_view_only:
            mask &= self.view_index == 0
        return np.flatnonzero(mask)


def braun_blanquet_to_percent(bb_class: str) -> float:
    try:
        return BRAUN_BLANQUET_PERCENT[str(bb_class)]
    except KeyError:
        raise UnknownClass(f"unknown cover-abundance class {bb_class!r}") from None


def build_cover_matrix(releves: list[Releve], species_index: list[str]):
    """Assemble the percent-cover matrix; returns (CoverMatrix, labels).

    Species order follows species_index, row order follows the input.
    Absent species are zero. Raises UnknownSpecies for ids outside the
    index and DuplicateEntry for a species listed twice in the index or
    recorded twice in one plot.
    """
    col = {s: j for j, s in enumerate(species_index)}
    if len(col) != len(species_index):
        repeated = next(s for j, s in enumerate(species_index) if col[s] != j)
        raise DuplicateEntry(f"species {repeated!r} listed twice in the index")
    values = np.zeros((len(releves), len(species_index)))
    labels = np.empty(len(releves), dtype=np.int64)
    for i, rel in enumerate(releves):
        seen = set()
        for species, bb_class in rel.species_covers:
            if species not in col:
                raise UnknownSpecies(
                    f"plot {rel.plot_id}: species {species!r} not in index")
            if species in seen:
                raise DuplicateEntry(
                    f"plot {rel.plot_id}: species {species!r} recorded twice")
            seen.add(species)
            values[i, col[species]] = braun_blanquet_to_percent(bb_class)
        labels[i] = rel.prodrome_class
    matrix = CoverMatrix(values, [r.plot_id for r in releves],
                         list(species_index))
    return matrix, labels


def binarize_presence(cover: np.ndarray) -> np.ndarray:
    """1 where cover is strictly positive, else 0."""
    return (np.asarray(cover) > 0).astype(np.int64)


def filter_by_support(binary: np.ndarray, min_presences: int,
                      max_presences: int | None = None) -> np.ndarray:
    """Indices of species whose presence count lies in the inclusive range."""
    if min_presences < 0:
        raise ValueError("min_presences must be >= 0")
    if max_presences is not None and max_presences < min_presences:
        raise ValueError("max_presences must be >= min_presences")
    counts = np.asarray(binary).sum(axis=0)
    keep = counts >= min_presences
    if max_presences is not None:
        keep &= counts <= max_presences
    return np.flatnonzero(keep)


def balance_downsample(presences: np.ndarray, absences: np.ndarray,
                       gen: np.random.Generator) -> np.ndarray:
    """The absences downsampled without replacement to the presence count,
    sorted."""
    presences = np.asarray(presences)
    absences = np.asarray(absences)
    if absences.size < presences.size:
        raise InsufficientAbsences(
            f"{absences.size} absences for {presences.size} presences")
    return np.sort(gen.choice(absences, size=presences.size, replace=False))


def make_pseudo_absences(occ: OccurrenceSet, gen: np.random.Generator):
    """Label presences 1 and a 1:1 downsample of candidate absences 0.

    Candidates that coincide with a presence coordinate are dropped before
    sampling. Returns (coordinates, labels, picked_candidate_indices); the
    indices refer to rows of occ.candidate_absences.
    """
    pres = np.asarray(occ.presences, dtype=np.float64)
    cand = np.asarray(occ.candidate_absences, dtype=np.float64)
    if cand.size == 0:
        raise InsufficientAbsences("no candidate absences")
    pres_keys = {(x, y) for x, y in pres}
    keep_idx = np.array([i for i, (x, y) in enumerate(cand)
                         if (x, y) not in pres_keys], dtype=np.int64)
    local = balance_downsample(np.arange(len(pres)),
                               np.arange(keep_idx.size), gen)
    picked = keep_idx[local]
    coords = np.vstack([pres, cand[picked]])
    labels = np.concatenate([np.ones(len(pres), dtype=np.int64),
                             np.zeros(picked.size, dtype=np.int64)])
    return coords, labels, picked


def normalize_soil(raw: TrophicTable) -> TrophicTable:
    """Within-sample relative proportions, then per-column min-max to [0, 1].

    Constant columns map to zero so downstream regressors never see
    non-finite values.
    """
    values = np.asarray(raw.values, dtype=np.float64)
    if np.any(values < 0):
        raise ValueError("abundances must be non-negative")
    sums = values.sum(axis=1)
    empty = np.flatnonzero(sums == 0)
    if empty.size:
        raise EmptySample(f"sample row {empty[0]} sums to zero")
    rel = values / sums[:, None]
    lo = rel.min(axis=0)
    span = rel.max(axis=0) - lo
    out = np.zeros_like(rel)
    nz = span > 0
    out[:, nz] = (rel[:, nz] - lo[nz]) / span[nz]
    return TrophicTable(out, np.asarray(raw.elevations, dtype=np.float64),
                        list(raw.sample_ids), list(raw.group_ids),
                        raw.locations)


def stratify_by_elevation(elevations: np.ndarray,
                          n_strata: int) -> np.ndarray:
    """Per-sample ids of equal-count strata along the sorted elevations.

    Ties are broken by stable sort order. When every elevation is
    identical all samples land in stratum 0.
    """
    if n_strata < 2:
        raise ValueError("n_strata must be >= 2")
    elevations = np.asarray(elevations, dtype=np.float64)
    n = elevations.size
    if np.all(elevations == elevations[0]):
        return np.zeros(n, dtype=np.int64)
    order = np.argsort(elevations, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n)
    return (ranks * n_strata) // n
