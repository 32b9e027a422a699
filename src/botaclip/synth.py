"""Desk-scale synthetic paired data with spatial autocorrelation.

Each grid cell carries one base latent vector; pairs inside a cell share it
up to jitter, so nearby samples are correlated and a naive random split
leaks information that the buffered spatial split does not. Image views
are noisy linear readouts of the latent; covers are sparsified softplus
readouts; extra "species" used only for downstream evaluation are
thresholded latent projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataprep import PairedDataset
from .numerics import Rng, l2_normalize_rows, softplus

PAIRS_PER_CELL = 4.0  # mean pairs per grid cell
LATENT_JITTER = 0.5  # scale of a pair's latent around its cell's base latent


@dataclass
class SyntheticData:
    dataset: PairedDataset
    latents: np.ndarray         # (n_pairs, latent_dim), ground truth
    class_labels: np.ndarray    # (n_pairs,), for cover-classifier pretraining
    eval_presence: np.ndarray   # (n_pairs, n_eval_species) binary
    species_ids: list[str]
    eval_species_ids: list[str]


def generate_synthetic(pairs: int, latent_dim: int, *, img_dim: int,
                       n_species: int, views_per_pair: int, noise: float,
                       seed: int, cell_size: float, n_classes: int,
                       n_eval_species: int) -> SyntheticData:
    """Build a fully specified synthetic paired dataset.

    noise is the per-dimension noise scale relative to a unit-scale signal;
    noise=0 makes all views of a pair identical.
    """
    if pairs < 1 or latent_dim < 1 or views_per_pair < 1:
        raise ValueError("counts must be >= 1")
    if n_species < 4:
        raise ValueError("need at least 4 species to sparsify")
    if not 0 < cell_size < math.inf:
        raise ValueError(f"cell_size must be in (0, inf), got {cell_size}")
    rng = Rng(seed)

    # spatial layout: square cell grid, shared cell latent plus jitter
    n_cells = max(1, int(math.ceil(pairs / PAIRS_PER_CELL)))
    side = int(math.ceil(math.sqrt(n_cells)))
    gen_cells = rng.substream("cells")
    cell_of_pair = gen_cells.integers(0, side * side, size=pairs)
    base_latents = gen_cells.normal(size=(side * side, latent_dim))
    latents = (base_latents[cell_of_pair]
               + LATENT_JITTER * rng.substream("jitter").normal(
                   size=(pairs, latent_dim)))

    gen_loc = rng.substream("locations")
    cell_xy = np.column_stack([cell_of_pair % side, cell_of_pair // side])
    locations = (cell_xy + gen_loc.random((pairs, 2))) * cell_size

    # image views: unit-scale linear readout of the latent plus view noise
    p_img = rng.substream("proj/img").normal(size=(img_dim, latent_dim))
    signal = latents @ p_img.T / math.sqrt(latent_dim)
    gen_noise = rng.substream("viewnoise")
    images = np.empty((pairs * views_per_pair, img_dim))
    pair_index = np.empty(pairs * views_per_pair, dtype=np.int64)
    view_index = np.empty(pairs * views_per_pair, dtype=np.int64)
    row = 0
    for v in range(views_per_pair):
        eps = gen_noise.normal(size=(pairs, img_dim)) if noise > 0 else 0.0
        images[row:row + pairs] = signal + noise * eps
        pair_index[row:row + pairs] = np.arange(pairs)
        view_index[row:row + pairs] = v
        row += pairs
    order = np.lexsort((view_index, pair_index))
    images = l2_normalize_rows(images[order])
    images.flags.writeable = False
    pair_index = pair_index[order]
    view_index = view_index[order]

    # covers: sparsified softplus readout, rescaled into [0, 100]
    p_tab = rng.substream("proj/tab").normal(size=(n_species, latent_dim))
    raw = softplus(latents @ p_tab.T)
    k_zero = int(math.ceil(0.7 * n_species))
    covers = raw.copy()
    cutoff_idx = np.argsort(raw, axis=1, kind="stable")[:, :k_zero]
    np.put_along_axis(covers, cutoff_idx, 0.0, axis=1)
    covers = np.clip(covers * (100.0 / covers.max(axis=1, keepdims=True)),
                     0.0, 100.0)

    w_cls = rng.substream("proj/cls").normal(size=(n_classes, latent_dim))
    class_labels = np.argmax(latents @ w_cls.T, axis=1)

    a_eval = l2_normalize_rows(
        rng.substream("proj/eval").normal(size=(n_eval_species, latent_dim)))
    eval_presence = (latents @ a_eval.T > 0).astype(np.int64)

    plot_ids = [f"p{i:05d}" for i in range(pairs)]
    dataset = PairedDataset(images, pair_index, view_index, covers,
                            locations, plot_ids)
    return SyntheticData(
        dataset=dataset,
        latents=latents,
        class_labels=class_labels,
        eval_presence=eval_presence,
        species_ids=[f"sp{j:04d}" for j in range(n_species)],
        eval_species_ids=[f"ev{j:03d}" for j in range(n_eval_species)],
    )


def view_ids(data: SyntheticData) -> list[str]:
    """Row ids for the image matrix, one per (pair, view)."""
    ds = data.dataset
    return [f"{ds.plot_ids[p]}#{v}" for p, v in zip(ds.pair_index,
                                                    ds.view_index)]
