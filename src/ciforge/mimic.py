"""Fit q(y|z) on one fold and rewrite another fold's y column with it.

A fitted mimic is an object with ``y_cols``, ``z_cols`` and
``draw(z_block, rng)``, which returns one y-hat row per z row; a new mimic
needs nothing else.  The built-in mimic is the nearest-neighbour bootstrap
of CCIT (Sen et al., "Model-Powered Conditional Independence Test",
NeurIPS 2017), and it serves every y kind: each held-out row takes the y
row of a fit-fold row nearest to it in standardized encoded z, copied
whole, with ties broken uniformly over all fit rows at the minimum distance.

On categorical z a seen cell's nearest rows are exactly the fit rows of
that cell, so q(y|z) is the fit fold's empirical conditional p-hat(y|z).
On a categorical y, q therefore has the support of the observed codes.  On
a continuous y, q sits on the fit fold's y values, so the support condition
of the mimic-and-classify argument fails as stated; CCIT's bound on the
bootstrap's total-variation distance to the conditionally independent law
is the guarantee the test keeps there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classify import FeatureEncoder, _canonical_order, _row_groups
from .core import Column, Dataset, derive_rng
from .errors import SchemaMismatch, TooFewRows

#: Query rows whose distances to every fit cell are held at once by ``draw``.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class MimicModel:
    """The fit fold's y rows, looked up by nearest standardized z.

    ``cells`` holds the distinct standardized z rows of the fit fold in
    lexicographic order, grouped as the booster groups equal rows
    (``classify._row_groups``), transposed to (features, cells); ``y_rows``
    holds the fit fold's y rows grouped by cell in that order, ``counts[k]``
    of them for cell k, each group in fit-fold row order.
    """

    y_cols: tuple[Column, ...]
    z_cols: tuple[Column, ...]
    encoder: FeatureEncoder
    center: np.ndarray  # per encoded z feature: the fit fold's mean
    scale: np.ndarray  # per encoded z feature: the fit fold's std, 1 if constant
    cells: np.ndarray
    counts: np.ndarray
    y_rows: np.ndarray

    def draw(self, z_block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        zs = (self.encoder.transform(z_block) - self.center) / self.scale
        n = zs.shape[0]
        u = rng.random(n)
        ends = np.cumsum(self.counts)  # one past each cell's last row in y_rows
        out = np.empty((n, self.y_rows.shape[1]))
        for lo in range(0, n, BLOCK_ROWS):
            block = zs[lo : lo + BLOCK_ROWS]
            # One feature at a time, so every distance adds its terms in the
            # same order and equal distances are equal bit for bit.
            dist = np.zeros((block.shape[0], self.cells.shape[1]))
            for j in range(block.shape[1]):
                diff = np.subtract.outer(block[:, j], self.cells[j])
                diff *= diff
                dist += diff
            nearest = dist == dist.min(axis=1, keepdims=True)
            # Fit rows at the minimum distance, numbered in y_rows order:
            # the r-th of them lies in the first cell whose running count
            # exceeds r.
            running = np.cumsum(np.where(nearest, self.counts, 0), axis=1)
            total = running[:, -1]
            r = np.minimum((u[lo : lo + BLOCK_ROWS] * total).astype(np.intp), total - 1)
            cell = np.argmax(running > r[:, None], axis=1)
            rows = np.arange(block.shape[0])
            out[lo : lo + BLOCK_ROWS] = self.y_rows[ends[cell] - (running[rows, cell] - r)]
        return out


def fit_reg_mimic(d2: Dataset) -> MimicModel:
    """Fit the nearest-neighbour bootstrap on the (y, z) blocks of ``d2``.

    Seed-free: the fit only encodes and standardizes z and groups the y rows
    by distinct z row.  y may mix categorical and continuous columns, since
    its rows are copied whole.
    """
    if d2.n_rows < 20:
        raise TooFewRows(f"mimic needs >= 20 rows, got {d2.n_rows}")
    if d2.n_y < 1:
        raise SchemaMismatch("mimic needs at least one y column")
    encoder = FeatureEncoder(d2.z_cols)
    zf = encoder.transform(d2.z_block())
    center = zf.mean(axis=0)
    scale = zf.std(axis=0)
    scale[np.ptp(zf, axis=0) == 0] = 1.0
    zs = (zf - center) / scale
    # Ties keep fit-fold order, and the position is a sort key even with no z.
    order = _canonical_order(zs, np.arange(d2.n_rows))
    first, cell = _row_groups(zs, order)
    return MimicModel(
        d2.y_cols,
        d2.z_cols,
        encoder,
        center,
        scale,
        np.ascontiguousarray(zs[first].T),
        np.bincount(cell),
        d2.y_block()[order],
    )


def mimic_apply(model: MimicModel, d3: Dataset, seed: int = 0) -> Dataset:
    """Rewrite the y block of ``d3`` with draws from the fitted mimic.

    x and z pass through bit-exactly; y-hat depends only on z and fresh
    noise, never on x.  Deterministic given (model, d3, seed).
    """
    if d3.z_cols != model.z_cols:
        raise SchemaMismatch("z columns of the dataset do not match the fitted mimic")
    if d3.y_cols != model.y_cols:
        raise SchemaMismatch("y columns of the dataset do not match the fitted mimic")
    return d3.with_y(model.draw(d3.z_block(), derive_rng(seed, "mimic-apply")))
