"""Fit q(y|z) on one fold and rewrite another fold's y column with it.

A fitted mimic is an object with ``y_cols``, ``z_cols`` and
``draw(z_block, rng)``, which returns one y-hat row per z row; a new mimic
needs nothing else.  The mimic's kind follows y's kind, and the mimicked y
keeps y's column descriptors.  A continuous y gets the regression mimic: it
fits r(z) ~ E[y|z] (boosted depth-3 trees, an MLP for z wider than
``TREES_MAX_Z`` columns), measures the residuals, and replaces each
held-out y with r(z) + s, where s is full-covariance Gaussian noise with
probability ``GAUSSIAN_PROB`` = 0.3 and per-coordinate Laplace noise
otherwise.  Both noise families have full support, so the mimicked
conditional is positive wherever the true one is, which is the support
condition the downstream test relies on.  A categorical y gets the table
mimic: it bins z coarsely and samples codes from the empirical conditional
per z cell, so real and mimicked y share their support.  A y that mixes
the two kinds is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import BoostedTrees, FeatureEncoder, fit_boosted_regressor
from .core import Column, Dataset, derive_rng
from .errors import SchemaMismatch, TooFewRows
from .nn import Mlp, MlpConfig, mlp_train

#: Switch from boosted trees to an MLP regressor above this z width.
TREES_MAX_Z = 50

#: Share of regression-mimic rows that get Gaussian rather than Laplace noise.
GAUSSIAN_PROB = 0.3

#: Learning rate and depth of the regression mimic's boosted trees.
TREE_LR = 0.1
TREE_DEPTH = 3

_TABLE_MAX_COLS = 6  # z columns used for the coarse cells of the table mimic


@dataclass(frozen=True)
class MimicConfig:
    tree_rounds: int = 200
    mlp: MlpConfig = field(default_factory=lambda: MlpConfig(widths=(32,), epochs=100))

    def __post_init__(self):
        if self.tree_rounds < 1:
            raise ValueError(f"tree_rounds must be >= 1, got {self.tree_rounds}")


@dataclass(frozen=True)
class RegressionMimic:
    """r(z) plus full-support residual noise: the mimic of a continuous y.

    Exactly one of ``trees`` (one boosted regressor per y column) and
    ``net`` is set.
    """

    y_cols: tuple[Column, ...]
    z_cols: tuple[Column, ...]
    encoder: FeatureEncoder
    trees: list[BoostedTrees] | None
    net: Mlp | None
    chol: np.ndarray  # Cholesky factor of the Gaussian noise covariance
    laplace_scales: np.ndarray  # per y column

    def predict_mean(self, z_block: np.ndarray) -> np.ndarray:
        return _regress(self.encoder.transform(z_block), self.net, self.trees)

    def draw(self, z_block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        base = self.predict_mean(z_block)
        n, n_y = base.shape
        use_gauss = rng.random(n) < GAUSSIAN_PROB
        gauss = rng.standard_normal((n, n_y)) @ self.chol.T
        lap = rng.laplace(0.0, self.laplace_scales, size=(n, n_y))
        return base + np.where(use_gauss[:, None], gauss, lap)


@dataclass(frozen=True)
class TableMimic:
    """Empirical conditional frequencies per z cell: the mimic of a categorical y.

    A z cell is the row of binned values of the first ``_TABLE_MAX_COLS`` z
    columns: a categorical code as it is, a continuous value as 1 at or
    above the fit fold's median and 0 below.  Cells are matched by value,
    so a cell has the same table row in every fold.
    """

    y_cols: tuple[Column, ...]
    z_cols: tuple[Column, ...]
    edges: tuple[float | None, ...]  # per binned z column: its median, None if categorical
    cells: np.ndarray  # (n_cells, n_binned) distinct cells of the fit fold
    probs: tuple[np.ndarray, ...]  # per y column: (n_cells + 1, cardinality), last row the marginal

    def draw(self, z_block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n_seen = len(self.cells)
        uniq, inv = np.unique(
            np.vstack([self.cells, _cells(z_block, self.edges)]), axis=0, return_inverse=True
        )
        inv = inv.reshape(-1)  # its shape under axis= differs across numpy 2.x releases
        row_of = np.full(len(uniq), -1)  # -1, the marginal, for a cell unseen at fit
        row_of[inv[:n_seen]] = np.arange(n_seen)
        rows = row_of[inv[n_seen:]]
        y_hat = [_inverse_cdf(p[rows], rng.random(rows.size)) for p in self.probs]
        return np.column_stack(y_hat).astype(np.float64)


MimicModel = RegressionMimic | TableMimic


def _regress(zf: np.ndarray, net: Mlp | None, trees: list[BoostedTrees] | None) -> np.ndarray:
    """r(z) from encoded z: the MLP, or one boosted regressor per y column."""
    if net is not None:
        return net.forward(zf)
    return np.column_stack([m.predict_margin(zf) for m in trees])


def fit_reg_mimic(d2: Dataset, config: MimicConfig = MimicConfig(), seed: int = 0) -> MimicModel:
    """Fit the mimic of y's kind on the (y, z) blocks of ``d2``.

    An all-categorical y gets the table mimic, an all-continuous y the
    regression mimic; a y mixing the two raises ``SchemaMismatch``.
    ``seed`` drives the MLP regressor's initialization and batch order; the
    boosted trees and the table mimic are seed-free.

    Residual moments are measured in-sample on the fit fold.  A flexible
    regressor absorbs some noise there, so the moments run a little tight,
    which gives the downstream classifiers a crisper real-vs-mimic contrast.
    Gaussian noise uses the shrunk full covariance; Laplace noise uses
    per-coordinate scales with 2 b^2 = variance.
    """
    if d2.n_rows < 20:
        raise TooFewRows(f"mimic needs >= 20 rows, got {d2.n_rows}")
    if d2.n_y < 1:
        raise SchemaMismatch("mimic needs at least one y column")
    kinds = {c.kind for c in d2.y_cols}
    if kinds == {"categorical"}:
        return _fit_table_mimic(d2)
    if kinds != {"continuous"}:
        raise SchemaMismatch("y mixes categorical and continuous columns; no mimic fits both")
    y = d2.y_block()
    encoder = FeatureEncoder(d2.z_cols)
    zf = encoder.transform(d2.z_block())

    net, trees = None, None
    if d2.n_z > TREES_MAX_Z:
        net = mlp_train(zf, y, config.mlp, seed=seed)
    else:
        trees = [
            fit_boosted_regressor(
                zf, y[:, k], rounds=config.tree_rounds, learning_rate=TREE_LR, max_depth=TREE_DEPTH
            )
            for k in range(d2.n_y)
        ]
    resid = y - _regress(zf, net, trees)
    cov = np.atleast_2d(np.cov(resid.T))
    shrink = 1e-6 * float(np.trace(cov)) / d2.n_y
    if shrink <= 0:
        shrink = 1e-12  # exactly-realizable regression: keep the factor valid
    chol = np.linalg.cholesky(cov + shrink * np.eye(d2.n_y))
    scales = np.sqrt(np.maximum(resid.var(axis=0, ddof=1) / 2.0, 1e-24))
    return RegressionMimic(d2.y_cols, d2.z_cols, encoder, trees, net, chol, scales)


def _fit_table_mimic(d2: Dataset) -> TableMimic:
    zb = d2.z_block()
    edges = tuple(
        None if c.kind == "categorical" else float(np.median(zb[:, j]))
        for j, c in enumerate(d2.z_cols[:_TABLE_MAX_COLS])
    )
    cells, inv = np.unique(_cells(zb, edges), axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    y = d2.y_block().astype(np.intp)
    probs = []
    for k, col in enumerate(d2.y_cols):
        counts = np.bincount(inv * col.cardinality + y[:, k], minlength=len(cells) * col.cardinality)
        counts = counts.reshape(len(cells), col.cardinality)
        counts = np.vstack([counts, counts.sum(axis=0)]).astype(np.float64)
        probs.append(counts / counts.sum(axis=1, keepdims=True))
    return TableMimic(d2.y_cols, d2.z_cols, edges, cells, tuple(probs))


def _cells(zb: np.ndarray, edges: tuple[float | None, ...]) -> np.ndarray:
    """The z cell of each row (see ``TableMimic``)."""
    cells = np.empty((zb.shape[0], len(edges)), dtype=np.intp)
    for j, e in enumerate(edges):
        cells[:, j] = zb[:, j] if e is None else zb[:, j] >= e
    return cells


def _inverse_cdf(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Code drawn by each row's uniform ``u`` from its row of ``probs``.

    A cumulative sum can round to just below 1, so a ``u`` above it is
    clipped to the last code rather than emitted out of range.
    """
    codes = (u[:, None] >= probs.cumsum(axis=1)).sum(axis=1)
    return np.minimum(codes, probs.shape[1] - 1)


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


def noise_density(model: RegressionMimic, points: np.ndarray) -> np.ndarray:
    """Density of the regression mimic's noise mixture at the given points.

    Positive everywhere: the Gaussian/Laplace mixture has full support on
    R^n_y, which is what guarantees the support-overlap hypothesis of the
    test regardless of the fitted regressor.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_y = len(model.y_cols)
    cov_solve = np.linalg.solve(model.chol, pts.T)  # chol @ chol.T = cov
    quad = np.sum(cov_solve**2, axis=0)
    logdet = 2.0 * float(np.log(np.diag(model.chol)).sum())
    g = np.exp(-0.5 * quad - 0.5 * logdet - 0.5 * n_y * np.log(2 * np.pi))
    b = model.laplace_scales
    l = np.exp(-np.abs(pts) / b).prod(axis=1) / float(np.prod(2.0 * b))
    return GAUSSIAN_PROB * g + (1.0 - GAUSSIAN_PROB) * l
