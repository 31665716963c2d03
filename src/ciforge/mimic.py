"""Fit q(y|z) on one fold and rewrite another fold's y column with it.

The regression mimic fits r(z) ~ E[y|z] (boosted depth-3 trees by default,
an MLP for very wide z), measures the residuals, and replaces each
held-out y with r(z) + s, where s is full-covariance Gaussian noise with
probability ``GAUSSIAN_PROB`` = 0.3 and per-coordinate Laplace noise
otherwise.  Both noise families have full support, so the mimicked
conditional is positive wherever the true one is, which is the support
condition the downstream test relies on.

Mimicked y columns are emitted as continuous even when the source y was
categorical (codes plus continuous noise).  A frequency-table mimic that
preserves categorical y exactly is available behind
``MimicConfig.categorical_table``; it bins z coarsely and samples codes
from the empirical conditional per bin.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .classify import BoostedTrees, FeatureEncoder, fit_boosted_regressor
from .core import Column, Dataset, derive_rng
from .errors import SchemaMismatch, TooFewRows
from .nn import Mlp, MlpConfig, mlp_train

#: Switch from boosted trees to an MLP regressor above this z width.
TREES_MAX_Z = 50

#: Share of regression-mimic rows that get Gaussian rather than Laplace noise.
GAUSSIAN_PROB = 0.3

_TABLE_MAX_COLS = 6  # z columns used for the coarse bins of the table mimic


@dataclass(frozen=True)
class MimicConfig:
    regressor: str = "auto"  # "auto" | "trees" | "mlp"
    tree_rounds: int = 200
    tree_lr: float = 0.1
    tree_depth: int = 3  # depth 1 = boosted stumps
    mlp: MlpConfig = field(default_factory=lambda: MlpConfig(widths=(32,), epochs=100, loss="squared"))
    categorical_table: bool = False

    def __post_init__(self):
        if self.regressor not in ("auto", "trees", "mlp"):
            raise ValueError(f"unknown regressor {self.regressor!r}")
        if self.tree_rounds < 1:
            raise ValueError(f"tree_rounds must be >= 1, got {self.tree_rounds}")
        if not self.tree_lr > 0.0:
            raise ValueError(f"tree_lr must be > 0, got {self.tree_lr}")
        if self.tree_depth < 1:
            raise ValueError(f"tree_depth must be >= 1, got {self.tree_depth}")


@dataclass
class MimicModel:
    """Fitted generator of y-hat given z."""

    kind: str  # "regression" | "table"
    y_cols: tuple[Column, ...]
    z_cols: tuple[Column, ...]
    encoder: FeatureEncoder | None = None
    trees: list[BoostedTrees] | None = None
    net: Mlp | None = None
    chol: np.ndarray | None = None
    laplace_scales: np.ndarray | None = None
    bin_cols: tuple[int, ...] = ()
    bin_edges: list[np.ndarray] = field(default_factory=list)
    tables: list[dict] = field(default_factory=list)

    def predict_mean(self, z_block: np.ndarray) -> np.ndarray:
        if self.kind != "regression":
            raise ValueError("predict_mean is only defined for the regression kind")
        return _regress(self.encoder.transform(z_block), self.net, self.trees)


def _regress(zf: np.ndarray, net: Mlp | None, trees: list[BoostedTrees] | None) -> np.ndarray:
    """r(z) from encoded z: the MLP, or one boosted regressor per y column."""
    if net is not None:
        return net.forward(zf)
    return np.column_stack([m.predict_margin(zf, rounds=len(m.trees)) for m in trees])


def _check_z_schema(model: MimicModel, ds: Dataset) -> None:
    if ds.z_cols != model.z_cols:
        raise SchemaMismatch("z columns of the dataset do not match the fitted mimic")
    if ds.n_y != len(model.y_cols):
        raise SchemaMismatch("y width of the dataset does not match the fitted mimic")


def fit_reg_mimic(d2: Dataset, config: MimicConfig = MimicConfig(), seed: int = 0) -> MimicModel:
    """Fit the regression mimic on the (y, z) blocks of ``d2``.

    ``seed`` drives the MLP regressor's initialization and batch order; the
    boosted trees and the table mimic are seed-free.

    Residual moments are measured in-sample on the fit fold.  A flexible
    regressor absorbs some noise there, so the moments run a little tight,
    which gives the downstream classifiers a crisper real-vs-mimic contrast.
    Gaussian noise uses the shrunk full covariance; Laplace noise uses
    per-coordinate scales with 2 b^2 = variance.
    """
    if d2.n_rows < 20:
        raise TooFewRows(f"regression mimic needs >= 20 rows, got {d2.n_rows}")
    if d2.n_y < 1:
        raise SchemaMismatch("regression mimic needs at least one y column")
    if config.categorical_table and all(c.kind == "categorical" for c in d2.y_cols):
        return _fit_table_mimic(d2, config)
    y = d2.y_block()
    encoder = FeatureEncoder(d2.z_cols)
    zf = encoder.transform(d2.z_block())

    net, trees = None, None
    if config.regressor == "mlp" or (config.regressor == "auto" and d2.n_z > TREES_MAX_Z):
        net = mlp_train(zf, y, replace(config.mlp, loss="squared", seed=seed))
    else:
        trees = [
            fit_boosted_regressor(
                zf,
                y[:, k],
                rounds=config.tree_rounds,
                learning_rate=config.tree_lr,
                max_depth=config.tree_depth,
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
    return MimicModel(
        kind="regression",
        y_cols=d2.y_cols,
        z_cols=d2.z_cols,
        encoder=encoder,
        trees=trees,
        net=net,
        chol=chol,
        laplace_scales=scales,
    )


def _fit_table_mimic(d2: Dataset, config: MimicConfig) -> MimicModel:
    """Empirical conditional frequency table over coarse z bins."""
    zb = d2.z_block()
    bin_cols = tuple(range(min(d2.n_z, _TABLE_MAX_COLS)))
    edges = []
    for j in bin_cols:
        if d2.z_cols[j].kind == "categorical":
            edges.append(None)  # codes are their own bins
        else:
            edges.append(np.asarray([np.median(zb[:, j])]))
    bins = _bin_ids(zb, d2.z_cols, bin_cols, edges)
    y = d2.y_block().astype(np.intp)
    tables = []
    for k, col in enumerate(d2.y_cols):
        per_bin: dict = {}
        counts = np.bincount(y[:, k], minlength=col.cardinality).astype(np.float64)
        per_bin["__global__"] = counts / counts.sum()
        for b in np.unique(bins):
            sel = y[bins == b, k]
            c = np.bincount(sel, minlength=col.cardinality).astype(np.float64)
            per_bin[int(b)] = c / c.sum()
        tables.append(per_bin)
    return MimicModel(
        kind="table",
        y_cols=d2.y_cols,
        z_cols=d2.z_cols,
        bin_cols=bin_cols,
        bin_edges=edges,
        tables=tables,
    )


def _bin_ids(zb: np.ndarray, z_cols: tuple[Column, ...], bin_cols, edges) -> np.ndarray:
    """Mixed-radix bin id of each row.

    A categorical column's radix is its declared cardinality, never the
    codes a fold happens to contain, so a z cell has one id in every fold.
    """
    ids = np.zeros(zb.shape[0], dtype=np.intp)
    for j, e in zip(bin_cols, edges):
        if e is None:
            part = zb[:, j].astype(np.intp)
            width = z_cols[j].cardinality
        else:
            part = np.searchsorted(e, zb[:, j], side="right")
            width = e.size + 1
        ids = ids * width + part
    return ids


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
    _check_z_schema(model, d3)
    rng = derive_rng(seed, "mimic-apply")
    n, n_y = d3.n_rows, d3.n_y
    if model.kind == "regression":
        base = model.predict_mean(d3.z_block())
        use_gauss = rng.random(n) < GAUSSIAN_PROB
        gauss = rng.standard_normal((n, n_y)) @ model.chol.T
        lap = rng.laplace(0.0, model.laplace_scales, size=(n, n_y))
        y_hat = base + np.where(use_gauss[:, None], gauss, lap)
        new_cols = tuple(Column(c.name) for c in model.y_cols)
    elif model.kind == "table":
        bins = _bin_ids(d3.z_block(), model.z_cols, model.bin_cols, model.bin_edges)
        y_hat = np.empty((n, n_y))
        for k, table in enumerate(model.tables):
            probs = np.stack([table.get(int(b), table["__global__"]) for b in bins])
            y_hat[:, k] = _inverse_cdf(probs, rng.random(n))
        new_cols = model.y_cols
    else:
        raise ValueError(f"unknown mimic kind {model.kind!r}")
    return d3.with_y(y_hat, new_cols)


def noise_density(model: MimicModel, points: np.ndarray) -> np.ndarray:
    """Density of the mimic noise mixture at the given points.

    Positive everywhere: the Gaussian/Laplace mixture has full support on
    R^n_y, which is what guarantees the support-overlap hypothesis of the
    test regardless of the fitted regressor.
    """
    if model.kind != "regression":
        raise ValueError("noise_density is only defined for the regression kind")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n_y = len(model.y_cols)
    cov_solve = np.linalg.solve(model.chol, pts.T)  # chol @ chol.T = cov
    quad = np.sum(cov_solve**2, axis=0)
    logdet = 2.0 * float(np.log(np.diag(model.chol)).sum())
    g = np.exp(-0.5 * quad - 0.5 * logdet - 0.5 * n_y * np.log(2 * np.pi))
    b = model.laplace_scales
    l = np.exp(-np.abs(pts) / b).prod(axis=1) / float(np.prod(2.0 * b))
    return GAUSSIAN_PROB * g + (1.0 - GAUSSIAN_PROB) * l
