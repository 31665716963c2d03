"""Binary classifiers for the joint-vs-mimic discrimination step.

The workhorse is a from-scratch gradient-boosted tree ensemble on logistic
loss with second-order (Newton) leaf weights and exact greedy split search:

* candidate thresholds sit between consecutive distinct sorted values, so
  tied feature values can never be separated and training is invariant to
  row permutations;
* ties in gain break toward the lowest feature index, then the lowest
  threshold, making every fit bit-deterministic;
* rows are argsorted once per feature.  Each node carries a (features,
  rows) array of its rows in every feature's sorted order, and a split
  hands each child a stable partition of it, so no node rescans rows it
  does not own.  A node scores all features at once with row-wise cumsums.
  The fit is bit-identical to scanning one feature at a time: a row-wise
  cumsum adds in the same sequence as a 1-D one, node sums run over rows in
  ascending order, and the first maximum along and then across the rows
  keeps both tie-breaks;
* the round played on the validation set with the lowest logistic loss
  becomes ``best_round``; prediction uses only that prefix of trees;
* if a round would increase the training loss, its leaf values are halved
  until it does not (deterministic backoff), so the per-round training-loss
  sequence is non-increasing by construction.

A Dataset-level wrapper scores the ensemble.  It addresses columns by
position: a dataset is encoded only if its columns equal, in order, the
ones the model was trained on, so a model trained without x columns accepts
only rows without x and its predictions cannot depend on x.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Column, Dataset, LabeledDataset
from .errors import EmptyTest, SchemaMismatch, SingleClass
from .nn import _loss_value, _sigmoid

ONE_HOT_CAP = 32
_GAIN_EPS = 1e-12


# ---------------------------------------------------------------------------
# Feature encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeatureEncoder:
    """Maps raw column blocks to a numeric feature matrix.

    Categorical columns with cardinality <= 32 are one-hot encoded;
    larger ones keep their ordinal codes.  Continuous columns pass through.
    """

    cols: tuple[Column, ...]

    def transform(self, block: np.ndarray) -> np.ndarray:
        block = np.atleast_2d(np.asarray(block, dtype=np.float64))
        if block.shape[1] != len(self.cols):
            raise SchemaMismatch(
                f"expected {len(self.cols)} columns, got {block.shape[1]}"
            )
        parts = []
        for j, c in enumerate(self.cols):
            v = block[:, j]
            if c.kind == "categorical" and c.cardinality <= ONE_HOT_CAP:
                hot = np.zeros((v.size, c.cardinality))
                hot[np.arange(v.size), v.astype(np.intp)] = 1.0
                parts.append(hot)
            else:
                parts.append(v[:, None])
        if not parts:
            return np.empty((block.shape[0], 0))
        return np.hstack(parts)


# ---------------------------------------------------------------------------
# Gradient-boosted trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GbtConfig:
    rounds: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    l2: float = 1.0
    min_child_weight: float = 1.0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not self.l2 >= 0.0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if not self.min_child_weight >= 0.0:
            raise ValueError(f"min_child_weight must be >= 0, got {self.min_child_weight}")


@dataclass
class Tree:
    """Flat arrays, one entry per node; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    @property
    def depth(self) -> int:
        def walk(node: int) -> int:
            if self.feature[node] < 0:
                return 0
            return 1 + max(walk(self.left[node]), walk(self.right[node]))

        return walk(0)

    def predict(self, f: np.ndarray) -> np.ndarray:
        # Every row steps down one level per pass; leaves route to
        # themselves, so rows that reach one early stay there.
        leaf = self.feature < 0
        ids = np.arange(self.feature.size)
        feature = np.where(leaf, 0, self.feature)
        left = np.where(leaf, ids, self.left)
        right = np.where(leaf, ids, self.right)
        flat = f.ravel()
        row_start = np.arange(f.shape[0]) * f.shape[1]
        node = np.zeros(f.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = flat[row_start + feature[node]] <= self.threshold[node]
            node = np.where(go_left, left[node], right[node])
        return self.value[node]

    def scale_values(self, factor: float) -> None:
        self.value = self.value * factor


class _TreeBuilder:
    """Exact greedy split search over node-partitioned presorted indices."""

    def __init__(self, f: np.ndarray, cfg: GbtConfig):
        self.cfg = cfg
        self.f_t = np.ascontiguousarray(f.T)
        # Row order per feature, sorted once and shared across all rounds.
        self.order = np.argsort(self.f_t, axis=1, kind="stable")
        # Add to a row id to find it in f_t.ravel() under each feature.
        self.offsets = (np.arange(f.shape[1]) * f.shape[0])[:, None]

    def build(self, g: np.ndarray, h: np.ndarray) -> tuple[Tree, np.ndarray]:
        """Grow one tree; also return the leaf value of every training row."""
        cfg = self.cfg
        d = self.f_t.shape[0]
        feature, threshold, left, right, value = [], [], [], [], []
        row_values = np.empty(self.f_t.shape[1])

        def add_node(j: int, thr: float, v: float) -> int:
            feature.append(j)
            threshold.append(thr)
            left.append(-1)
            right.append(-1)
            value.append(v)
            return len(feature) - 1

        def grow(rows: np.ndarray, order: np.ndarray, depth: int) -> int:
            # rows stay ascending, so a node sum adds its operands in row order.
            g_sum = float(g[rows].sum())
            h_sum = float(h[rows].sum())
            split = None if depth >= cfg.max_depth else self._best_split(order, g, h, g_sum, h_sum)
            if split is None:
                v = -g_sum / (h_sum + cfg.l2) * cfg.learning_rate
                row_values[rows] = v
                return add_node(-1, 0.0, v)
            j, thr = split
            node = add_node(j, thr, 0.0)
            go_left = self.f_t[j] <= thr
            # A stable partition keeps each feature's sorted order, and every
            # order row holds the same node rows, so each child is rectangular.
            # (np.compress is much faster than boolean indexing here.)
            rows_left = go_left[rows]
            order_left = go_left[order].ravel()
            n_left = int(np.count_nonzero(rows_left))
            left[node] = grow(
                np.compress(rows_left, rows), np.compress(order_left, order).reshape(d, n_left), depth + 1
            )
            right[node] = grow(
                np.compress(~rows_left, rows), np.compress(~order_left, order).reshape(d, -1), depth + 1
            )
            return node

        grow(np.arange(self.f_t.shape[1]), self.order, 0)
        tree = Tree(
            np.asarray(feature, dtype=np.int32),
            np.asarray(threshold),
            np.asarray(left, dtype=np.int32),
            np.asarray(right, dtype=np.int32),
            np.asarray(value),
        )
        return tree, row_values

    def _best_split(self, order, g, h, g_sum, h_sum):
        """Best (feature, threshold) of one node, or None; ``order`` is (d, m)."""
        cfg = self.cfg
        if order.shape[1] < 2:
            return None
        # Column k scores the cut between sorted positions k and k + 1; the
        # last column has no right side and is masked out.
        v = self.f_t.ravel()[order + self.offsets]
        ok = np.zeros(v.shape, dtype=bool)
        np.not_equal(v[:, :-1], v[:, 1:], out=ok[:, :-1])  # boundaries between distinct values
        del v
        # cumsum along a row is a sequential add, as on a 1-D array, and the
        # in-place steps below are the IEEE operations of
        # gl*gl/(hl+l2) + gr*gr/(hr+l2) - parent.
        gl = g[order]
        np.cumsum(gl, axis=1, out=gl)
        hl = h[order]
        np.cumsum(hl, axis=1, out=hl)
        gr = g_sum - gl
        hr = h_sum - hl
        ok &= hl >= cfg.min_child_weight
        ok &= hr >= cfg.min_child_weight
        hl += cfg.l2
        hr += cfg.l2
        with np.errstate(divide="ignore", invalid="ignore"):  # masked cells may divide by 0
            gl *= gl
            gl /= hl
            gr *= gr
            gr /= hr
        gain = gl
        gain += gr
        gain -= g_sum * g_sum / (h_sum + cfg.l2)
        np.copyto(gain, -np.inf, where=~ok)
        cut = np.argmax(gain, axis=1)  # first max: lowest threshold wins ties
        row_best = gain[np.arange(gain.shape[0]), cut]
        wins = row_best > _GAIN_EPS  # False for NaN, as the strict compare was
        if not wins.any():
            return None
        j = int(np.argmax(np.where(wins, row_best, -np.inf)))  # first max: lowest feature wins ties
        lo, hi = self.f_t[j, order[j, cut[j]]], self.f_t[j, order[j, cut[j] + 1]]
        thr = 0.5 * (lo + hi)
        if thr >= hi:  # midpoint rounded up to the right value
            thr = lo
        return j, float(thr)


def _logloss(margin: np.ndarray, y: np.ndarray) -> float:
    return _loss_value(margin, y, "logistic")


@dataclass
class BoostedTrees:
    """Matrix-level boosted ensemble (binary, logistic loss)."""

    trees: list[Tree]
    best_round: int
    train_loss: list[float]
    val_loss: list[float]

    def predict_margin(self, f: np.ndarray, rounds: int | None = None) -> np.ndarray:
        n_use = self.best_round if rounds is None else rounds
        margin = np.zeros(f.shape[0])
        for tree in self.trees[:n_use]:
            margin += tree.predict(f)
        return margin

    def predict_score(self, f: np.ndarray) -> np.ndarray:
        return _sigmoid(self.predict_margin(f))


def fit_boosted_trees(
    f_train: np.ndarray,
    y_train: np.ndarray,
    f_val: np.ndarray,
    y_val: np.ndarray,
    config: GbtConfig,
) -> BoostedTrees:
    """Boost logistic loss; select best_round on the validation set.

    ``val_loss[r]`` is the validation loss using the first r trees (entry 0
    is the empty ensemble), so best_round may be 0 when no tree helps.
    """
    y = np.asarray(y_train, dtype=np.float64)
    yv = np.asarray(y_val, dtype=np.float64)
    if np.unique(y).size < 2:
        raise SingleClass("training labels contain a single class")
    # Canonical row order (features, then label) makes every accumulation
    # order-independent, so training is bit-identical under row permutation.
    canon = np.lexsort((y,) + tuple(f_train[:, j] for j in range(f_train.shape[1] - 1, -1, -1)))
    f_train = f_train[canon]
    y = y[canon]
    builder = _TreeBuilder(f_train, config)
    margin = np.zeros(f_train.shape[0])
    margin_val = np.zeros(f_val.shape[0])
    train_loss = [_logloss(margin, y)]
    val_loss = [_logloss(margin_val, yv)]
    trees: list[Tree] = []
    for _ in range(config.rounds):
        p = _sigmoid(margin)
        g = p - y
        h = p * (1.0 - p)
        tree, delta = builder.build(g, h)
        # Deterministic backoff: halve the step until the training loss
        # does not increase (runs at most a handful of times near
        # saturation, usually zero).
        for _ in range(40):
            if _logloss(margin + delta, y) <= train_loss[-1]:
                break
            delta *= 0.5
            tree.scale_values(0.5)
        margin = margin + delta
        margin_val = margin_val + tree.predict(f_val)
        trees.append(tree)
        train_loss.append(_logloss(margin, y))
        val_loss.append(_logloss(margin_val, yv))
    best_round = int(np.argmin(val_loss))
    return BoostedTrees(trees, best_round, train_loss, val_loss)


def fit_boosted_regressor(
    f: np.ndarray, y: np.ndarray, rounds: int, learning_rate: float, max_depth: int = 1, l2: float = 1.0
) -> BoostedTrees:
    """Squared-loss boosting (unit hessian); depth 1 gives boosted stumps."""
    cfg = GbtConfig(rounds=rounds, max_depth=max_depth, learning_rate=learning_rate, l2=l2, min_child_weight=1.0)
    y = np.asarray(y, dtype=np.float64)
    builder = _TreeBuilder(f, cfg)
    pred = np.zeros(f.shape[0])
    trees: list[Tree] = []
    ones = np.ones(f.shape[0])
    losses = [float(np.mean((pred - y) ** 2))]
    for _ in range(rounds):
        tree, delta = builder.build(pred - y, ones)
        pred = pred + delta
        trees.append(tree)
        losses.append(float(np.mean((pred - y) ** 2)))
    return BoostedTrees(trees, len(trees), losses, losses)


# ---------------------------------------------------------------------------
# Dataset-level classifier wrapper
# ---------------------------------------------------------------------------


@dataclass
class DatasetClassifier:
    """A boosted ensemble plus the encoder of the columns it was fit on.

    ``encoder.cols`` is the training set's ``Dataset.columns``, and only a
    dataset with exactly those columns, in that order, can be scored.
    """

    core: BoostedTrees
    encoder: FeatureEncoder

    def predict_score(self, ds: Dataset) -> np.ndarray:
        return self.core.predict_score(_features(self.encoder, ds))


def _features(encoder: FeatureEncoder, ds: Dataset) -> np.ndarray:
    """Encoded feature matrix of a dataset whose columns are the encoder's."""
    if ds.columns != encoder.cols:
        raise SchemaMismatch(
            f"dataset columns {[c.name for c in ds.columns]} do not match the model's "
            f"{[c.name for c in encoder.cols]}"
        )
    return encoder.transform(ds.data)


def gbt_train(train: LabeledDataset, val: LabeledDataset, config: GbtConfig = GbtConfig()) -> DatasetClassifier:
    """Fit the boosted-tree classifier on a labeled dataset."""
    encoder = FeatureEncoder(train.base.columns)
    f_tr, f_val = _features(encoder, train.base), _features(encoder, val.base)
    booster = fit_boosted_trees(f_tr, train.labels, f_val, val.labels, config)
    return DatasetClassifier(booster, encoder)


@dataclass(frozen=True)
class ClassifierError:
    """Zero-one test error with the per-row losses that define it."""

    error_rate: float
    n_test: int
    losses: np.ndarray

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=np.int8)
        losses.setflags(write=False)
        object.__setattr__(self, "losses", losses)


def classifier_error(model, test: LabeledDataset) -> ClassifierError:
    """Zero-one error at score threshold 0.5 on a labeled test set."""
    if test.n_rows == 0:
        raise EmptyTest("empty test set")
    scores = model.predict_score(test.base)
    preds = (scores >= 0.5).astype(np.int8)
    losses = (preds != test.labels).astype(np.int8)
    return ClassifierError(error_rate=float(losses.mean()), n_test=test.n_rows, losses=losses)
