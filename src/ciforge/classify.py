"""Binary classifiers for the joint-vs-mimic discrimination step.

The workhorse is a from-scratch gradient-boosted tree ensemble on logistic
loss with second-order (Newton) leaf weights and exact greedy split search:

* candidate thresholds sit between consecutive distinct sorted values, so
  tied feature values can never be separated and training is invariant to
  row permutations; a threshold is the two values' midpoint, or the lower
  value where the midpoint rounds onto the upper one or their sum
  overflows, so a split always sends rows both ways;
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
* a feature with no repeated value among all training rows has none among
  a node's rows, so every cut of it lies between distinct values and only
  features with repeats gather their values to find the boundaries;
* when every feature holds at most two distinct values (one-hot data),
  they are its minimum and maximum and the builder sorts nothing: a
  feature's one cut lies between its two values, so its threshold is fixed
  for the fit, and the same few row sets come back round after round.
  Each fit's builder keeps a memo keyed by the bytes of a node's ascending
  rows: the node's layout (the features that take both values there, and a
  mask of its rows at each one's lower value) and, by feature, the rows of
  the children of every split taken there.  A node's left sums are
  row-wise cumsums of its g and h with each row off the mask replaced by
  +0.0, and its few cuts are scored in a Python loop, which costs less
  than numpy's fixed cost per call; a remembered split skips the cut of its
  node's rows.  That is bit-identical to scoring every cell: the layout is a
  pure function of the row set; the cumsum adds the lower value's rows in
  row order, the order of the stable sort; adding +0.0 changes no sum except
  -0.0, whose sign a gain squares away in g and which h = c*p*(1 - p) >= +0
  never holds; each gain is ``_gain``'s IEEE operations in the same order on
  the same sums (Python floats are IEEE doubles, and a zero denominator,
  which Python refuses, is divided by numpy instead, so 0/0 is still NaN and
  x/0 inf); the first maximum over the cuts in feature order keeps both
  tie-breaks, and a NaN gain rules out its feature's one cut.  The memo holds
  at most ``MEMO_CAP`` bytes per byte of the feature matrix; past that,
  nodes are scored as new ones and not stored.  Features with more values
  (mixture-shaped, rounded or ordinal) give new row sets round after round,
  and there the memo cost as much as the dense search or more, so those
  matrices take the dense search;
* rows with equal features fall in the same leaf of every tree, so they
  share a margin.  ``_canonical_order`` sorts them together and
  ``_row_groups`` numbers each run (the mimic groups its z rows with the
  same two).  Trees are grown on one row per group, each round evaluates
  the sigmoid, the margin-only part of the loss, the backoff and the
  validation prediction once per group, and ``predict_margin`` scores one
  row per group: the same sum over the same trees.  A group of c rows with
  label sum s and probability p has gradient c*p - s and hessian
  c*p*(1 - p): the sums of its rows' p - y and p(1 - p), added in another
  order.  Where no row repeats (c = 1, s = y) the fit is bit-identical to
  the per-row loop; where rows repeat the sums differ from it in their
  last bits, and when two one-hot columns cut a node into the same two row
  sets, those bits can pick the other column, with predictions equal up to
  rounding.  The ``m*y`` term and the loss's sum stay per row, so
  ``train_loss`` is the exact loss of the kept trees;
* the round with the lowest validation logistic loss (the first, on ties)
  becomes ``best_round``, and boosting stops once ``PATIENCE`` rounds have
  passed without beating it; prediction uses only the first ``best_round``
  trees;
* if a round would increase the training loss, its leaf values are halved
  until it does not (deterministic backoff), so the per-round training-loss
  sequence is non-increasing by construction.

The depth ``MAX_DEPTH``, shrinkage ``LEARNING_RATE``, leaf penalty ``L2``
and child hessian floor ``MIN_CHILD_WEIGHT`` are constants, not config
fields, since every caller uses one value of each; the builder reads them
when it runs, so a test can patch them.  ``GbtConfig`` holds the round cap.
The booster's overflow-free sigmoid ``_sigmoid`` and its mean logistic loss
on raw margins ``_logloss`` live here too; they are the package's only ones.

A Dataset-level wrapper scores the ensemble.  It addresses columns by
position: a dataset is encoded only if its columns equal, in order, the
ones the model was trained on, so a model trained without x columns accepts
only rows without x and its predictions cannot depend on x.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Column, Dataset, LabeledDataset, require_number
from .errors import EmptyTest, SchemaMismatch, SingleClass

ONE_HOT_CAP = 32
_GAIN_EPS = 1e-12
#: Rounds boosted past the best validation loss before the loop stops.
PATIENCE = 50
MAX_DEPTH = 4
LEARNING_RATE = 0.1
L2 = 1.0
MIN_CHILD_WEIGHT = 1.0
#: A builder's node memo holds at most this many bytes per byte of its
#: feature matrix; past it, nodes are scored without being remembered.
MEMO_CAP = 48


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
    """Booster settings; ``rounds`` is a cap, since boosting stops early
    once ``PATIENCE`` rounds pass without a better validation loss."""

    rounds: int = 200

    def __post_init__(self):
        if require_number("rounds", self.rounds, integer=True) < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")


@dataclass
class Tree:
    """Flat arrays, one entry per node; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    #: Splits on the longest root-to-leaf path.
    depth: int
    #: ``predict``'s routing: leaves read feature 0 and route to themselves.
    _route: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        leaf = self.feature < 0
        ids = np.arange(self.feature.size)
        self._route = (
            np.where(leaf, 0, self.feature),
            np.where(leaf, ids, self.left),
            np.where(leaf, ids, self.right),
        )

    def predict(self, f: np.ndarray) -> np.ndarray:
        # Every row steps down one level per pass; leaves route to
        # themselves, so rows that reach one early stay there.
        feature, left, right = self._route
        flat = f.ravel()
        row_start = np.arange(f.shape[0]) * f.shape[1]
        node = np.zeros(f.shape[0], dtype=np.intp)
        for _ in range(self.depth):
            go_left = flat[row_start + feature[node]] <= self.threshold[node]
            node = np.where(go_left, left[node], right[node])
        return self.value[node]

    def scale_values(self, factor: float) -> None:
        self.value = self.value * factor


def _threshold(lo: float, hi: float) -> float:
    """The cut between two consecutive distinct values: their midpoint, or
    ``lo`` where the midpoint rounds onto ``hi`` or ``lo + hi`` overflows."""
    thr = 0.5 * (lo + hi)
    return thr if lo <= thr < hi else lo


class _Layout:
    """The cuts of one node of a two-valued matrix: a pure function of the
    node's rows, kept across boosting rounds in ``_TreeBuilder.memo``."""

    __slots__ = ("feature", "low", "children")

    def __init__(self, low: np.ndarray):
        # low is every feature's (d, m) mask of the node's rows at its lower value.
        count = np.count_nonzero(low, axis=1)
        #: The features that take both of their values in the node.
        self.feature = np.flatnonzero((count > 0) & (count < low.shape[1]))
        self.low = low[self.feature]
        #: feature -> the children's rows, once split there.
        self.children: dict[int, tuple[np.ndarray, np.ndarray]] = {}


class _TreeBuilder:
    """Exact greedy split search: node-partitioned sorted orders, or a two-valued matrix's node layouts."""

    def __init__(self, f: np.ndarray):
        self.f_t = np.ascontiguousarray(f.T)
        lo, hi = self.f_t.min(axis=1), self.f_t.max(axis=1)
        low = self.f_t == lo[:, None]
        self.memo: dict[bytes, _Layout] | None = None
        self.memo_bytes = 0
        if (low | (self.f_t == hi[:, None])).all():
            # Every feature holds at most two values, so few row sets recur
            # round after round: each one's layout is kept, keyed by the bytes
            # of its ascending rows.  The rows at a feature's lower value go
            # left, at a threshold fixed for the builder.
            self.memo, self.low, self.order = {}, low, None
            self.threshold = [_threshold(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
            return
        # Row order per feature, sorted once and shared across all rounds.
        self.order = np.argsort(self.f_t, axis=1, kind="stable")
        # Add to a row id to find it in f_t.ravel() under each feature.
        self.offsets = (np.arange(f.shape[1]) * f.shape[0])[:, None]
        # Features with a repeated value; a node's rows are a subset of all
        # rows, so every other feature has no tie in any node.
        ranked = np.take_along_axis(self.f_t, self.order, axis=1)
        steps = np.count_nonzero(ranked[:, :-1] != ranked[:, 1:], axis=1)
        self.tied = np.flatnonzero(steps < f.shape[0] - 1)

    def build(self, g: np.ndarray, h: np.ndarray) -> tuple[Tree, np.ndarray]:
        """Grow one tree; also return the leaf value of every training row."""
        nodes: list[list] = []
        row_values = np.empty(self.f_t.shape[1])
        self._grow(np.arange(self.f_t.shape[1]), self.order, 0, g, h, nodes, row_values)
        feature, threshold, left, right, value, depth = zip(*nodes)
        tree = Tree(
            np.asarray(feature, dtype=np.int32),
            np.asarray(threshold),
            np.asarray(left, dtype=np.int32),
            np.asarray(right, dtype=np.int32),
            np.asarray(value),
            max(depth),
        )
        return tree, row_values

    def _grow(self, rows, order, depth, g, h, nodes, row_values) -> int:
        """Append the subtree of one node to ``nodes`` (each entry is feature,
        threshold, left, right, value, depth) and return its index.

        ``order`` is the node's rows in every feature's sorted order, (d, m),
        or None where no split search needs it: at ``MAX_DEPTH`` and on a
        two-valued matrix.
        """
        # rows stay ascending, so a node sum adds its operands in row order.
        gm, hm = g[rows], h[rows]
        g_sum = float(gm.sum())
        h_sum = float(hm.sum())
        split = kept = None
        if depth < MAX_DEPTH and rows.size >= 2:
            if self.memo is None:
                split = self._best_split(order, g, h, g_sum, h_sum)
            else:
                key = rows.tobytes()
                layout = kept = self.memo.get(key)
                if kept is None:
                    layout = _Layout(self.low[:, rows])
                    if self._reserve(len(key) + layout.feature.nbytes + layout.low.nbytes):
                        self.memo[key] = kept = layout
                split = self._boundary_split(layout, gm, hm, g_sum, h_sum)
        node = len(nodes)
        if split is None:
            v = -g_sum / (h_sum + L2) * LEARNING_RATE
            row_values[rows] = v
            nodes.append([-1, 0.0, -1, -1, v, depth])
            return node
        j, thr = split
        nodes.append([j, thr, -1, -1, 0.0, depth])
        known = None if kept is None else kept.children.get(j)
        order_left = order_right = None
        if known is not None:
            rows_left, rows_right = known
        else:
            go_left = self.f_t[j] <= thr
            left_mask = go_left[rows]
            # (np.compress is much faster than boolean indexing here.)
            rows_left, rows_right = np.compress(left_mask, rows), np.compress(~left_mask, rows)
            if order is not None and depth + 1 < MAX_DEPTH:  # leaves need only their rows
                # A stable partition keeps each feature's sorted order, and
                # every order row holds the same node rows, so each child is
                # rectangular.
                order_mask = go_left[order].ravel()
                order_left = np.compress(order_mask, order).reshape(order.shape[0], rows_left.size)
                order_right = np.compress(~order_mask, order).reshape(order.shape[0], -1)
            if kept is not None and self._reserve(rows.nbytes):
                kept.children[j] = rows_left, rows_right
        nodes[node][2] = self._grow(rows_left, order_left, depth + 1, g, h, nodes, row_values)
        nodes[node][3] = self._grow(rows_right, order_right, depth + 1, g, h, nodes, row_values)
        return node

    def _reserve(self, nbytes: int) -> bool:
        """Count ``nbytes`` more bytes in the memo and return True, or return
        False if that would pass ``MEMO_CAP`` bytes per byte of the feature
        matrix."""
        if self.memo_bytes + nbytes > MEMO_CAP * self.f_t.nbytes:
            return False
        self.memo_bytes += nbytes
        return True

    def _best_split(self, order, g, h, g_sum, h_sum):
        """Best (feature, threshold) of one node, or None, scoring every
        cell; ``order`` is (d, m)."""
        # Column k is the cut between sorted positions k and k + 1; the last
        # column has no right side.  A tie-free feature has a boundary at
        # every cut, so only the tied ones gather their values.
        ok = np.zeros(order.shape, dtype=bool)
        ok[:, :-1] = True
        tied = self.tied
        if tied.size:
            v = self.f_t.ravel()[order[tied] + self.offsets[tied]]
            ok[tied, :-1] = v[:, :-1] != v[:, 1:]
        # cumsum along a row is a sequential add, as on a 1-D array.
        gl = g[order]
        np.cumsum(gl, axis=1, out=gl)
        hl = h[order]
        np.cumsum(hl, axis=1, out=hl)
        gain = self._gain(gl, hl, ok, g_sum, h_sum)
        cut = np.argmax(gain, axis=1)  # first max: lowest threshold wins ties
        row_best = gain[np.arange(gain.shape[0]), cut]
        wins = row_best > _GAIN_EPS  # False for NaN, as the strict compare was
        if not wins.any():
            return None
        j = int(np.argmax(np.where(wins, row_best, -np.inf)))  # first max: lowest feature wins ties
        f_j = self.f_t[j]
        return j, _threshold(float(f_j[order[j, cut[j]]]), float(f_j[order[j, cut[j] + 1]]))

    def _boundary_split(self, layout, gm, hm, g_sum, h_sum):
        """``_best_split`` of a node of a two-valued matrix, from its layout
        and its rows' ``gm`` and ``hm``: only the one cut of each feature
        between its two values is scored."""
        if layout.feature.size == 0:  # every feature constant in the node
            return None
        # The left sums add the low rows' g and h in row order, as the sorted
        # prefix of _best_split's cumsum does; the +0.0 added for every other
        # row changes no sum but a -0.0, which h never holds and g's gain
        # squares away.
        gl = np.cumsum(np.where(layout.low, gm, 0.0), axis=1)[:, -1]
        hl = np.cumsum(np.where(layout.low, hm, 0.0), axis=1)[:, -1]
        k = _best_cell(gl.tolist(), hl.tolist(), g_sum, h_sum)
        if k < 0:
            return None
        j = int(layout.feature[k])
        return j, self.threshold[j]

    @staticmethod
    def _gain(gl, hl, ok, g_sum, h_sum):
        """Split gain of every cut from its left sums, -inf where ``ok`` is
        False or a child is lighter than ``MIN_CHILD_WEIGHT``; overwrites
        ``gl`` and ``hl``."""
        # The in-place steps are the IEEE operations of
        # gl*gl/(hl+l2) + gr*gr/(hr+l2) - parent, cell by cell.
        gr = g_sum - gl
        hr = h_sum - hl
        ok = (hl >= MIN_CHILD_WEIGHT) & ok
        ok &= hr >= MIN_CHILD_WEIGHT
        hl += L2
        hr += L2
        with np.errstate(divide="ignore", invalid="ignore"):  # masked cells may divide by 0
            gl *= gl
            gl /= hl
            gr *= gr
            gr /= hr
        gain = gl
        gain += gr
        gain -= g_sum * g_sum / (h_sum + L2)
        np.copyto(gain, -np.inf, where=~ok)
        return gain


def _best_cell(gl: list, hl: list, g_sum: float, h_sum: float) -> int:
    """``_boundary_split``'s choice among its cuts, one per feature, in
    Python floats: the index of the first cut with the largest gain above
    ``_GAIN_EPS``, or -1.  ``gl`` and ``hl`` are the cuts' left sums, in
    feature order."""
    # Each gain is _gain's IEEE operations in _gain's order.  A NaN gain is
    # never > best, so it rules out its feature's one cut, as in _best_split.
    l2, min_child_weight = L2, MIN_CHILD_WEIGHT
    parent = g_sum * g_sum / (h_sum + l2)
    best, best_k = _GAIN_EPS, -1
    for k, (gl_k, hl_k) in enumerate(zip(gl, hl)):
        gr_k = g_sum - gl_k
        hr_k = h_sum - hl_k
        if not (hl_k >= min_child_weight and hr_k >= min_child_weight):
            continue
        try:
            gain = gl_k * gl_k / (hl_k + l2) + gr_k * gr_k / (hr_k + l2) - parent
        except ZeroDivisionError:  # numpy's IEEE quotient instead: 0/0 is NaN, x/0 inf
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = float(np.float64(gl_k * gl_k) / (hl_k + l2) + np.float64(gr_k * gr_k) / (hr_k + l2) - parent)
        if gain > best:  # first max: the lowest feature wins ties
            best, best_k = gain, k
    return best_k


def _sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function, evaluated without overflow on either sign of ``v``."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _logloss(margin: np.ndarray, y: np.ndarray, rows: np.ndarray | None = None) -> float:
    """Mean binary cross-entropy on raw margins: log(1 + exp(-|m|)) + max(m, 0) - m*y per row.

    With ``rows``, ``margin`` holds one value per group of equal rows and row
    i's margin is ``margin[rows[i]]``; only the terms that need y are per row.
    """
    soft = np.logaddexp(0.0, -np.abs(margin)) + np.maximum(margin, 0.0)
    if rows is not None:
        soft, margin = soft[rows], margin[rows]
    per = soft - margin * y
    return float(np.sum(per) / margin.shape[0])


def _canonical_order(f: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lexicographic row order by features, then ``y``: equal feature rows end up adjacent."""
    return np.lexsort((y,) + tuple(f[:, j] for j in range(f.shape[1] - 1, -1, -1)))


def _row_groups(f: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(one row of each group of equal rows of ``f``, each row's group), where
    ``order`` lists the rows with equal ones adjacent."""
    ranked = f[order]
    new = np.ones(f.shape[0], dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    group = np.empty(f.shape[0], dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


@dataclass
class BoostedTrees:
    """Matrix-level boosted ensemble (binary, logistic loss)."""

    trees: list[Tree]
    best_round: int
    train_loss: list[float]
    val_loss: list[float]

    def predict_margin(self, f: np.ndarray) -> np.ndarray:
        # Equal rows share a leaf in every tree: score one of each and gather.
        first, group = _row_groups(f, _canonical_order(f, np.zeros(f.shape[0])))
        f, margin = f[first], np.zeros(first.size)
        for tree in self.trees[: self.best_round]:
            margin += tree.predict(f)
        return margin[group]

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
    Boosting ends after ``config.rounds`` rounds, or earlier once
    ``PATIENCE`` rounds have passed since best_round; ``trees`` keeps every
    tree built.
    """
    y = np.asarray(y_train, dtype=np.float64)
    yv = np.asarray(y_val, dtype=np.float64)
    if np.unique(y).size < 2:
        raise SingleClass("training labels contain a single class")
    # Canonical row order (features, then label) makes every accumulation
    # order-independent, so training is bit-identical under row permutation.
    canon = _canonical_order(f_train, y)
    # Equal feature rows share a leaf in every tree, so they share a margin:
    # each round evaluates one margin per group, and the trees are grown on
    # one row per group with the group's gradient and hessian sums.
    first, rows = _row_groups(f_train, canon)
    y, rows = y[canon], rows[canon]
    counts = np.bincount(rows)
    y_sum = np.bincount(rows, weights=y)
    builder = _TreeBuilder(f_train[first])
    first_val, rows_val = _row_groups(f_val, _canonical_order(f_val, yv))
    f_val = f_val[first_val]
    margin = np.zeros(first.size)
    margin_val = np.zeros(first_val.size)
    train_loss = [_logloss(margin, y, rows)]
    val_loss = [_logloss(margin_val, yv, rows_val)]
    trees: list[Tree] = []
    best_round = 0
    for _ in range(config.rounds):
        p = _sigmoid(margin)
        cp = counts * p
        tree, delta = builder.build(cp - y_sum, cp * (1.0 - p))
        # Deterministic backoff: halve the step until the training loss
        # does not increase (runs at most a handful of times near
        # saturation, usually zero); after 40 halvings keep the last step.
        for halvings in range(41):
            stepped = margin + delta
            loss = _logloss(stepped, y, rows)
            if loss <= train_loss[-1] or halvings == 40:
                break
            delta *= 0.5
            tree.scale_values(0.5)
        margin = stepped
        margin_val = margin_val + tree.predict(f_val)
        trees.append(tree)
        train_loss.append(loss)
        val_loss.append(_logloss(margin_val, yv, rows_val))
        # Strict < keeps the first minimum, as np.argmin does.
        if val_loss[-1] < val_loss[best_round]:
            best_round = len(val_loss) - 1
        elif len(val_loss) - 1 - best_round >= PATIENCE:
            break
    return BoostedTrees(trees, best_round, train_loss, val_loss)


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
