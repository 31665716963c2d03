"""Boosted trees and error measurement."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.classify import (
    FeatureEncoder,
    GbtConfig,
    Tree,
    _TreeBuilder,
    classifier_error,
    fit_boosted_regressor,
    fit_boosted_trees,
    gbt_train,
)
from ciforge.core import Column, Dataset, LabeledDataset, derive_rng, drop_x, strip_x
from ciforge.datagen import PostNonlinearConfig, gen_discrete_joint, gen_postnonlinear, sample_discrete
from ciforge.errors import EmptyTest, SchemaMismatch, SingleClass
from ciforge.testkit import TestConfig, ci_test


def blob_problem(n=2000, seed=0, d=2, separation=1.5):
    rng = derive_rng(seed, "blobs")
    f = rng.standard_normal((n, d))
    y = (f[:, 0] + 0.5 * f[:, 1] > 0).astype(np.float64)
    f[y == 1, :2] += separation
    return f, y


def as_labeled(f, y):
    cols = tuple(Column(f"x_{j}") for j in range(f.shape[1] - 1))
    ds = Dataset(cols, (Column("y_0"),), (), f)
    return LabeledDataset(ds, y.astype(np.int8))


class TestBoostedTrees:
    def test_separable_blobs(self):
        f, y = blob_problem()
        b = fit_boosted_trees(f[:1500], y[:1500], f[1500:], y[1500:], GbtConfig(rounds=50))
        err = float(((b.predict_score(f[1500:]) >= 0.5) != y[1500:]).mean())
        assert err < 0.05

    def test_random_labels_near_half(self):
        rng = derive_rng(1, "noise")
        f = rng.standard_normal((2700, 3))
        y = rng.integers(0, 2, size=2700).astype(np.float64)
        b = fit_boosted_trees(f[:700], y[:700], f[700:1400], y[700:1400], GbtConfig(rounds=50))
        err = float(((b.predict_score(f[1400:]) >= 0.5) != y[1400:]).mean())
        assert abs(err - 0.5) < 0.05

    def test_deterministic(self):
        f, y = blob_problem(n=400)
        a = fit_boosted_trees(f[:300], y[:300], f[300:], y[300:], GbtConfig(rounds=25))
        b = fit_boosted_trees(f[:300], y[:300], f[300:], y[300:], GbtConfig(rounds=25))
        assert a.best_round == b.best_round
        for ta, tb in zip(a.trees, b.trees):
            assert np.array_equal(ta.feature, tb.feature)
            assert np.array_equal(ta.threshold, tb.threshold)
            assert np.array_equal(ta.value, tb.value)

    def test_training_loss_non_increasing(self):
        rng = derive_rng(2, "mono")
        for seed in range(10):
            rr = derive_rng(seed, "mono-data")
            f = rr.standard_normal((300, 4))
            y = (f @ rr.standard_normal(4) + 0.5 * rr.standard_normal(300) > 0).astype(np.float64)
            b = fit_boosted_trees(f[:200], y[:200], f[200:], y[200:], GbtConfig(rounds=40))
            assert all(
                b.train_loss[i + 1] <= b.train_loss[i] + 1e-12 for i in range(len(b.train_loss) - 1)
            )

    def test_permutation_invariance(self):
        f, y = blob_problem(n=600, seed=5)
        rng = derive_rng(3, "perm")
        base = fit_boosted_trees(f[:400], y[:400], f[400:], y[400:], GbtConfig(rounds=20))
        for _ in range(3):
            p = rng.permutation(400)
            other = fit_boosted_trees(f[:400][p], y[:400][p], f[400:], y[400:], GbtConfig(rounds=20))
            for ta, tb in zip(base.trees, other.trees):
                assert np.array_equal(ta.feature, tb.feature)
                assert np.array_equal(ta.threshold, tb.threshold)
                assert np.array_equal(ta.value, tb.value)

    def test_unused_feature_shift_leaves_predictions_unchanged(self):
        f, y = blob_problem(n=500, seed=7, d=3)
        f[:, 2] = 0.0  # constant: never splittable
        b = fit_boosted_trees(f[:350], y[:350], f[350:], y[350:], GbtConfig(rounds=20))
        shifted = f[350:].copy()
        shifted[:, 2] += 123.0
        assert np.array_equal(b.predict_score(f[350:]), b.predict_score(shifted))

    def test_max_depth_respected(self):
        f, y = blob_problem(n=500, seed=9)
        b = fit_boosted_trees(f[:400], y[:400], f[400:], y[400:], GbtConfig(rounds=10, max_depth=2))
        assert all(t.depth <= 2 for t in b.trees)

    def test_single_class_rejected(self):
        f, _ = blob_problem(n=100)
        with pytest.raises(SingleClass):
            fit_boosted_trees(f[:80], np.ones(80), f[80:], np.ones(20), GbtConfig())

    def test_regressor_fits_step_function(self):
        rng = derive_rng(4, "reg")
        f = rng.standard_normal((800, 2))
        y = np.where(f[:, 0] > 0, 2.0, -1.0)
        reg = fit_boosted_regressor(f, y, rounds=100, learning_rate=0.2)
        resid = y - reg.predict_margin(f, rounds=len(reg.trees))
        assert float(resid.var()) < 0.01


class TestDatasetClassifiers:
    def test_gbt_train_and_error(self):
        f, y = blob_problem(n=900, seed=11, d=3)
        lab = as_labeled(f, y)
        train, val, test = lab.take(range(500)), lab.take(range(500, 700)), lab.take(range(700, 900))
        model = gbt_train(train, val, GbtConfig(rounds=40))
        err = classifier_error(model, test)
        assert err.error_rate < 0.1
        assert err.n_test == 200
        assert err.error_rate == err.losses.mean()

    def test_x_free_model_rejects_rows_with_x(self):
        """A model trained without x scores only rows without x, so x can
        never reach its predictions."""
        f, y = blob_problem(n=300, seed=12, d=4)
        lab = as_labeled(f, y)
        model = gbt_train(strip_x(lab.take(range(200))), strip_x(lab.take(range(200, 300))), GbtConfig(rounds=5))
        with pytest.raises(SchemaMismatch):
            model.predict_score(lab.base)
        assert model.predict_score(drop_x(lab.base)).shape == (300,)

    def test_changed_cardinality_raises(self):
        rng = derive_rng(12, "cardinality")
        data = np.column_stack([rng.standard_normal(300), rng.integers(0, 3, 300), rng.integers(0, 3, 300)])
        y = (data[:, 1] + data[:, 0] > 1).astype(np.float64)
        z3 = (Column("z_0", "categorical", 3),)
        lab = LabeledDataset(Dataset((Column("x_0"),), (Column("y_0", "categorical", 3),), z3, data), y)
        model = gbt_train(lab.take(range(200)), lab.take(range(200, 300)), GbtConfig(rounds=5))
        wider = Dataset(lab.base.x_cols, lab.base.y_cols, (Column("z_0", "categorical", 4),), data)
        with pytest.raises(SchemaMismatch):
            model.predict_score(wider)

    def test_gbt_rejects_validation_set_with_other_columns(self):
        f, y = blob_problem(n=300, seed=12, d=3)
        lab = as_labeled(f, y)
        with pytest.raises(SchemaMismatch):
            gbt_train(lab.take(range(200)), strip_x(lab.take(range(200, 300))), GbtConfig(rounds=5))

    def test_missing_column_raises(self):
        f, y = blob_problem(n=300, seed=13, d=3)
        lab = as_labeled(f, y)
        model = gbt_train(lab.take(range(200)), lab.take(range(200, 300)), GbtConfig(rounds=5))
        with pytest.raises(SchemaMismatch):
            model.predict_score(drop_x(lab.base))


class TestClassifierError:
    def test_constant_classifier_on_balanced_test(self):
        class Constant:
            def predict_score(self, ds):
                return np.zeros(ds.n_rows)

        f, _ = blob_problem(n=100, seed=18)
        lab = as_labeled(f, (np.arange(100) % 2).astype(np.float64))
        err = classifier_error(Constant(), lab)
        assert err.error_rate == 0.5

    def test_perfect_classifier(self):
        class Oracle:
            def predict_score(self, ds):
                return (ds.y_block()[:, 0] > 0).astype(np.float64)

        rng = derive_rng(19, "perfect")
        f = rng.standard_normal((50, 2))
        y = (f[:, 1] > 0).astype(np.float64)
        err = classifier_error(Oracle(), as_labeled(f, y))
        assert err.error_rate == 0.0

    def test_error_equals_mean_of_losses(self):
        class Half:
            def predict_score(self, ds):
                return (np.arange(ds.n_rows) % 3 == 0).astype(np.float64)

        f, y = blob_problem(n=90, seed=20)
        err = classifier_error(Half(), as_labeled(f, y))
        assert err.error_rate == err.losses.astype(np.float64).mean()

    def test_empty_test_rejected(self):
        f, y = blob_problem(n=30, seed=21)
        lab = as_labeled(f, y)
        with pytest.raises(EmptyTest):
            classifier_error(object(), lab.take([]))


class TestFeatureEncoder:
    def test_one_hot_small_cardinality(self):
        enc = FeatureEncoder((Column("z_0", "categorical", 3), Column("z_1")))
        out = enc.transform(np.array([[2.0, 0.5], [0.0, -1.0]]))
        assert out.shape == (2, 4)
        assert np.array_equal(out[:, :3], [[0, 0, 1], [1, 0, 0]])

    def test_ordinal_above_cap(self):
        enc = FeatureEncoder((Column("z_0", "categorical", 64),))
        out = enc.transform(np.array([[63.0], [5.0]]))
        assert out.shape == (2, 1)
        assert out[0, 0] == 63.0


# ---------------------------------------------------------------------------
# Reference split search: the per-feature mask scan the builder must match
# ---------------------------------------------------------------------------


def reference_build(f, g, h, cfg):
    """One tree by rescanning every feature's presorted order at each node."""
    order = [np.argsort(f[:, j], kind="stable") for j in range(f.shape[1])]
    feature, threshold, left, right, value = [], [], [], [], []

    def best_split(mask, g_sum, h_sum):
        parent = g_sum * g_sum / (h_sum + cfg.l2)
        best_gain, best = 1e-12, None
        for j in range(f.shape[1]):
            idx = order[j][mask[order[j]]]
            if idx.size < 2:
                continue
            v = f[idx, j]
            cg, ch = np.cumsum(g[idx]), np.cumsum(h[idx])
            cut = np.nonzero(v[:-1] != v[1:])[0]
            if cut.size == 0:
                continue
            gl, hl = cg[cut], ch[cut]
            gr, hr = g_sum - gl, h_sum - hl
            ok = (hl >= cfg.min_child_weight) & (hr >= cfg.min_child_weight)
            if not ok.any():
                continue
            gain = np.where(ok, gl * gl / (hl + cfg.l2) + gr * gr / (hr + cfg.l2) - parent, -np.inf)
            k = int(np.argmax(gain))
            if gain[k] > best_gain:
                lo, hi = v[cut[k]], v[cut[k] + 1]
                thr = 0.5 * (lo + hi)
                if thr >= hi:
                    thr = lo
                best_gain, best = float(gain[k]), (j, float(thr))
        return best

    def grow(mask, depth):
        g_sum, h_sum = float(g[mask].sum()), float(h[mask].sum())
        split = None if depth >= cfg.max_depth else best_split(mask, g_sum, h_sum)
        node = len(feature)
        left.append(-1)
        right.append(-1)
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            value.append(-g_sum / (h_sum + cfg.l2) * cfg.learning_rate)
            return node
        j, thr = split
        feature.append(j)
        threshold.append(thr)
        value.append(0.0)
        go_left = mask & (f[:, j] <= thr)
        left[node] = grow(go_left, depth + 1)
        right[node] = grow(mask & ~go_left, depth + 1)
        return node

    grow(np.ones(f.shape[0], dtype=bool), 0)
    return Tree(
        np.asarray(feature, dtype=np.int32),
        np.asarray(threshold),
        np.asarray(left, dtype=np.int32),
        np.asarray(right, dtype=np.int32),
        np.asarray(value),
    )


def reference_predict(tree, f):
    out = np.empty(f.shape[0])
    stack = [(0, np.arange(f.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if tree.feature[node] < 0:
            out[idx] = tree.value[node]
            continue
        go_left = f[idx, tree.feature[node]] <= tree.threshold[node]
        stack.append((tree.left[node], idx[go_left]))
        stack.append((tree.right[node], idx[~go_left]))
    return out


_COLUMN_KINDS = ("continuous", "ties", "constant", "one_hot", "adjacent")


def make_column(kind, n, rng):
    if kind == "continuous":
        return rng.standard_normal(n)
    if kind == "ties":
        return rng.integers(0, 4, n).astype(np.float64)
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "one_hot":
        return (rng.random(n) < 0.3).astype(np.float64)
    # neighbouring floats whose midpoint rounds up to the larger one
    lo = np.nextafter(1.0, 2.0)
    return np.where(rng.random(n) < 0.5, lo, np.nextafter(lo, 2.0))


@st.composite
def split_problems(draw):
    n = draw(st.integers(2, 80))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = np.column_stack([make_column(k, n, rng) for k in kinds])
    if draw(st.booleans()):  # duplicated rows tie on every feature at once
        f = f[rng.integers(0, n, n)]
    y = (rng.random(n) < 0.5).astype(np.float64)
    gradient = draw(st.sampled_from(("logistic", "logistic_dyadic", "unit", "unit_integer")))
    if gradient == "logistic":
        p = 1.0 / (1.0 + np.exp(-rng.standard_normal(n)))
    elif gradient == "logistic_dyadic":  # exact sums: gains tie across cuts
        p = rng.choice([0.25, 0.5, 0.75], n)
    if gradient.startswith("logistic"):
        g, h = p - y, p * (1.0 - p)
    elif gradient == "unit":  # the regressor's unit hessian
        g, h = rng.standard_normal(n), np.ones(n)
    else:
        g, h = rng.integers(-2, 3, n).astype(np.float64), np.ones(n)
    cfg = GbtConfig(
        max_depth=draw(st.sampled_from((1, 3, 4))),
        learning_rate=draw(st.sampled_from((0.1, 0.3, 1.0))),
        l2=draw(st.sampled_from((0.0, 1.0))),
        min_child_weight=draw(st.sampled_from((0.0, 1.0, 3.0, 10.0))),
    )
    return f, g, h, cfg


def assert_same_tree(a, b):
    for name in ("feature", "threshold", "left", "right", "value"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestTreeBuilder:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_matches_per_feature_scan(self, problem):
        f, g, h, cfg = problem
        tree, row_values = _TreeBuilder(f, cfg).build(g, h)
        assert_same_tree(tree, reference_build(f, g, h, cfg))
        assert np.array_equal(row_values, reference_predict(tree, f))

    @settings(max_examples=200, deadline=None)
    @given(split_problems(), st.integers(0, 2**32 - 1))
    def test_predict_matches_stack_walk(self, problem, seed):
        f, g, h, cfg = problem
        tree, _ = _TreeBuilder(f, cfg).build(g, h)
        rng = np.random.default_rng(seed)
        unseen = rng.standard_normal((50, f.shape[1]))
        unseen[rng.random(unseen.shape) < 0.1] = np.nan
        for rows in (f, unseen, f[:0]):
            assert np.array_equal(tree.predict(rows), reference_predict(tree, rows))

    def test_builder_is_reused_across_rounds(self):
        """The presorted order is shared state: later builds must not see
        anything an earlier build left behind."""
        f, y = blob_problem(n=300, seed=23, d=4)
        cfg = GbtConfig(max_depth=4)
        builder = _TreeBuilder(f, cfg)
        rng = derive_rng(24, "rounds")
        for _ in range(5):
            g, h = rng.standard_normal(300), rng.random(300)
            tree, _ = builder.build(g, h)
            assert_same_tree(tree, reference_build(f, g, h, cfg))


class TestGoldenReports:
    """Report digests recorded before the split search was rewritten
    (numpy 2.4): a faster booster must not move a single byte.

    Re-pinned when seven unused config fields were removed: each digest is
    the sha256 of the earlier report with ``uniform_padding``, ``erm_delta``,
    ``erm_c``, ``gbt.seed``, ``logreg.seed``,
    ``mimic_config.crossfit_residuals`` and ``mimic_config.gaussian_prob``
    deleted from its ``config`` echo and re-dumped with ``sort_keys=True``.
    No other byte of either report moved.

    Re-pinned again when the second and third classifier, the pipeline's
    uniform mimic and the ERM bound were removed: each digest is the sha256
    of the previous report with ``erm_bound``, ``config.mimic``,
    ``config.classifier``, ``config.mlp``, ``config.logreg``,
    ``config.vc_dim`` and ``config.mimic_config.seed`` deleted and
    re-dumped with ``sort_keys=True``.  No other byte of either report moved.
    """

    def test_pnl_report_digest(self):
        ds = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=600, ci=False, a_xy=2.0, seed=11))
        text = ci_test(ds, TestConfig(seed=5)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "141f3a2fdb4961f797c87e6672555272ebe925bba603f5726c54245f0ba8519b"
        )

    def test_discrete_report_digest(self):
        ds = sample_discrete(gen_discrete_joint((3, 3, 3), ci=True, seed=12), 600, seed=13)
        text = ci_test(ds, TestConfig(seed=5)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6a9bdb73d5d40604cb285078f85c0f9217e00771bd0a356e7e9ae740c5ddc90c"
        )
