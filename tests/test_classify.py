"""Boosted trees and error measurement."""

import gc
import hashlib
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ciforge import classify
from ciforge.classify import (
    FeatureEncoder,
    GbtConfig,
    Tree,
    _TreeBuilder,
    classifier_error,
    fit_boosted_trees,
)
from ciforge.core import Column, Dataset, derive_rng
from ciforge.datagen import PostNonlinearConfig, gen_discrete_joint, gen_postnonlinear, sample_discrete
from ciforge.errors import EmptyTest, SchemaMismatch, SingleClass
from ciforge.testkit import TestConfig, ci_test


def blob_problem(n=2000, seed=0, d=2, separation=1.5):
    rng = derive_rng(seed, "blobs")
    f = rng.standard_normal((n, d))
    y = (f[:, 0] + 0.5 * f[:, 1] > 0).astype(np.float64)
    f[y == 1, :2] += separation
    return f, y


def weak_signal_problem(seed=0, n=800):
    """(f_train, y_train, f_val, y_val) whose validation loss bottoms out early."""
    rng = derive_rng(seed, "weak")
    f = rng.standard_normal((n, 3))
    y = (f[:, 0] + 1.5 * rng.standard_normal(n) > 0).astype(np.float64)
    return f[: n // 2], y[: n // 2], f[n // 2 :], y[n // 2 :]


def encoded_blocks(ds):
    """(features of every column, features of the (y, z) block), as ``ci_test`` encodes them."""
    x_free = FeatureEncoder(ds.y_cols + ds.z_cols).transform(ds.data[:, ds.n_x :])
    return np.hstack([FeatureEncoder(ds.x_cols).transform(ds.x_block()), x_free]), x_free


def blob_dataset(f):
    """``f``'s last column as y and the others as x."""
    return Dataset(tuple(Column(f"x_{j}") for j in range(f.shape[1] - 1)), (Column("y_0"),), (), f)


def one_hot_problem(seed=42, n=900):
    """Three one-hot 3-level columns, at most 27 distinct rows, and labels
    drawn from a logistic of each cell's score: (f, y)."""
    rng = derive_rng(seed, "distinct-rows")
    codes = rng.integers(0, 3, (n, 3))
    f = FeatureEncoder((Column("a", "categorical", 3),) * 3).transform(codes)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-rng.standard_normal(27)[codes @ [9, 3, 1]]))).astype(np.float64)
    return f, y


def reference_boost(f_train, y_train, f_val, y_val, rounds, grouped=False):
    """The boosting loop with one margin per row, training and validation
    alike: (trees, best_round, train_loss, val_loss).

    With ``grouped``, each tree is grown on the first row of each run of
    equal rows in canonical order, with the run's count times p less its
    label sum as the gradient and count times p(1 - p) as the hessian, the
    sums taken one row at a time; every row takes its run's leaf value.
    """
    y, yv = np.asarray(y_train, dtype=np.float64), np.asarray(y_val, dtype=np.float64)
    canon = np.lexsort((y,) + tuple(f_train[:, j] for j in range(f_train.shape[1] - 1, -1, -1)))
    f_train, y = f_train[canon], y[canon]
    n = f_train.shape[0]
    if grouped:
        starts = [i for i in range(n) if i == 0 or not np.array_equal(f_train[i], f_train[i - 1])]
        group = np.cumsum(np.isin(np.arange(n), starts)) - 1
        counts, y_sum = np.zeros(len(starts)), np.zeros(len(starts))
        for i in range(n):
            counts[group[i]] += 1.0
            y_sum[group[i]] += y[i]
        builder = _TreeBuilder(f_train[starts])
    else:
        builder = _TreeBuilder(f_train)
    margin, margin_val = np.zeros(n), np.zeros(f_val.shape[0])
    train_loss, val_loss = [classify._logloss(margin, y)], [classify._logloss(margin_val, yv)]
    trees, best_round = [], 0
    for _ in range(rounds):
        p = classify._sigmoid(margin)
        if grouped:
            p_run = p[starts]
            tree, delta = builder.build(counts * p_run - y_sum, counts * p_run * (1.0 - p_run))
            delta = delta[group]
        else:
            tree, delta = builder.build(p - y, p * (1.0 - p))
        for _ in range(40):
            stepped = margin + delta
            loss = classify._logloss(stepped, y)
            if loss <= train_loss[-1]:
                break
            delta *= 0.5
            tree.scale_values(0.5)
        else:
            stepped = margin + delta
            loss = classify._logloss(stepped, y)
        margin = stepped
        margin_val = margin_val + tree.predict(f_val)
        trees.append(tree)
        train_loss.append(loss)
        val_loss.append(classify._logloss(margin_val, yv))
        if val_loss[-1] < val_loss[best_round]:
            best_round = len(val_loss) - 1
        elif len(val_loss) - 1 - best_round >= classify.PATIENCE:
            break
    return trees, best_round, train_loss, val_loss


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

    @pytest.mark.parametrize("uphill", [False, True], ids=["newton_steps", "every_step_uphill"])
    def test_train_loss_is_the_loss_of_the_kept_trees(self, uphill, monkeypatch):
        """train_loss[r] is the loss of the first r trees' margin, also when
        40 halvings leave a step uphill and the smallest one is kept."""
        f, y = blob_problem(n=400, seed=13)
        canon = np.lexsort((y[:300], f[:300, 1], f[:300, 0]))  # the fit's own row order
        f_tr, y_tr = f[:300][canon], y[:300][canon]
        if uphill:
            build = _TreeBuilder.build

            def reversed_build(self, g, h):
                tree, row_values = build(self, g, h)
                tree.scale_values(-1.0)
                return tree, -row_values

            monkeypatch.setattr(_TreeBuilder, "build", reversed_build)
        b = fit_boosted_trees(f_tr, y_tr, f[300:], y[300:], GbtConfig(rounds=5))
        margin = np.zeros(300)
        for r, tree in enumerate(b.trees, start=1):
            margin = margin + tree.predict(f_tr)
            assert b.train_loss[r] == classify._logloss(margin, y_tr)
        assert (b.train_loss[-1] > b.train_loss[0]) == uphill

    @pytest.mark.parametrize("case", ["one_hot", "continuous", "signed_zeros", "every_step_uphill"])
    def test_distinct_rows_match_the_per_row_loop(self, case, monkeypatch):
        """One margin per distinct row gives the trees, best_round and
        losses of one margin per row, bit for bit where no row repeats.
        Where rows repeat, the trees are grown on count-weighted sums, which
        add in another order: the fit is then bit for bit the count-weighted
        loop, and within rounding of the per-row one."""
        if case == "continuous":  # no repeated row: every group is one row
            f, y = blob_problem(n=900, seed=41, d=3)
        else:  # three one-hot 3-level columns: at most 27 distinct rows
            f, y = one_hot_problem()
        if case == "signed_zeros":  # -0.0 == 0.0: the rows group, and share every leaf
            rng = derive_rng(43, "signed-zeros")
            f[(f == 0.0) & (rng.random(f.shape) < 0.5)] = -0.0
            assert np.signbit(f[:600]).any() and np.signbit(f[600:]).any()
        if case == "every_step_uphill":
            build = _TreeBuilder.build

            def reversed_build(self, g, h):
                tree, row_values = build(self, g, h)
                tree.scale_values(-1.0)
                return tree, -row_values

            monkeypatch.setattr(_TreeBuilder, "build", reversed_build)
        assert (np.unique(f, axis=0).shape[0] == f.shape[0]) == (case == "continuous")
        rounds = 8 if case == "every_step_uphill" else 60
        fit = fit_boosted_trees(f[:600], y[:600], f[600:], y[600:], GbtConfig(rounds=rounds))
        grouped = case != "continuous"
        trees, best_round, train_loss, val_loss = reference_boost(f[:600], y[:600], f[600:], y[600:], rounds, grouped)
        assert fit.best_round == best_round
        assert fit.train_loss == train_loss and fit.val_loss == val_loss
        assert len(fit.trees) == len(trees)
        for a, b in zip(fit.trees, trees):
            assert_same_tree(a, b)
        if case == "every_step_uphill":
            assert train_loss[-1] > train_loss[0]
        if grouped:
            # Two one-hot columns can cut a node into the same two row sets,
            # and rounding picks between them, so trees are compared by their
            # losses and margins, not node by node.
            trees, best_round, train_loss, val_loss = reference_boost(f[:600], y[:600], f[600:], y[600:], rounds)
            assert fit.best_round == best_round and len(fit.trees) == len(trees)
            np.testing.assert_allclose(fit.train_loss, train_loss, rtol=1e-12, atol=0)
            np.testing.assert_allclose(fit.val_loss, val_loss, rtol=1e-12, atol=0)
            for rows in (f[:600], f[600:]):
                margin = sum(t.predict(rows) for t in fit.trees)
                per_row = sum(t.predict(rows) for t in trees)
                np.testing.assert_allclose(margin, per_row, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["one_hot", "continuous"])
    def test_trees_are_grown_on_one_row_per_distinct_training_row(self, kind, monkeypatch):
        shapes = []
        init = _TreeBuilder.__init__

        def recording_init(self, f):
            shapes.append(f.shape)
            init(self, f)

        monkeypatch.setattr(_TreeBuilder, "__init__", recording_init)
        f, y = one_hot_problem() if kind == "one_hot" else blob_problem(n=900, seed=41, d=3)
        fit_boosted_trees(f[:600], y[:600], f[600:], y[600:], GbtConfig(rounds=3))
        distinct = np.unique(f[:600], axis=0).shape[0]
        assert shapes == [(distinct, f.shape[1])]
        assert (distinct < 600) == (kind == "one_hot")

    @pytest.mark.parametrize("kind", ["one_hot", "mixed"])
    def test_margin_of_repeated_rows_is_the_sum_over_the_kept_trees(self, kind):
        """predict_margin scores one row per group of equal rows; each margin
        is still the sum of the kept trees' predictions, in tree order.  The
        mixed matrix adds a coarse continuous column, some NaN cells, which
        never equal another row, and a -0.0 beside 0.0, which do."""
        f, y = one_hot_problem(seed=43, n=1200)
        if kind == "mixed":
            rng = derive_rng(44, "repeated-rows")
            f = np.column_stack([f, np.round(rng.standard_normal(f.shape[0]), 0)])
        model = fit_boosted_trees(f[:800], y[:800], f[800:1000], y[800:1000], GbtConfig(rounds=60))
        assert model.best_round > 0
        test = f[1000:]
        if kind == "mixed":
            test[rng.random(test.shape) < 0.02] = np.nan
            test[test == 0.0] *= np.where(rng.random(np.count_nonzero(test == 0.0)) < 0.5, -1.0, 1.0)
        expected = np.zeros(test.shape[0])
        for tree in model.trees[: model.best_round]:
            expected += tree.predict(test)
        assert np.array_equal(model.predict_margin(test), expected)

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

    def test_max_depth_respected(self, monkeypatch):
        f, y = blob_problem(n=500, seed=9)
        monkeypatch.setattr(classify, "MAX_DEPTH", 2)
        b = fit_boosted_trees(f[:400], y[:400], f[400:], y[400:], GbtConfig(rounds=10))
        assert all(t.depth <= 2 for t in b.trees)

    def test_early_stop_is_a_prefix_of_the_full_fit(self, monkeypatch):
        problem = weak_signal_problem()
        early = fit_boosted_trees(*problem, GbtConfig(rounds=200))
        monkeypatch.setattr(classify, "PATIENCE", 201)
        full = fit_boosted_trees(*problem, GbtConfig(rounds=200))
        assert len(full.trees) == 200
        assert len(early.trees) < 200
        assert early.best_round == full.best_round == int(np.argmin(full.val_loss))
        k = len(early.trees)
        assert early.train_loss == full.train_loss[: k + 1]
        assert early.val_loss == full.val_loss[: k + 1]
        for ta, tb in zip(early.trees, full.trees):
            assert_same_tree(ta, tb)
        f_val = problem[2]
        assert np.array_equal(early.predict_score(f_val), full.predict_score(f_val))

    def test_random_labels_stop_patience_rounds_after_best(self):
        rng = derive_rng(1, "noise")
        f = rng.standard_normal((1400, 3))
        y = rng.integers(0, 2, size=1400).astype(np.float64)
        b = fit_boosted_trees(f[:700], y[:700], f[700:], y[700:], GbtConfig(rounds=200))
        assert len(b.trees) == b.best_round + classify.PATIENCE < 200
        assert len(b.val_loss) == len(b.train_loss) == len(b.trees) + 1
        assert min(b.val_loss[b.best_round + 1 :]) >= b.val_loss[b.best_round]

    def test_rounds_caps_the_loop(self):
        problem = weak_signal_problem()
        b = fit_boosted_trees(*problem, GbtConfig(rounds=5))
        assert len(b.trees) == 5
        assert len(b.val_loss) == 6
        assert b.best_round == int(np.argmin(b.val_loss))

    def test_single_class_rejected(self):
        f, _ = blob_problem(n=100)
        with pytest.raises(SingleClass):
            fit_boosted_trees(f[:80], np.ones(80), f[80:], np.ones(20), GbtConfig())


class TestDatasetClassifiers:
    """A fitted ensemble scores only matrices of its training width, so the
    encoded blocks of a dataset cannot reach a model fit on other columns."""

    def test_fit_and_error(self):
        f, y = blob_problem(n=900, seed=11, d=3)
        model = fit_boosted_trees(f[:500], y[:500], f[500:700], y[500:700], GbtConfig(rounds=40))
        err = classifier_error(model, f[700:], y[700:].astype(np.int8))
        assert err.error_rate < 0.1
        assert err.n_test == 200
        assert err.error_rate == err.losses.mean()

    def test_x_free_model_rejects_rows_with_x(self):
        """A model trained without x scores only rows without x, so x can
        never reach its predictions."""
        f, y = blob_problem(n=300, seed=12, d=4)
        full, x_free = encoded_blocks(blob_dataset(f))
        model = fit_boosted_trees(x_free[:200], y[:200], x_free[200:], y[200:], GbtConfig(rounds=5))
        with pytest.raises(SchemaMismatch):
            model.predict_score(full)
        assert model.predict_score(x_free).shape == (300,)

    def test_changed_cardinality_raises(self):
        rng = derive_rng(12, "cardinality")
        data = np.column_stack([rng.standard_normal(300), rng.integers(0, 3, 300), rng.integers(0, 3, 300)])
        y = (data[:, 1] + data[:, 0] > 1).astype(np.float64)
        x, y3 = (Column("x_0"),), (Column("y_0", "categorical", 3),)
        full, _ = encoded_blocks(Dataset(x, y3, (Column("z_0", "categorical", 3),), data))
        model = fit_boosted_trees(full[:200], y[:200], full[200:], y[200:], GbtConfig(rounds=5))
        wider, _ = encoded_blocks(Dataset(x, y3, (Column("z_0", "categorical", 4),), data))
        with pytest.raises(SchemaMismatch):
            model.predict_score(wider)

    def test_gbt_rejects_validation_set_with_other_columns(self):
        f, y = blob_problem(n=300, seed=12, d=3)
        full, x_free = encoded_blocks(blob_dataset(f))
        with pytest.raises(SchemaMismatch):
            fit_boosted_trees(full[:200], y[:200], x_free[200:], y[200:], GbtConfig(rounds=5))

    def test_missing_column_raises(self):
        f, y = blob_problem(n=300, seed=13, d=3)
        full, x_free = encoded_blocks(blob_dataset(f))
        model = fit_boosted_trees(full[:200], y[:200], full[200:], y[200:], GbtConfig(rounds=5))
        with pytest.raises(SchemaMismatch):
            model.predict_score(x_free)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["narrower", "wider"])
    def test_other_widths_refused(self, extra):
        """The width checks themselves, on raw matrices one column short or over."""
        f, y = blob_problem(n=300, seed=14, d=3)
        other = f[:, :extra] if extra < 0 else np.hstack([f, f[:, :extra]])
        model = fit_boosted_trees(f[:200], y[:200], f[200:], y[200:], GbtConfig(rounds=3))
        assert model.width == 3
        with pytest.raises(SchemaMismatch, match="model was fit on 3 feature columns"):
            model.predict_margin(other)
        with pytest.raises(SchemaMismatch, match="validation matrix has"):
            fit_boosted_trees(f[:200], y[:200], other[200:], y[200:], GbtConfig(rounds=3))


class TestClassifierError:
    def test_constant_classifier_on_balanced_test(self):
        class Constant:
            def predict_score(self, f):
                return np.zeros(f.shape[0])

        f, _ = blob_problem(n=100, seed=18)
        err = classifier_error(Constant(), f, np.arange(100) % 2)
        assert err.error_rate == 0.5

    def test_perfect_classifier(self):
        class Oracle:
            def predict_score(self, f):
                return (f[:, 1] > 0).astype(np.float64)

        rng = derive_rng(19, "perfect")
        f = rng.standard_normal((50, 2))
        y = (f[:, 1] > 0).astype(np.int8)
        err = classifier_error(Oracle(), f, y)
        assert err.error_rate == 0.0

    def test_error_equals_mean_of_losses(self):
        class Half:
            def predict_score(self, f):
                return (np.arange(f.shape[0]) % 3 == 0).astype(np.float64)

        f, y = blob_problem(n=90, seed=20)
        err = classifier_error(Half(), f, y.astype(np.int8))
        assert err.error_rate == err.losses.astype(np.float64).mean()

    def test_empty_test_rejected(self):
        f, y = blob_problem(n=30, seed=21)
        with pytest.raises(EmptyTest):
            classifier_error(object(), f[:0], y[:0])


class TestLogisticPrimitives:
    """The booster's sigmoid and loss, which must stay exact at any margin."""

    def test_sigmoid_is_bounded_and_silent_at_huge_margins(self):
        m = np.array([-1000.0, -745.0, -50.0, 0.0, 50.0, 745.0, 1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the naive 1/(1+exp(-m)) overflows at -1000
            p = classify._sigmoid(m)
        assert np.all(np.isfinite(p)) and np.all((0.0 <= p) & (p <= 1.0))
        assert p[0] == 0.0 and p[3] == 0.5 and p[-1] == 1.0

    def test_sigmoid_is_symmetric(self):
        m = np.concatenate([derive_rng(0, "sigmoid-sym").normal(0.0, 10.0, 500), [0.0, 1e-300, 40.0, 1000.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total = classify._sigmoid(m) + classify._sigmoid(-m)
        assert np.max(np.abs(total - 1.0)) <= 1e-15

    def test_logloss_matches_naive_cross_entropy(self):
        rng = derive_rng(0, "logloss-naive")
        for _ in range(20):
            m = rng.uniform(-5.0, 5.0, 50)
            y = rng.integers(0, 2, 50).astype(np.float64)
            p = 1.0 / (1.0 + np.exp(-m))
            naive = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
            assert classify._logloss(m, y) == pytest.approx(naive, rel=1e-12)

    def test_logloss_is_finite_at_huge_margins(self):
        m = np.array([1000.0, -1000.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert classify._logloss(m, np.array([0.0, 1.0])) == 1000.0
            assert classify._logloss(m, np.array([1.0, 0.0])) == 0.0


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
# Reference split search: the per-feature binned scan the builder must match
# ---------------------------------------------------------------------------


def reference_cuts(f):
    """Each feature's thresholds, from the whole matrix's U distinct values
    of it: every boundary between them when U <= BINS, else BINS - 1 cuts
    whose upper sides are distinct values k*U // BINS, k = 1 .. BINS - 1."""
    bins = classify.BINS
    cuts = []
    for v in f.T:
        u = np.unique(v)
        upper = range(1, u.size) if u.size <= bins else [k * u.size // bins for k in range(1, bins)]
        thr = []
        for i in upper:
            lo, hi = float(u[i - 1]), float(u[i])
            mid = 0.5 * (lo + hi)
            thr.append(mid if lo <= mid < hi else lo)  # else rounded up to hi, or lo + hi overflowed
        cuts.append(np.array(thr))
    return cuts


def cut_gains(f, cuts, g, h, mask, consts):
    """(g_sum, h_sum, gains): the node sums of ``mask``'s rows and, feature
    by feature, every cut's gain, -inf where a side holds no row or is
    lighter than MIN_CHILD_WEIGHT.  A cut's left sums are the node's per-bin
    sums, each over its rows in ascending order, added up the bins."""
    l2, min_child_weight = consts["L2"], consts["MIN_CHILD_WEIGHT"]
    idx = np.flatnonzero(mask)
    g_sum, h_sum = float(g[idx].sum()), float(h[idx].sum())
    parent = g_sum * g_sum / (h_sum + l2)
    gains = []
    for j, thr in enumerate(cuts):
        code = (f[idx, j][:, None] > thr).sum(axis=1)  # the cuts below each row's value
        bins = thr.size + 1
        gl = np.cumsum(np.bincount(code, g[idx], bins))[:-1]
        hl = np.cumsum(np.bincount(code, h[idx], bins))[:-1]
        count = np.cumsum(np.bincount(code, None, bins))[:-1]
        gr, hr = g_sum - gl, h_sum - hl
        ok = (count > 0) & (count < idx.size) & (hl >= min_child_weight) & (hr >= min_child_weight)
        with np.errstate(divide="ignore", invalid="ignore"):
            gains.append(np.where(ok, gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent, -np.inf))
    return g_sum, h_sum, gains


def reference_build(f, g, h, consts):
    """One tree by a per-feature binned scan at each node.

    ``consts`` maps each booster constant's name in ``classify`` to the value
    the tree is grown with.  Each feature's best cut is its first largest
    gain, and the best feature the first whose gain beats every earlier
    one's; a NaN gain rules out its feature.
    """
    max_depth, learning_rate, l2 = consts["MAX_DEPTH"], consts["LEARNING_RATE"], consts["L2"]
    cuts = reference_cuts(f)
    feature, threshold, left, right, value = [], [], [], [], []
    deepest = 0

    def best_split(gains):
        best_gain, best = 1e-12, None
        for j, gain in enumerate(gains):
            if gain.size == 0:
                continue
            k = int(np.argmax(gain))
            if gain[k] > best_gain:
                best_gain, best = float(gain[k]), (j, float(cuts[j][k]))
        return best

    def grow(mask, depth):
        nonlocal deepest
        deepest = max(deepest, depth)
        g_sum, h_sum, gains = cut_gains(f, cuts, g, h, mask, consts)
        split = None if depth >= max_depth else best_split(gains)
        node = len(feature)
        left.append(-1)
        right.append(-1)
        if split is None:
            feature.append(-1)
            threshold.append(0.0)
            value.append(-g_sum / (h_sum + l2) * learning_rate)
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
        deepest,
    )


def exact_sums(g, h):
    """True when every g and h is a small multiple of 1/64, so that every
    sum of them, in any order, and every difference of such sums is exact."""
    return all(np.array_equal(v * 64, np.round(v * 64)) and np.abs(v).max() < 2**20 for v in (g, h))


def assert_near_scan(tree, f, g, h, consts):
    """``tree`` is the reference's greedy tree up to rounding in its sums.

    The builder takes the larger child's bins as its parent's less the
    smaller child's, which moves sums in their last bits, so where two cuts'
    gains tie up to rounding it may take the other one.  Walking ``tree``:
    every split is one of the reference's cuts with rows on both sides and
    a gain within rounding of the node's best and above the split floor;
    every leaf above MAX_DEPTH has no gain above the floor by more than
    rounding; every leaf value is the reference's, bit for bit.
    """
    cuts = reference_cuts(f)
    stack = [(0, np.ones(f.shape[0], dtype=bool), 0)]
    while stack:
        node, mask, depth = stack.pop()
        g_sum, h_sum, gains = cut_gains(f, cuts, g, h, mask, consts)
        eligible = [gain for gain in gains if gain.size and not np.isnan(gain).any()]
        best = max((float(gain.max()) for gain in eligible), default=-np.inf)
        tol = 1e-9 * (1.0 + abs(g_sum * g_sum / (h_sum + consts["L2"])) + abs(best))
        j = int(tree.feature[node])
        if j < 0:
            assert tree.value[node] == -g_sum / (h_sum + consts["L2"]) * consts["LEARNING_RATE"]
            if depth < consts["MAX_DEPTH"]:
                assert best <= 1e-12 + tol
            continue
        assert depth < consts["MAX_DEPTH"]
        (k,) = np.flatnonzero(cuts[j] == tree.threshold[node])
        assert not np.isnan(gains[j]).any() and gains[j][k] >= max(best - tol, 1e-12 - tol)
        go_left = mask & (f[:, j] <= tree.threshold[node])
        assert go_left.any() and (mask & ~go_left).any()
        stack += [(int(tree.left[node]), go_left, depth + 1), (int(tree.right[node]), mask & ~go_left, depth + 1)]


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


_COLUMN_KINDS = ("continuous", "ties", "constant", "one_hot", "adjacent", "huge_negative")


def make_column(kind, n, rng):
    if kind == "continuous":
        return rng.standard_normal(n)
    if kind == "ties":
        return rng.integers(0, 4, n).astype(np.float64)
    if kind == "constant":
        return np.full(n, 2.5)
    if kind == "one_hot":
        return (rng.random(n) < 0.3).astype(np.float64)
    if kind == "three_level":
        return rng.integers(0, 3, n).astype(np.float64)
    if kind == "rounded":
        return np.round(rng.standard_normal(n), 1)
    if kind == "ordinal":  # codes of a categorical column above ONE_HOT_CAP
        return rng.integers(0, 40, n).astype(np.float64)
    if kind == "mixture":  # zero-inflated normal: an atom at 0 of mass 0.4
        return np.where(rng.random(n) < 0.4, 0.0, rng.standard_normal(n))
    if kind == "huge_negative":  # two values whose sum overflows to -inf
        return np.where(rng.random(n) < 0.5, -1.7e308, -1e308)
    # neighbouring floats whose midpoint rounds up to the larger one
    lo = np.nextafter(1.0, 2.0)
    return np.where(rng.random(n) < 0.5, lo, np.nextafter(lo, 2.0))


_GRADIENTS = ("logistic", "logistic_dyadic", "unit", "unit_integer")


@st.composite
def split_problems(draw, gradients=_GRADIENTS):
    n = draw(st.integers(2, 80))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = np.column_stack([make_column(k, n, rng) for k in kinds])
    if draw(st.booleans()):  # duplicated rows tie on every feature at once
        f = f[rng.integers(0, n, n)]
    y = (rng.random(n) < 0.5).astype(np.float64)
    gradient = draw(st.sampled_from(gradients))
    if gradient == "logistic":
        p = 1.0 / (1.0 + np.exp(-rng.standard_normal(n)))
    elif gradient == "logistic_dyadic":  # exact sums: gains tie across cuts
        p = rng.choice([0.25, 0.5, 0.75], n)
    elif gradient == "saturated":  # g = h = 0 where p == y: with L2 = 0 a gain can be 0/0
        p = np.where(rng.random(n) < 0.5, y, rng.choice([0.25, 0.5], n))
    if gradient in ("logistic", "logistic_dyadic", "saturated"):
        g, h = p - y, p * (1.0 - p)
    elif gradient == "unit":  # squared-loss gradients: a unit hessian
        g, h = rng.standard_normal(n), np.ones(n)
    else:
        g, h = rng.integers(-2, 3, n).astype(np.float64), np.ones(n)
    consts = {
        "MAX_DEPTH": draw(st.sampled_from((1, 3, 4))),
        "LEARNING_RATE": draw(st.sampled_from((0.1, 0.3, 1.0))),
        "L2": draw(st.sampled_from((0.0, 1.0))),
        "MIN_CHILD_WEIGHT": draw(st.sampled_from((0.0, 1.0, 3.0, 10.0))),
    }
    return f, g, h, consts


DEFAULT_CONSTS = {
    name: getattr(classify, name) for name in ("MAX_DEPTH", "LEARNING_RATE", "L2", "MIN_CHILD_WEIGHT")
}


def patch_consts(mp, consts):
    for name, value in consts.items():
        mp.setattr(classify, name, value)


def assert_same_tree(a, b):
    for name in ("feature", "threshold", "left", "right", "value"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name
    assert a.depth == b.depth, "depth"


class TestTreeBuilder:
    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_matches_per_feature_scan(self, problem):
        f, g, h, consts = problem
        with pytest.MonkeyPatch.context() as mp:
            patch_consts(mp, consts)
            tree, row_values = _TreeBuilder(f).build(g, h)
        if exact_sums(g, h):
            assert_same_tree(tree, reference_build(f, g, h, consts))
        else:  # sibling subtraction moves sums in their last bits
            assert_near_scan(tree, f, g, h, consts)
        assert np.array_equal(row_values, reference_predict(tree, f))

    @settings(max_examples=200, deadline=None)
    @given(split_problems(), st.integers(0, 2**32 - 1))
    def test_predict_matches_stack_walk(self, problem, seed):
        f, g, h, consts = problem
        with pytest.MonkeyPatch.context() as mp:
            patch_consts(mp, consts)
            tree, _ = _TreeBuilder(f).build(g, h)
        rng = np.random.default_rng(seed)
        unseen = rng.standard_normal((50, f.shape[1]))
        unseen[rng.random(unseen.shape) < 0.1] = np.nan
        for rows in (f, unseen, f[:0]):
            assert np.array_equal(tree.predict(rows), reference_predict(tree, rows))

    @settings(max_examples=300, deadline=None)
    @given(split_problems(gradients=("saturated",)))
    def test_saturated_rows_match_per_feature_scan(self, problem):
        """A NaN gain rules out its whole feature in both searches.  An
        all-saturated leaf with L2 = 0 is 0/0, which both raise."""
        f, g, h, consts = problem
        with pytest.MonkeyPatch.context() as mp:
            patch_consts(mp, consts)
            try:
                tree, row_values = _TreeBuilder(f).build(g, h)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    reference_build(f, g, h, consts)
                return
        with np.errstate(invalid="ignore"):  # the reference computes its NaN gains
            ref = reference_build(f, g, h, consts)
        assert_same_tree(tree, ref)
        assert np.array_equal(row_values, reference_predict(tree, f))

    @settings(max_examples=300, deadline=None)
    @given(split_problems(gradients=_GRADIENTS + ("saturated",)), st.booleans())
    def test_scalar_boundary_scoring_matches_per_feature_scan(self, problem, zero_penalties):
        """Boundary cells scored in Python floats give the reference's tree.
        With L2 = MIN_CHILD_WEIGHT = 0 a gain can be 0/0 or x/0, which must
        be NaN or inf, as in numpy, and a 0/0 leaf raises in both searches."""
        f, g, h, consts = problem
        if zero_penalties:
            consts = {**consts, "L2": 0, "MIN_CHILD_WEIGHT": 0}
        builder = _TreeBuilder(f)
        assume(builder.memo is not None)  # boundary scoring: every feature two-valued
        with pytest.MonkeyPatch.context() as mp:
            patch_consts(mp, consts)
            try:
                tree, row_values = builder.build(g, h)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    reference_build(f, g, h, consts)
                return
        with np.errstate(divide="ignore", invalid="ignore"):  # the reference computes its NaN and inf gains
            ref = reference_build(f, g, h, consts)
        assert_same_tree(tree, ref)
        assert np.array_equal(row_values, reference_predict(tree, f))

    def test_builder_is_reused_across_rounds(self):
        """The codes are shared state: later builds must not see anything an
        earlier build left behind."""
        f, y = blob_problem(n=300, seed=23, d=4)
        builder = _TreeBuilder(f)
        rng = derive_rng(24, "rounds")
        for _ in range(5):
            g, h = rng.standard_normal(300), rng.random(300)
            tree, _ = builder.build(g, h)
            assert_near_scan(tree, f, g, h, DEFAULT_CONSTS)
            assert_same_tree(tree, _TreeBuilder(f).build(g, h)[0])

    # Features with hundreds of distinct values get BINS - 1 cuts, and those
    # with a few keep every boundary between them.
    @pytest.mark.parametrize(
        "kinds, cuts",
        [
            (("continuous", "continuous", "continuous"), [63, 63, 63]),
            (("ties", "one_hot", "constant", "adjacent"), [3, 1, 0, 1]),
            (("continuous", "ties", "continuous", "one_hot"), [63, 3, 63, 1]),
        ],
        ids=["no_feature_tied", "every_feature_tied", "mixed"],
    )
    def test_boundary_mask_cases(self, kinds, cuts, monkeypatch):
        rng = derive_rng(31, "fast-paths")
        n = 240
        f = np.column_stack([make_column(k, n, rng) for k in kinds])
        y = (f[:, 0] + rng.standard_normal(n) > 0.5).astype(np.float64)
        consts = {**DEFAULT_CONSTS, "MIN_CHILD_WEIGHT": 3.0}
        patch_consts(monkeypatch, consts)
        builder = _TreeBuilder(f)
        assert [c.size for c in builder.cuts] == cuts
        for _ in range(3):  # a reused builder must not carry state between builds
            p = 1.0 / (1.0 + np.exp(-rng.standard_normal(n)))
            for g, h in ((p - y, p * (1.0 - p)), (rng.standard_normal(n), np.ones(n))):
                tree, row_values = builder.build(g, h)
                assert_near_scan(tree, f, g, h, consts)
                assert np.array_equal(row_values, reference_predict(tree, f))
                assert tree.depth > 1

    def test_one_hot_columns_match_per_feature_scan(self):
        """Encoder-shaped data, every feature tied: only the cuts between
        distinct values are scored, and deep nodes have every feature
        constant."""
        rng = derive_rng(32, "one-hot")
        n = 2000
        codes = rng.integers(0, 3, (n, 3))
        f = FeatureEncoder((Column("a", "categorical", 3),) * 3).transform(codes)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-rng.standard_normal(27)[codes @ [9, 3, 1]]))).astype(np.float64)
        builder = _TreeBuilder(f)
        assert f.shape[1] == 9 and builder.memo is not None and not hasattr(builder, "codes")
        margin = np.zeros(n)
        for _ in range(3):  # a reused builder must not carry state between builds
            p = 1.0 / (1.0 + np.exp(-margin))
            g, h = p - y, p * (1.0 - p)
            tree, row_values = builder.build(g, h)
            assert_same_tree(tree, reference_build(f, g, h, DEFAULT_CONSTS))
            assert np.array_equal(row_values, reference_predict(tree, f))
            margin += row_values


    @pytest.mark.parametrize("kind", ["continuous", "one_hot"])
    def test_build_leaves_no_reference_cycle(self, kind):
        """A used builder, and the g, h and memo it holds on to, is freed by
        reference counting alone, without waiting for the cyclic GC."""
        rng = derive_rng(34, "cycle")
        f = np.column_stack([make_column(kind, 200, rng) for _ in range(3)])
        g, h = rng.standard_normal(200), np.ones(200)
        gc.disable()
        try:
            builder = _TreeBuilder(f)
            assert builder.build(g, h)[0].depth > 0
            alive = weakref.ref(builder)
            del builder
            assert alive() is None
        finally:
            gc.enable()

    # Each round: gradient kind, and L2, MIN_CHILD_WEIGHT and MAX_DEPTH.  The
    # logistic rounds boost, so their trees revisit earlier row sets.
    _ROUNDS = (
        ("logistic", 1.0, 1.0, 4),
        ("logistic", 1.0, 1.0, 4),
        ("unit", 0.0, 0.0, 4),
        ("logistic", 0.0, 3.0, 2),
        ("saturated", 1.0, 0.0, 4),
        ("unit_integer", 1.0, 1.0, 3),
        ("logistic", 1.0, 1.0, 4),
    )

    @pytest.mark.parametrize("kind", ["one_hot", "two_level"])
    def test_remembered_layouts_match_per_feature_scan(self, kind, monkeypatch):
        """One builder reused for many rounds on a two-valued matrix gives
        the trees of the reference and of a fresh builder, round after round.
        Two-level columns that are not one-hot each hold their own pair of
        values, one pair of neighbouring floats whose midpoint threshold
        falls back to the lower value."""
        rng = derive_rng(35, "memo-3" if kind == "one_hot" else "memo-two-level")
        n = 1200
        if kind == "one_hot":
            codes = rng.integers(0, 3, (n, 3))
            f = FeatureEncoder((Column("a", "categorical", 3),) * 3).transform(codes)
            effect = rng.standard_normal((3, 3))
            logit = effect[np.arange(3), codes].sum(axis=1)
        else:
            bits = rng.random((n, 6)) < rng.uniform(0.2, 0.8, 6)
            lo = rng.standard_normal(6)
            hi = lo + rng.uniform(0.5, 2.0, 6)
            lo[0] = np.nextafter(1.0, 2.0)
            hi[0] = np.nextafter(lo[0], 2.0)
            f = np.where(bits, hi, lo)
            logit = bits @ rng.standard_normal(6)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
        builder = _TreeBuilder(f)
        assert builder.memo is not None
        margin = np.zeros(n)
        splits = 0
        for kind, l2, min_child_weight, max_depth in self._ROUNDS * 2:
            consts = {**DEFAULT_CONSTS, "L2": l2, "MIN_CHILD_WEIGHT": min_child_weight, "MAX_DEPTH": max_depth}
            patch_consts(monkeypatch, consts)
            p = 1.0 / (1.0 + np.exp(-margin))
            if kind == "logistic":
                g, h = p - y, p * (1.0 - p)
            elif kind == "saturated":  # g = h = 0 on half the rows
                q = np.where(rng.random(n) < 0.5, y, rng.choice([0.25, 0.5], n))
                g, h = q - y, q * (1.0 - q)
            elif kind == "unit":
                g, h = rng.standard_normal(n), np.ones(n)
            else:
                g, h = rng.integers(-2, 3, n).astype(np.float64), np.ones(n)
            tree, row_values = builder.build(g, h)
            assert_same_tree(tree, reference_build(f, g, h, consts))
            fresh, fresh_values = _TreeBuilder(f).build(g, h)
            assert_same_tree(tree, fresh)
            assert np.array_equal(row_values, fresh_values)
            if kind == "logistic":
                margin += row_values
            splits += int((tree.feature >= 0).sum())
        assert len(builder.memo) < splits  # nodes were scored from remembered layouts

    def test_memo_stays_within_its_cap(self, monkeypatch):
        """Many binary columns with few repeated rows give new row sets every
        round: the memo stops at MEMO_CAP bytes per byte of the feature
        matrix, and the trees still match the reference and an uncapped
        memo's.  These rows fill about 35 bytes per byte of the matrix
        uncapped, so the cap is lowered to bind."""
        monkeypatch.setattr(classify, "MEMO_CAP", 16)
        rng = derive_rng(36, "memo-cap")
        n = 600
        f = (rng.random((n, 12)) < 0.5).astype(np.float64)
        capped, uncapped = _TreeBuilder(f), _TreeBuilder(f)
        assert capped.memo is not None
        cap = classify.MEMO_CAP * capped.f_t.nbytes
        for _ in range(60):
            g, h = rng.standard_normal(n), np.ones(n)
            tree, row_values = capped.build(g, h)
            assert capped.memo_bytes <= cap
            assert_same_tree(tree, reference_build(f, g, h, DEFAULT_CONSTS))
            with monkeypatch.context() as mp:
                mp.setattr(classify, "MEMO_CAP", 10**9)
                free, free_values = uncapped.build(g, h)
            assert_same_tree(tree, free)
            assert np.array_equal(row_values, free_values)
        assert uncapped.memo_bytes > cap >= capped.memo_bytes

    def test_remembered_children_match_the_layout_mask(self):
        """A two-valued builder keeps no codes, and each remembered
        split's children are its node's rows at and off the split feature's
        lower value: the layout's mask row and the threshold cut alike."""
        rng = derive_rng(39, "children")
        n = 600
        codes = rng.integers(0, 3, (n, 3))
        f = FeatureEncoder((Column("a", "categorical", 3),) * 3).transform(codes)
        builder = _TreeBuilder(f)
        assert not hasattr(builder, "codes")
        for _ in range(4):
            builder.build(rng.standard_normal(n), np.ones(n))
        pairs = 0
        for key, layout in builder.memo.items():
            rows = np.frombuffer(key, np.intp)
            for j, (left, right) in layout.children.items():
                (k,) = np.flatnonzero(layout.feature == j)
                assert np.array_equal(left, np.compress(layout.low[k], rows))
                assert np.array_equal(right, np.compress(~layout.low[k], rows))
                assert np.array_equal(left, rows[f[rows, j] <= builder.threshold[j]])
                pairs += 1
        assert pairs > 0

    @pytest.mark.parametrize(
        "levels",
        [(-1.7e308, -1e308), (-1.7e308, -1.5e308, -1e308)],
        ids=["two_valued", "three_valued"],
    )
    def test_overflowing_midpoint_splits_the_rows(self, levels):
        """Where lo + hi overflows to -inf, the threshold falls back to lo, so
        every split, remembered or dense, sends training rows both ways."""
        rng = derive_rng(38, "huge-negative")
        n = 40
        f = rng.choice(levels, (n, 1))
        g, h = np.where(f[:, 0] == levels[0], 1.0, -1.0) + rng.standard_normal(n), np.ones(n)
        builder = _TreeBuilder(f)
        assert (builder.memo is not None) == (len(levels) == 2)
        tree, _ = builder.build(g, h)
        assert tree.depth > 0
        stack = [(0, np.arange(n))]
        while stack:
            node, idx = stack.pop()
            if tree.feature[node] < 0:
                continue
            go_left = f[idx, tree.feature[node]] <= tree.threshold[node]
            assert 0 < np.count_nonzero(go_left) < idx.size
            stack += [(tree.left[node], idx[go_left]), (tree.right[node], idx[~go_left])]
        assert_same_tree(tree, reference_build(f, g, h, DEFAULT_CONSTS))

    # Columns with at most two values, against columns with more.
    @pytest.mark.parametrize(
        "kinds, remembered",
        [
            (("one_hot", "constant", "adjacent", "one_hot"), True),
            (("one_hot", "three_level", "adjacent"), False),
            (("one_hot", "ties", "adjacent"), False),
            (("one_hot", "rounded", "constant"), False),
            (("one_hot", "ordinal", "adjacent"), False),
            (("one_hot", "mixture", "constant"), False),
        ],
        ids=["two_valued", "three_valued", "ties", "rounded", "ordinal", "mixture"],
    )
    def test_memo_only_for_two_valued_features(self, kinds, remembered):
        """A builder remembers layouts exactly when every column holds at most
        two distinct values, and either way its trees are the reference's
        round after round: bit for bit on the memo, and up to rounding in the
        histogram search."""
        rng = derive_rng(37, "memo-gate")
        n = 300
        f = np.column_stack([make_column(k, n, rng) for k in kinds])
        assert (max(np.unique(col).size for col in f.T) <= 2) == remembered
        builder = _TreeBuilder(f)
        assert (builder.memo is not None) == remembered
        y = (f[:, 0] + f[:, 1] + rng.standard_normal(n) > 0.8).astype(np.float64)
        margin = np.zeros(n)
        for _ in range(4):
            p = 1.0 / (1.0 + np.exp(-margin))
            g, h = p - y, p * (1.0 - p)
            tree, row_values = builder.build(g, h)
            if remembered:
                assert_same_tree(tree, reference_build(f, g, h, DEFAULT_CONSTS))
            else:
                assert_near_scan(tree, f, g, h, DEFAULT_CONSTS)
            assert np.array_equal(row_values, reference_predict(tree, f))
            margin += row_values

    @pytest.mark.parametrize("distinct", [100, 1000])
    def test_value_rich_feature_gets_rank_spaced_cuts(self, distinct):
        """A feature with U > BINS distinct values gets exactly BINS - 1
        cuts; the upper side of cut k is distinct value k*U // BINS, and each
        row's code is the number of cuts below its value."""
        rng = derive_rng(40, "rank-cuts")
        u = np.sort(rng.standard_normal(distinct))
        f = np.column_stack([rng.choice(u, 3000), rng.integers(0, 5, 3000)])
        f[:distinct, 0] = u  # every value present, most of them repeated
        builder = _TreeBuilder(f)
        bins = classify.BINS
        (thr, _) = builder.cuts
        assert thr.size == bins - 1
        upper = np.arange(1, bins) * distinct // bins
        assert np.array_equal(thr, [classify._threshold(a, b) for a, b in zip(u[upper - 1], u[upper])])
        assert np.all((u[upper - 1] <= thr) & (thr < u[upper]))
        code = builder.codes[:, 0]
        assert np.array_equal(code, (f[:, :1] > thr).sum(axis=1))
        assert np.array_equal(code <= 10, f[:, 0] <= thr[10])

    @pytest.mark.parametrize("distinct", [2, 3, 40, 64])
    def test_few_valued_feature_keeps_every_boundary(self, distinct):
        """A feature with at most BINS distinct values keeps a cut between
        every two consecutive ones, as an exact search would score."""
        rng = derive_rng(41, "every-boundary")
        levels = np.sort(rng.standard_normal(distinct))
        f = np.column_stack([rng.choice(levels, 500), rng.standard_normal(500)])
        f[:distinct, 0] = levels
        (thr, _) = _TreeBuilder(f).cuts
        assert distinct <= classify.BINS and thr.size == distinct - 1
        assert np.all((levels[:-1] <= thr) & (thr < levels[1:]))

    @settings(max_examples=200, deadline=None)
    @given(split_problems())
    def test_every_split_sends_rows_both_ways_without_penalties(self, problem):
        """With L2 = MIN_CHILD_WEIGHT = 0 nothing but the row counts keeps a
        cut with an empty side out: a subtracted bin can hold a rounding
        residue in place of 0, and an empty leaf would divide 0 by 0."""
        f, g, h, consts = problem
        consts = {**consts, "L2": 0.0, "MIN_CHILD_WEIGHT": 0.0}
        with pytest.MonkeyPatch.context() as mp:
            patch_consts(mp, consts)
            tree, row_values = _TreeBuilder(f).build(g, h)
        stack = [(0, np.arange(f.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if tree.feature[node] < 0:
                continue
            go_left = f[idx, tree.feature[node]] <= tree.threshold[node]
            assert 0 < np.count_nonzero(go_left) < idx.size
            stack += [(tree.left[node], idx[go_left]), (tree.right[node], idx[~go_left])]
        assert np.array_equal(row_values, reference_predict(tree, f))


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

    Re-pinned when the mimic's kind began to follow y's kind and
    ``mimic_config.categorical_table`` was removed.  The pnl digest is the
    sha256 of the previous report with that key deleted and re-dumped with
    ``sort_keys=True``; no other byte moved.  The discrete report moved by
    design: its categorical y now gets the table mimic instead of codes
    plus noise, so e1 = e2 = 0.03 (gap 0.0, H0) became e1 = 0.51,
    e2 = 0.52 (gap 0.01, H0).

    Re-pinned when ``mimic_config.regressor`` was removed: the pnl and
    discrete digests are the sha256 of the previous report with that key
    deleted and re-dumped with ``sort_keys=True``; no other byte moved.  The
    categorical-y, continuous-z digest was recorded the same way on the
    commit before that removal, so it holds the table mimic's median-cut
    binning of continuous z fixed.

    Re-pinned when the config kept only what a caller varies: each of the
    three digests is the sha256 of the previous report with ``config.tvs``,
    ``config.mimic_config.tree_lr``, ``config.mimic_config.tree_depth``,
    ``config.mimic_config.mlp.seed`` and ``config.mimic_config.mlp.loss``
    deleted and re-dumped with ``sort_keys=True``; no other byte moved.

    Re-pinned when the nearest-neighbour bootstrap replaced the regression
    and table mimics: all three reports moved by design, and their
    ``config`` echo lost ``mimic_config``.  pnl: e1 0.43 -> 0.51, e2
    0.25 -> 0.35, gap 0.18 -> 0.16 (H0 both).  discrete: e1 0.51 -> 0.51,
    e2 0.52 -> 0.45, gap 0.01 -> 0.06 (H0 both).  Categorical y,
    continuous z: e1 0.45 -> 0.50, e2 0.41 -> 0.50, gap 0.04 -> 0.0 (H0
    both).  The gap is now |e1 - e2| of the reported rates, bit for bit.

    Re-pinned when ``tau`` and the booster's depth, learning rate, L2 and
    min child weight stopped being config fields: each of the three digests
    is the sha256 of the previous report with ``config.tau``,
    ``config.gbt.max_depth``, ``config.gbt.learning_rate``,
    ``config.gbt.l2`` and ``config.gbt.min_child_weight`` deleted and
    re-dumped with ``sort_keys=True``; no other byte moved.

    Re-pinned when the histogram split search replaced the exact dense
    search: every tree on a continuous feature moved by design.  pnl: e1
    0.51 -> 0.50, e2 0.35 -> 0.36, gap 0.16 -> 0.14 (H0 both).  Categorical
    y, continuous z: e1 0.50 -> 0.46, e2 0.50 -> 0.50, gap 0.0 -> 0.04 (H0
    both).  The discrete report, whose features are all one-hot, kept every
    byte.
    """

    def test_pnl_report_digest(self):
        ds = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=600, ci=False, a_xy=2.0, seed=11))
        text = ci_test(ds, TestConfig(seed=5)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "c4ae2125c9907ef928ab1599bbb6cd54eed3124d872960acc53dea19ea9af013"
        )

    def test_discrete_report_digest(self):
        ds = sample_discrete(gen_discrete_joint((3, 3, 3), ci=True, seed=12), 600, seed=13)
        text = ci_test(ds, TestConfig(seed=5)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "399da58dbb3df08094095b4412aeb6d6ad8a8585fd563ba57364861351637839"
        )

    def test_categorical_y_continuous_z_report_digest(self):
        rng = derive_rng(31, "cat-y-cont-z")
        n = 600
        z = rng.standard_normal((n, 2))
        y = np.digitize(z[:, 0] + 0.5 * rng.standard_normal(n), [-0.5, 0.5]).astype(np.float64)
        x = z[:, :1] + 0.5 * rng.standard_normal((n, 1))
        ds = Dataset(
            (Column("x_0"),),
            (Column("y_0", "categorical", 3),),
            (Column("z_0"), Column("z_1")),
            np.column_stack([x, y, z]),
        )
        text = ci_test(ds, TestConfig(seed=5)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bf2bab6eaada2781c2da55d9cfa96c67e95f0fe2ff4653bbd3396e39e1b4275f"
        )
