"""Mimic stage: the nearest-neighbour bootstrap of the fit fold."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.core import Column, Dataset, derive_rng
from ciforge.errors import SchemaMismatch, TooFewRows
from ciforge.mimic import BLOCK_ROWS, fit_reg_mimic, mimic_apply


def yz_dataset(n=1000, n_y=1, n_z=2, seed=0, link="identity", with_x=True):
    rng = derive_rng(seed, "mimic-data")
    z = rng.standard_normal((n, n_z))
    if link == "identity":
        base = z[:, :n_y] if n_z >= n_y else np.tile(z[:, :1], (1, n_y))
        y = base + 0.0
    elif link == "independent":
        y = 3.0 + 0.5 * rng.standard_normal((n, n_y))
    else:
        raise ValueError(link)
    x = rng.standard_normal((n, 1))
    cols_x = (Column("x_0"),) if with_x else ()
    data = np.hstack([x, y, z]) if with_x else np.hstack([y, z])
    return Dataset(
        cols_x,
        tuple(Column(f"y_{i}") for i in range(n_y)),
        tuple(Column(f"z_{i}") for i in range(n_z)),
        data,
    )


def mixed_y(ds: Dataset) -> Dataset:
    """``ds`` with its first y column cut into a categorical code."""
    y = ds.y_block().copy()
    y[:, 0] = (y[:, 0] > 0).astype(float)
    y_cols = (Column("y_0", "categorical", 2),) + ds.y_cols[1:]
    return Dataset(ds.x_cols, y_cols, ds.z_cols, ds.with_y(y).data)


def reference_draw(d2: Dataset, model, z_block: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The bootstrap one row at a time over every fit row, the reference for
    ``MimicModel.draw``.  The fit rows at the minimum distance are numbered
    in the order of their standardized z rows (lexicographic, then fit-fold
    order), and the row numbered floor(u * count) gives its y."""

    def standardized(block):
        return (model.encoder.transform(block) - model.center) / model.scale

    fit = standardized(d2.z_block())
    order = np.lexsort(fit.T[::-1])
    fit, y = fit[order], d2.y_block()[order]
    out = np.empty((z_block.shape[0], d2.n_y))
    for i, row in enumerate(standardized(z_block)):
        dist = np.zeros(len(fit))
        for j in range(fit.shape[1]):
            diff = row[j] - fit[:, j]
            dist += diff * diff
        tied = np.flatnonzero(dist == dist.min())
        out[i] = y[tied[min(int(u[i] * tied.size), tied.size - 1)]]
    return out


class TestFitRegMimic:
    def test_realizable_regression_has_small_residuals(self):
        """y = z_0 exactly: a held-out row's nearest fit row in z is close,
        so its copied y is close to its own."""
        model = fit_reg_mimic(yz_dataset(n=1000, link="identity"))
        d3 = yz_dataset(n=1000, link="identity", seed=1)
        resid = mimic_apply(model, d3, seed=4).y_block() - d3.y_block()
        assert float(resid.var()) < 0.01

    def test_independent_y_keeps_marginal_variance(self):
        """y independent of z: the copied rows keep y's spread."""
        d2 = yz_dataset(n=2000, link="independent", seed=3)
        d3 = yz_dataset(n=2000, link="independent", seed=4)
        out = mimic_apply(fit_reg_mimic(d2), d3, seed=5).y_block()
        var_y = d2.y_block().var()
        assert 0.9 * var_y < out.var() < 1.1 * var_y

    def test_deterministic(self):
        """The fit is seed-free."""
        ds = yz_dataset(n=200, seed=5)
        a, b = fit_reg_mimic(ds), fit_reg_mimic(ds)
        for name in ("center", "scale", "cells", "counts", "y_rows"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_reg_mimic(yz_dataset(n=10))

    def test_mixed_kind_y_works(self):
        """y rows are copied whole, so a y with one categorical and one
        continuous column keeps both kinds: every mimicked y row is a y row
        of the fit fold."""
        d2, d3 = mixed_y(yz_dataset(n=200, n_y=2, seed=8)), mixed_y(yz_dataset(n=150, n_y=2, seed=9))
        out = mimic_apply(fit_reg_mimic(d2), d3, seed=1)
        assert out.y_cols == d3.y_cols
        fit_rows = {tuple(r) for r in d2.y_block()}
        assert all(tuple(r) in fit_rows for r in out.y_block())
        assert set(np.unique(out.y_block()[:, 0])) <= {0.0, 1.0}

    def test_constant_z_column_keeps_unit_scale(self):
        ds = yz_dataset(n=100, n_z=2, seed=6)
        z = ds.z_block().copy()
        z[:, 1] = 4.0
        model = fit_reg_mimic(Dataset(ds.x_cols, ds.y_cols, ds.z_cols, np.hstack([ds.x_block(), ds.y_block(), z])))
        assert model.scale[1] == 1.0 and model.center[1] == 4.0
        assert model.scale[0] == pytest.approx(ds.z_block()[:, 0].std(), rel=1e-12)

    @pytest.mark.parametrize("values", [(0.0, 1e-200), (-1.5e308, 1.5e308)], ids=["std_underflows", "mean_overflows"])
    def test_unstandardizable_z_column_refused_by_name(self, values):
        """A z column whose std underflows to 0 on distinct values, or whose
        mean overflows, would standardize to inf or NaN, and every held-out
        row would then draw from cell 0; it is refused, without numpy's
        warnings."""
        rng = derive_rng(10, "mimic-float-limits")
        z = np.array(values)[rng.integers(0, 2, 100)]
        data = np.column_stack([rng.standard_normal(100), (z > 0).astype(float), rng.standard_normal(100), z])
        ds = Dataset((Column("x_0"),), (Column("y_0"),), (Column("z_0"), Column("z_1")), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="z column 'z_1' cannot be standardized"):
                fit_reg_mimic(ds)

    def test_empty_z_is_one_cell(self):
        """With no z columns every fit row is in the one cell, in fit-fold order."""
        ds = yz_dataset(n=50, n_z=0, link="independent", seed=7)
        model = fit_reg_mimic(ds)
        assert model.cells.shape == (0, 1)
        assert model.counts.tolist() == [50]
        assert np.array_equal(model.y_rows, ds.y_block())

    def test_cells_in_np_unique_order(self):
        """Distinct standardized z rows in ``np.unique(axis=0)``'s order, and
        each cell's y rows in fit-fold order."""
        rng = derive_rng(9, "mimic-cells")
        z = np.column_stack([rng.integers(0, 3, 300), rng.choice([-1.5, 0.25, 2.0], 300)]).astype(np.float64)
        y = rng.standard_normal(300)
        ds = Dataset((), (Column("y_0"),), (Column("z_0", "categorical", 3), Column("z_1")), np.column_stack([y, z]))
        model = fit_reg_mimic(ds)
        zs = (model.encoder.transform(z) - model.center) / model.scale
        cells, inv, counts = np.unique(zs, axis=0, return_inverse=True, return_counts=True)
        assert np.array_equal(model.cells, cells.T)
        assert np.array_equal(model.counts, counts)
        assert np.array_equal(model.y_rows[:, 0], y[np.argsort(inv.reshape(-1), kind="stable")])


class TestDraw:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(st.none(), st.integers(2, 4)), min_size=1, max_size=3),
        st.integers(20, 60),
        st.sampled_from((BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 200)),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_draw_matches_row_at_a_time_reference(self, z_kinds, n2, n3, duplicates, seed):
        """``draw`` gives the bytes of the row-at-a-time reference on either
        side of a block boundary.  A None kind is a continuous z column with
        few distinct values, so ties are common; the fit fold never sees the
        top code of a categorical column, so the apply fold has unseen cells;
        with ``duplicates`` the fit fold repeats a few z rows many times."""
        rng = np.random.default_rng(seed)
        z_cols = tuple(
            Column(f"z_{j}") if card is None else Column(f"z_{j}", "categorical", card)
            for j, card in enumerate(z_kinds)
        )
        y_cols = (Column("y_0", "categorical", 3), Column("y_1"))

        def z_rows(n, top_codes):
            return np.column_stack(
                [
                    rng.integers(0, 4, n) * 0.5 + (rng.random(n) < 0.1) * rng.standard_normal(n)
                    if c.kind == "continuous"
                    else rng.integers(0, c.cardinality - (0 if top_codes else 1), n)
                    for c in z_cols
                ]
            )

        z2 = z_rows(n2, top_codes=False)
        if duplicates:
            z2 = z2[rng.integers(0, 3, n2)]
        y2 = np.column_stack([rng.integers(0, 3, n2), rng.standard_normal(n2)])
        d2 = Dataset((), y_cols, z_cols, np.column_stack([y2, z2]))
        z3 = z_rows(n3, top_codes=True)
        model = fit_reg_mimic(d2)
        got = model.draw(z3, np.random.default_rng(seed))
        want = reference_draw(d2, model, z3, np.random.default_rng(seed).random(n3))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_unseen_one_hot_cell_spreads_over_all_equidistant_rows(self):
        """z has five codes and the fit fold holds codes 0-3 ten times each,
        so every standardized value is the same for each code and the unseen
        code 4 lies at one distance, bit for bit, from all 40 fit rows.  Its
        draws must reach every one of them, about equally often."""
        z = np.repeat(np.arange(4.0), 10)
        y = np.arange(40.0)  # each fit row's y names it
        d2 = Dataset((), (Column("y_0"),), (Column("z_0", "categorical", 5),), np.column_stack([y, z]))
        model = fit_reg_mimic(d2)
        y_hat = model.draw(np.full((4000, 1), 4.0), derive_rng(3, "ties"))[:, 0]
        hits = np.bincount(y_hat.astype(np.intp), minlength=40)
        assert hits.size == 40 and hits.min() > 60 and hits.max() < 140
        # A seen code draws only from its own ten rows.
        seen = model.draw(np.full((500, 1), 2.0), derive_rng(4, "ties"))[:, 0]
        assert set(seen) == set(range(20, 30))


class TestMimicApply:
    def test_x_and_z_pass_through_bit_exactly(self):
        d2 = yz_dataset(n=400, seed=1)
        d3 = yz_dataset(n=300, seed=2)
        model = fit_reg_mimic(d2)
        out = mimic_apply(model, d3, seed=4)
        assert np.array_equal(out.x_block(), d3.x_block())
        assert np.array_equal(out.z_block(), d3.z_block())
        assert out.n_rows == d3.n_rows

    def test_wide_z_deterministic_under_seed_and_x_z_pass_through(self):
        """51 z columns, wider than the MLP regressor's threshold once was.
        No two fit rows tie in continuous z, so the seed has no say."""
        d2 = yz_dataset(n=200, n_y=2, n_z=51, seed=21)
        d3 = yz_dataset(n=150, n_y=2, n_z=51, seed=22)
        model = fit_reg_mimic(d2)
        a, b, other = (mimic_apply(model, d3, seed=s) for s in (4, 4, 6))
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.y_block(), other.y_block())
        assert np.array_equal(a.x_block(), d3.x_block())
        assert np.array_equal(a.z_block(), d3.z_block())

    def test_y_never_reads_x(self):
        """Shuffling the x column leaves the mimicked y identical under the
        same noise seed: generation touches only z and fresh noise."""
        d2 = yz_dataset(n=400, seed=1)
        d3 = yz_dataset(n=300, seed=2)
        model = fit_reg_mimic(d2)
        out = mimic_apply(model, d3, seed=8)
        shuffled = d3.data.copy()
        shuffled[:, 0] = shuffled[::-1, 0]
        d3_shuffled = Dataset(d3.x_cols, d3.y_cols, d3.z_cols, shuffled)
        out_shuffled = mimic_apply(model, d3_shuffled, seed=8)
        assert np.array_equal(out.y_block(), out_shuffled.y_block())

    def test_deterministic_given_seed(self):
        d2 = yz_dataset(n=200, seed=3)
        d3 = yz_dataset(n=100, seed=4)
        model = fit_reg_mimic(d2)
        a = mimic_apply(model, d3, seed=11)
        b = mimic_apply(model, d3, seed=11)
        assert np.array_equal(a.data, b.data)

    def test_schema_mismatch(self):
        d2 = yz_dataset(n=200, n_z=2)
        d3 = yz_dataset(n=100, n_z=3)
        model = fit_reg_mimic(d2)
        with pytest.raises(SchemaMismatch):
            mimic_apply(model, d3, seed=0)

    def test_y_kind_mismatch(self):
        """The output keeps the applied fold's y columns, so they must be
        the ones the mimic was fitted on."""
        model = fit_reg_mimic(yz_dataset(n=200))
        d3 = yz_dataset(n=100, seed=2)
        codes = d3.with_y((d3.y_block() > 0).astype(float)).data
        d3_cat = Dataset(d3.x_cols, (Column("y_0", "categorical", 2),), d3.z_cols, codes)
        with pytest.raises(SchemaMismatch, match="y columns"):
            mimic_apply(model, d3_cat, seed=0)

    def test_independent_y_mimic_is_centered(self):
        d2 = yz_dataset(n=2000, link="independent", seed=6)
        d3 = yz_dataset(n=2000, link="independent", seed=7)
        model = fit_reg_mimic(d2)
        out = mimic_apply(model, d3, seed=9)
        mean_y = d2.y_block().mean()
        sd = d2.y_block().std() / np.sqrt(d3.n_rows)
        assert abs(out.y_block().mean() - mean_y) < 5 * sd


class TestTableMimic:
    """Categorical y on categorical z, the case the frequency-table mimic
    once served: a seen cell's nearest fit rows are exactly its own, so the
    bootstrap draws from that cell's empirical conditional."""

    def test_categorical_y_preserved(self):
        rng = derive_rng(2, "table")
        n = 600
        z = rng.integers(0, 2, size=(n, 1)).astype(float)
        y = ((z[:, 0] + rng.random(n) > 1.2)).astype(float)
        x = rng.standard_normal((n, 1))
        ds = Dataset(
            (Column("x_0"),),
            (Column("y_0", "categorical", 2),),
            (Column("z_0", "categorical", 2),),
            np.hstack([x, y[:, None], z]),
        )
        model = fit_reg_mimic(ds)
        out = mimic_apply(model, ds, seed=3)
        assert out.y_cols[0].kind == "categorical"
        vals = np.unique(out.y_block())
        assert set(vals).issubset({0.0, 1.0})
        # conditional frequencies approximately reproduced per z cell
        for zv in (0.0, 1.0):
            sel = ds.z_block()[:, 0] == zv
            p_true = y[sel].mean()
            p_mim = out.y_block()[sel, 0].mean()
            assert abs(p_true - p_mim) < 0.12

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(2, 5), min_size=1, max_size=3),
        st.integers(2, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_z_cell_keeps_its_bin_across_folds(self, z_cards, y_card, seed):
        """y is a function of the z cell; the fit fold never sees the top
        code of any z column, so the apply fold holds unseen cells beside
        seen ones, and every seen cell must still draw from its own rows."""
        rng = np.random.default_rng(seed)
        n = 200
        z_cols = tuple(Column(f"z_{j}", "categorical", c) for j, c in enumerate(z_cards))
        y_col = Column("y_0", "categorical", y_card)

        def fold(top_codes):
            z = np.column_stack([rng.integers(0, c - (0 if top_codes else 1), n) for c in z_cards])
            cell = z @ np.arange(1, len(z_cards) + 1)
            y = (cell % y_card).astype(np.float64)
            return Dataset((), (y_col,), z_cols, np.column_stack([y, z]).astype(np.float64))

        d2, d3 = fold(top_codes=False), fold(top_codes=True)
        model = fit_reg_mimic(d2)
        y_hat = mimic_apply(model, d3, seed=seed % 1000).y_block()[:, 0]
        seen = np.zeros(n, dtype=bool)
        for row in d2.z_block():
            seen |= (d3.z_block() == row).all(axis=1)
        assert seen.any()
        assert np.array_equal(y_hat[seen], d3.y_block()[seen, 0])
        assert np.all((y_hat >= 0) & (y_hat < y_card) & (y_hat == np.floor(y_hat)))

    def test_wide_declared_z_codes_keep_their_cells(self):
        """Six z columns of declared cardinality 8192 span 2^78 cells, more
        than an int64 cell id can number; the mimic must still hold one cell
        per distinct z row and, with y = z_0, reproduce y on every row."""
        rng = derive_rng(5, "wide-z")
        z = rng.integers(0, 2, size=(640, 6)).astype(np.float64)
        z_cols = tuple(Column(f"z_{j}", "categorical", 8192) for j in range(6))
        ds = Dataset((), (Column("y_0", "categorical", 2),), z_cols, np.column_stack([z[:, 0], z]))
        model = fit_reg_mimic(ds)
        assert model.cells.shape == (6, len(np.unique(z, axis=0)))
        assert model.counts.sum() == 640
        assert np.array_equal(mimic_apply(model, ds, seed=3).y_block(), ds.y_block())
