"""Mimic stage: regression + residual noise, table mimic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.core import Column, Dataset, derive_rng
from ciforge.errors import SchemaMismatch, TooFewRows
from ciforge.mimic import (
    TREES_MAX_Z,
    MimicConfig,
    TableMimic,
    _inverse_cdf,
    fit_reg_mimic,
    mimic_apply,
    noise_density,
)
from ciforge.nn import MlpConfig


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


def reference_table_draw(d2: Dataset, z_block: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The table mimic as first written, kept as the reference for
    ``TableMimic.draw``: each row's z cell is a mixed-radix id (the declared
    cardinality for a categorical column, 2 for a continuous one cut at its
    median), and each y column's table is a dict from id to frequencies
    with the marginal under ``"__global__"``, looked up row by row."""
    zb = d2.z_block()
    bin_cols = range(min(d2.n_z, 6))
    edges = [None if d2.z_cols[j].kind == "categorical" else np.asarray([np.median(zb[:, j])]) for j in bin_cols]

    def bin_ids(block):
        ids = np.zeros(block.shape[0], dtype=np.intp)
        for j, e in zip(bin_cols, edges):
            if e is None:
                part, width = block[:, j].astype(np.intp), d2.z_cols[j].cardinality
            else:
                part, width = np.searchsorted(e, block[:, j], side="right"), e.size + 1
            ids = ids * width + part
        return ids

    bins = bin_ids(zb)
    y = d2.y_block().astype(np.intp)
    tables = []
    for k, col in enumerate(d2.y_cols):
        counts = np.bincount(y[:, k], minlength=col.cardinality).astype(np.float64)
        table = {"__global__": counts / counts.sum()}
        for b in np.unique(bins):
            c = np.bincount(y[bins == b, k], minlength=col.cardinality).astype(np.float64)
            table[int(b)] = c / c.sum()
        tables.append(table)
    new_bins = bin_ids(z_block)
    y_hat = np.empty((z_block.shape[0], len(tables)))
    for k, table in enumerate(tables):
        probs = np.stack([table.get(int(b), table["__global__"]) for b in new_bins])
        y_hat[:, k] = _inverse_cdf(probs, rng.random(z_block.shape[0]))
    return y_hat


class TestFitRegMimic:
    def test_realizable_regression_has_small_residuals(self):
        """y = z exactly: the residual covariance trace collapses."""
        ds = yz_dataset(n=1000, link="identity")
        model = fit_reg_mimic(ds, MimicConfig())
        assert float(np.trace(model.chol @ model.chol.T)) < 0.05

    def test_independent_y_keeps_marginal_variance(self):
        """y independent of z: r(z) ~ mean(y), residual variance ~ Var(y).

        In-sample residuals run tight because the trees absorb some noise
        (measured ratio ~0.79 at these sizes); the measured value is frozen
        here with an honest margin.
        """
        ds = yz_dataset(n=2000, link="independent", seed=3)
        var_y = ds.y_block().var()
        model = fit_reg_mimic(ds, MimicConfig())
        resid_var = float((model.chol @ model.chol.T)[0, 0])
        assert 0.7 * var_y < resid_var < 1.05 * var_y
        pred = model.predict_mean(ds.z_block())
        assert abs(pred.mean() - ds.y_block().mean()) < 0.1

    def test_deterministic(self):
        ds = yz_dataset(n=200, seed=5)
        a = fit_reg_mimic(ds, MimicConfig(), seed=9)
        b = fit_reg_mimic(ds, MimicConfig(), seed=9)
        assert np.array_equal(a.chol, b.chol)
        assert np.array_equal(a.laplace_scales, b.laplace_scales)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            fit_reg_mimic(yz_dataset(n=10), MimicConfig())

    def test_mixed_kind_y_rejected(self):
        """Neither mimic fits a y with one categorical and one continuous
        column: the table would read the continuous one as codes, and the
        regression would add noise to the codes."""
        ds = yz_dataset(n=200, n_y=2, seed=8)
        y = ds.y_block().copy()
        y[:, 0] = (y[:, 0] > 0).astype(float)
        mixed = Dataset(ds.x_cols, (Column("y_0", "categorical", 2), Column("y_1")), ds.z_cols, ds.with_y(y).data)
        with pytest.raises(SchemaMismatch, match="mixes"):
            fit_reg_mimic(mixed, MimicConfig())

    def test_laplace_scales_positive(self):
        model = fit_reg_mimic(yz_dataset(n=500, seed=7), MimicConfig())
        assert np.all(model.laplace_scales > 0)


class TestMlpRegressionMimic:
    """The neural-net regressor, chosen above ``TREES_MAX_Z`` z columns."""

    FAST_MLP = MlpConfig(widths=(8,), epochs=3)

    def test_deterministic_under_seed_and_x_z_pass_through(self):
        d2 = yz_dataset(n=200, n_y=2, n_z=TREES_MAX_Z + 1, seed=21)
        d3 = yz_dataset(n=150, n_y=2, n_z=TREES_MAX_Z + 1, seed=22)

        def run(seed):
            model = fit_reg_mimic(d2, MimicConfig(mlp=self.FAST_MLP), seed=seed)
            assert model.net is not None and model.trees is None
            return mimic_apply(model, d3, seed=5)

        a, b, other = run(4), run(4), run(6)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.y_block(), other.y_block())
        assert np.array_equal(a.x_block(), d3.x_block())
        assert np.array_equal(a.z_block(), d3.z_block())

    def test_predict_mean_shape(self):
        d2 = yz_dataset(n=200, n_y=2, n_z=TREES_MAX_Z + 1, seed=23)
        model = fit_reg_mimic(d2, MimicConfig(mlp=self.FAST_MLP), seed=1)
        z_block = yz_dataset(n=70, n_y=2, n_z=TREES_MAX_Z + 1, seed=24).z_block()
        assert model.predict_mean(z_block).shape == (70, 2)

    @pytest.mark.parametrize("n_z, uses_net", [(TREES_MAX_Z, False), (TREES_MAX_Z + 1, True)])
    def test_auto_switches_to_mlp_above_trees_max_z(self, n_z, uses_net):
        ds = yz_dataset(n=60, n_z=n_z, seed=25)
        model = fit_reg_mimic(ds, MimicConfig(tree_rounds=2, mlp=self.FAST_MLP))
        assert (model.net is not None) == uses_net
        assert (model.trees is not None) == (not uses_net)


class TestMimicApply:
    def test_x_and_z_pass_through_bit_exactly(self):
        d2 = yz_dataset(n=400, seed=1)
        d3 = yz_dataset(n=300, seed=2)
        model = fit_reg_mimic(d2, MimicConfig())
        out = mimic_apply(model, d3, seed=4)
        assert np.array_equal(out.x_block(), d3.x_block())
        assert np.array_equal(out.z_block(), d3.z_block())
        assert out.n_rows == d3.n_rows

    def test_y_never_reads_x(self):
        """Shuffling the x column leaves the mimicked y identical under the
        same noise seed: generation touches only z and fresh noise."""
        d2 = yz_dataset(n=400, seed=1)
        d3 = yz_dataset(n=300, seed=2)
        model = fit_reg_mimic(d2, MimicConfig())
        out = mimic_apply(model, d3, seed=8)
        shuffled = d3.data.copy()
        shuffled[:, 0] = shuffled[::-1, 0]
        d3_shuffled = Dataset(d3.x_cols, d3.y_cols, d3.z_cols, shuffled)
        out_shuffled = mimic_apply(model, d3_shuffled, seed=8)
        assert np.array_equal(out.y_block(), out_shuffled.y_block())

    def test_deterministic_given_seed(self):
        d2 = yz_dataset(n=200, seed=3)
        d3 = yz_dataset(n=100, seed=4)
        model = fit_reg_mimic(d2, MimicConfig())
        a = mimic_apply(model, d3, seed=11)
        b = mimic_apply(model, d3, seed=11)
        assert np.array_equal(a.data, b.data)

    def test_schema_mismatch(self):
        d2 = yz_dataset(n=200, n_z=2)
        d3 = yz_dataset(n=100, n_z=3)
        model = fit_reg_mimic(d2, MimicConfig())
        with pytest.raises(SchemaMismatch):
            mimic_apply(model, d3, seed=0)

    def test_y_kind_mismatch(self):
        """The output keeps the applied fold's y columns, so they must be
        the ones the mimic was fitted on."""
        model = fit_reg_mimic(yz_dataset(n=200), MimicConfig())
        d3 = yz_dataset(n=100, seed=2)
        codes = d3.with_y((d3.y_block() > 0).astype(float)).data
        d3_cat = Dataset(d3.x_cols, (Column("y_0", "categorical", 2),), d3.z_cols, codes)
        with pytest.raises(SchemaMismatch, match="y columns"):
            mimic_apply(model, d3_cat, seed=0)

    def test_independent_y_mimic_is_centered(self):
        d2 = yz_dataset(n=2000, link="independent", seed=6)
        d3 = yz_dataset(n=2000, link="independent", seed=7)
        model = fit_reg_mimic(d2, MimicConfig())
        out = mimic_apply(model, d3, seed=9)
        mean_y = d2.y_block().mean()
        sd = d2.y_block().std() / np.sqrt(d3.n_rows)
        assert abs(out.y_block().mean() - mean_y) < 5 * sd


class TestNoiseDensity:
    def test_positive_at_random_points(self):
        """Gaussian/Laplace mixture has full support: density > 0 at random
        points spanning several multiples of the fitted noise scale."""
        rng = derive_rng(10, "noisy-yz")
        z = rng.standard_normal((500, 3))
        y = np.column_stack([z[:, 0] + 0.4 * rng.standard_normal(500), 3.0 + 0.5 * rng.standard_normal(500)])
        ds = Dataset(
            (),
            (Column("y_0"), Column("y_1")),
            tuple(Column(f"z_{i}") for i in range(3)),
            np.hstack([y, z]),
        )
        model = fit_reg_mimic(ds, MimicConfig())
        pts = derive_rng(0, "probe").standard_normal((100, 2)) * 3.0 * model.laplace_scales
        dens = noise_density(model, pts)
        assert np.all(dens > 0)


class TestTableMimic:
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
        model = fit_reg_mimic(ds, MimicConfig())
        assert isinstance(model, TableMimic)
        out = mimic_apply(model, ds, seed=3)
        assert out.y_cols[0].kind == "categorical"
        vals = np.unique(out.y_block())
        assert set(vals).issubset({0.0, 1.0})
        # conditional frequencies approximately reproduced per z bin
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
        seen ones, and every seen cell must still draw from its own row."""
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
        model = fit_reg_mimic(d2, MimicConfig())
        y_hat = mimic_apply(model, d3, seed=seed % 1000).y_block()[:, 0]
        seen = np.zeros(n, dtype=bool)
        for row in d2.z_block():
            seen |= (d3.z_block() == row).all(axis=1)
        assert seen.any()
        assert np.array_equal(y_hat[seen], d3.y_block()[seen, 0])
        assert np.all((y_hat >= 0) & (y_hat < y_card) & (y_hat == np.floor(y_hat)))

    def test_wide_declared_z_codes_keep_their_cells(self):
        """Six z columns of declared cardinality 8192 span 2^78 cells, more
        than an int64 cell id can number; the mimic must still hold one row
        per distinct cell and, with y = z_0, reproduce y on every row."""
        rng = derive_rng(5, "wide-z")
        z = rng.integers(0, 2, size=(640, 6)).astype(np.float64)
        z_cols = tuple(Column(f"z_{j}", "categorical", 8192) for j in range(6))
        ds = Dataset((), (Column("y_0", "categorical", 2),), z_cols, np.column_stack([z[:, 0], z]))
        model = fit_reg_mimic(ds, MimicConfig())
        assert len(model.cells) == len(np.unique(z, axis=0))
        assert model.probs[0].shape == (len(model.cells) + 1, 2)
        assert np.array_equal(mimic_apply(model, ds, seed=3).y_block(), ds.y_block())

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(2, 5), min_size=1, max_size=3),
        st.lists(st.integers(2, 4), min_size=1, max_size=2),
        st.one_of(st.none(), st.integers(0, 3)),
        st.integers(20, 80),
        st.integers(1, 60),
        st.integers(0, 2**32 - 1),
    )
    def test_draw_matches_mixed_radix_reference(self, z_cards, y_cards, cont_at, n2, n3, seed):
        """``TableMimic.draw`` gives the bytes of the first table mimic:
        per-cell dict tables keyed by mixed-radix cell ids and looked up row
        by row.  The radix products here stay far below 2^62, where those ids
        are exact.  The fit fold never sees the top code of a categorical
        column, so the apply fold has unseen cells; the optional continuous
        column takes few distinct values, so rows sit on its median."""
        rng = np.random.default_rng(seed)
        z_cols = [Column(f"z_{j}", "categorical", c) for j, c in enumerate(z_cards)]
        if cont_at is not None:
            z_cols.insert(min(cont_at, len(z_cols)), Column("z_cont"))
        y_cols = tuple(Column(f"y_{k}", "categorical", c) for k, c in enumerate(y_cards))

        def fold(n, top_codes):
            z = np.column_stack(
                [
                    rng.integers(0, 3, n) * 0.5
                    if c.kind == "continuous"
                    else rng.integers(0, c.cardinality - (0 if top_codes else 1), n)
                    for c in z_cols
                ]
            )
            y = np.column_stack([rng.integers(0, c.cardinality, n) for c in y_cols])
            return Dataset((), y_cols, tuple(z_cols), np.column_stack([y, z]).astype(np.float64))

        d2, d3 = fold(n2, top_codes=False), fold(n3, top_codes=True)
        model = fit_reg_mimic(d2, MimicConfig())
        got = model.draw(d3.z_block(), np.random.default_rng(seed))
        want = reference_table_draw(d2, d3.z_block(), np.random.default_rng(seed))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 50), min_size=2, max_size=12).filter(any), st.floats(0.0, 1.0, exclude_max=True))
    def test_inverse_cdf_stays_in_range(self, counts, u):
        probs = np.asarray(counts, dtype=np.float64)
        probs /= probs.sum()
        draws = np.array([u, np.nextafter(1.0, 0.0)])
        codes = _inverse_cdf(np.stack([probs, probs]), draws)
        assert np.all((codes >= 0) & (codes < probs.size))
        assert probs[codes[0]] > 0 or codes[0] == probs.size - 1

    def test_inverse_cdf_when_cumsum_rounds_below_one(self):
        probs = np.full((1, 10), 0.1)  # ten 0.1s sum to 0.9999999999999999
        assert probs.cumsum()[-1] < 1.0
        assert _inverse_cdf(probs, np.array([np.nextafter(1.0, 0.0)]))[0] == 9
