"""Synthetic generators: post-nonlinear data and exact discrete joints."""

import warnings

import numpy as np
import pytest

from ciforge.datagen import (
    NOISE_VAR,
    NONLINEARITIES,
    DiscreteJoint,
    PostNonlinearConfig,
    _pnl_draws,
    gen_discrete_joint,
    gen_postnonlinear,
    sample_discrete,
)
from ciforge.errors import SizeOutOfRange
from ciforge.oracle import is_ci, tv_distance


class TestPostNonlinear:
    def test_deterministic(self):
        cfg = PostNonlinearConfig(d_z=4, n=200, ci=True, seed=9)
        a = gen_postnonlinear(cfg)
        b = gen_postnonlinear(cfg)
        assert np.array_equal(a.data, b.data)

    def test_shapes_and_kinds(self):
        ds = gen_postnonlinear(PostNonlinearConfig(d_z=7, n=50, ci=False, seed=1))
        assert (ds.n_x, ds.n_y, ds.n_z) == (1, 1, 7)
        assert all(c.kind == "continuous" for c in ds.columns)

    def test_ci_construction_ignores_x_strength(self):
        """Under the independent ground truth the y equation never sees x,
        so the dependence knob cannot change anything."""
        a = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=100, ci=True, a_xy=0.0, seed=4))
        b = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=100, ci=True, a_xy=50.0, seed=4))
        assert np.array_equal(a.data, b.data)

    def test_dependent_construction_uses_x(self):
        a = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=100, ci=False, a_xy=1.0, seed=4))
        b = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=100, ci=False, a_xy=2.0, seed=4))
        assert np.array_equal(a.x_block(), b.x_block())
        assert np.array_equal(a.z_block(), b.z_block())
        assert not np.array_equal(a.y_block(), b.y_block())

    def test_noise_variance_matches_config(self):
        """Empirical Var(eta) at n=1e5 within 3 sigma of the sampling error."""
        cfg = PostNonlinearConfig(d_z=2, n=100_000, ci=True, seed=12)
        _, _, _, eta1, eta2, f1, f2 = _pnl_draws(cfg)
        three_sigma = 3.0 * NOISE_VAR * np.sqrt(2.0 / cfg.n)
        assert abs(eta1.var() - NOISE_VAR) < three_sigma
        assert abs(eta2.var() - NOISE_VAR) < three_sigma
        assert f1 in NONLINEARITIES and f2 in NONLINEARITIES

    def test_draws_assemble_into_output(self):
        cfg = PostNonlinearConfig(d_z=3, n=64, ci=True, seed=21)
        z, a_x, _, eta1, _, f1, _ = _pnl_draws(cfg)
        ds = gen_postnonlinear(cfg)
        assert np.array_equal(ds.z_block(), z)
        if f1 == "identity":
            assert np.allclose(ds.x_block()[:, 0], z @ a_x + eta1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PostNonlinearConfig(d_z=0, n=10, ci=True)

    @pytest.mark.parametrize(
        "bad",
        [
            {"d_z": 2.5},
            {"d_z": True},
            {"n": True},
            {"n": 0},
            {"n": 10.0},
            {"a_xy": "2"},
            {"a_xy": True},
            {"seed": 1.5},
            {"seed": None},
            {"ci": "no"},
            {"ci": 1},
        ],
    )
    def test_config_field_types(self, bad):
        with pytest.raises(ValueError):
            PostNonlinearConfig(**{"d_z": 2, "n": 10, "ci": True, **bad})

    @pytest.mark.parametrize(
        "a_xy",
        [
            float("nan"),
            float("inf"),
            -float("inf"),
            pytest.param(10**400, id="int_past_float_range"),
            pytest.param(-(10**400), id="negative_int_past_float_range"),
        ],
    )
    def test_non_finite_a_xy_is_refused(self, a_xy):
        """NaN would reach the manifest as invalid JSON and the dependent
        datasets as NaN cells; an int past the float range would die in
        the generator with a bare OverflowError."""
        with pytest.raises(ValueError, match="a_xy must be finite"):
            PostNonlinearConfig(d_z=2, n=10, ci=False, a_xy=a_xy)

    @pytest.mark.parametrize("f2, seed", [("square", 3), ("cube", 0), ("tanh", 7), ("expneg", 1)])
    def test_overflowing_dependent_equation_names_a_xy(self, f2, seed):
        """A finite a_xy can still overflow y = f2(z a_y + a_xy x + eta2):
        that is refused by name, with no numpy warning, also where tanh or
        expneg would map the infinite argument to a finite y.  The
        independent ground truth never sees a_xy."""
        cfg = PostNonlinearConfig(d_z=2, n=200, ci=False, a_xy=1e308, seed=seed)
        assert _pnl_draws(cfg)[6] == f2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="a_xy = 1e\\+308 overflows"):
                gen_postnonlinear(cfg)
            independent = PostNonlinearConfig(d_z=2, n=200, ci=True, a_xy=1e308, seed=seed)
            assert np.isfinite(gen_postnonlinear(independent).data).all()


class TestDiscreteJoint:
    def test_ci_construction_is_exactly_ci(self):
        for seed in range(10):
            joint = gen_discrete_joint((2, 3, 2), ci=True, seed=seed)
            assert is_ci(joint, 1e-12)

    def test_generic_joint_is_dependent(self):
        """Check p(x,y|z) != p(x|z) p(y|z) by direct marginalization."""
        joint = gen_discrete_joint((2, 2, 2), ci=False, seed=3)
        p_z = joint.p_z()
        worst = 0.0
        for z in range(2):
            p_xy_z = joint.pmf[:, :, z] / p_z[z]
            p_x_z = p_xy_z.sum(axis=1)
            p_y_z = p_xy_z.sum(axis=0)
            worst = max(worst, float(np.abs(p_xy_z - np.outer(p_x_z, p_y_z)).max()))
        assert worst > 1e-9
        assert not is_ci(joint, 1e-9)

    def test_pmf_sums_to_one(self):
        for ci in (True, False):
            joint = gen_discrete_joint((4, 2, 6), ci=ci, seed=5)
            assert abs(joint.pmf.sum() - 1.0) <= 1e-12

    def test_factorization_residual_at_machine_precision(self):
        joint = gen_discrete_joint((3, 3, 3), ci=True, seed=8)
        p_z, p_xz, p_yz = joint.p_z(), joint.p_xz(), joint.p_yz()
        lhs = joint.pmf * p_z[None, None, :]
        rhs = p_xz[:, None, :] * p_yz[None, :, :]
        assert float(np.abs(lhs - rhs).max()) <= 1e-12

    def test_size_out_of_range(self):
        with pytest.raises(SizeOutOfRange):
            gen_discrete_joint((1, 2, 2), ci=True, seed=0)
        with pytest.raises(SizeOutOfRange):
            gen_discrete_joint((2, 7, 2), ci=False, seed=0)

    @pytest.mark.parametrize(
        "bad, name",
        [
            ({"sizes": (3, 3, 3.7)}, "sizes"),
            ({"sizes": ("3", 3, 3)}, "sizes"),
            ({"sizes": (3, True, 3)}, "sizes"),
            ({"ci": "no"}, "ci"),
            ({"ci": 1}, "ci"),
            ({"seed": True}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": "3"}, "seed"),
        ],
        ids=["float_size", "str_size", "bool_size", "str_ci", "int_ci", "bool_seed", "float_seed", "str_seed"],
    )
    def test_joint_argument_types(self, bad, name):
        """Nothing is coerced: a float size used to be truncated, a string
        ci was truthy, and a bad seed died with a bare TypeError."""
        with pytest.raises(ValueError, match=f"^{name} must be"):
            gen_discrete_joint(**{"sizes": (3, 3, 3), "ci": True, "seed": 0, **bad})

    @pytest.mark.parametrize(
        "bad, name",
        [({"n": 2.5}, "n"), ({"n": True}, "n"), ({"n": "10"}, "n"), ({"seed": 1.5}, "seed"), ({"seed": True}, "seed")],
        ids=["float_n", "bool_n", "str_n", "float_seed", "bool_seed"],
    )
    def test_sample_argument_types(self, bad, name):
        joint = gen_discrete_joint((2, 2, 2), ci=True, seed=0)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            sample_discrete(**{"joint": joint, "n": 10, "seed": 0, **bad})

    def test_invalid_pmf_rejected(self):
        with pytest.raises(ValueError):
            DiscreteJoint((2, 2, 2), np.full((2, 2, 2), 0.2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pmf_rejected(self, bad):
        """A NaN fails every comparison, so it must fail the checks, not pass them."""
        pmf = np.full((2, 2, 2), 0.125)
        pmf[0, 1, 0] = bad
        with pytest.raises(ValueError):
            DiscreteJoint((2, 2, 2), pmf)


class TestSampleDiscrete:
    def test_point_mass(self):
        pmf = np.zeros((2, 2, 2))
        pmf[0, 1, 0] = 1.0
        ds = sample_discrete(DiscreteJoint((2, 2, 2), pmf), n=5, seed=0)
        assert np.array_equal(ds.data, np.tile([0.0, 1.0, 0.0], (5, 1)))

    def test_uniform_cell_frequencies(self):
        """Each of the 8 cells should land near 1/8 at n=1e5 (binomial 3 sigma)."""
        joint = DiscreteJoint((2, 2, 2), np.full((2, 2, 2), 0.125))
        ds = sample_discrete(joint, n=100_000, seed=3)
        codes = ds.data.astype(int)
        counts = np.zeros((2, 2, 2))
        for x, y, z in codes:
            counts[x, y, z] += 1
        freq = counts / codes.shape[0]
        assert float(np.abs(freq - 0.125).max()) < 0.005

    def test_empirical_tv_converges(self):
        joint = gen_discrete_joint((2, 2, 2), ci=False, seed=17)
        ds = sample_discrete(joint, n=100_000, seed=4)
        codes = ds.data.astype(int)
        counts = np.zeros((2, 2, 2))
        for x, y, z in codes:
            counts[x, y, z] += 1
        emp = counts / codes.shape[0]
        assert tv_distance(emp.ravel(), joint.pmf.ravel()) <= 0.02

    def test_deterministic(self):
        joint = gen_discrete_joint((3, 3, 3), ci=True, seed=2)
        a = sample_discrete(joint, n=500, seed=9)
        b = sample_discrete(joint, n=500, seed=9)
        assert np.array_equal(a.data, b.data)

    def test_columns_carry_cardinalities(self):
        joint = gen_discrete_joint((4, 2, 5), ci=True, seed=2)
        ds = sample_discrete(joint, n=10, seed=0)
        assert [c.cardinality for c in ds.columns] == [4, 2, 5]
        assert all(c.kind == "categorical" for c in ds.columns)
