"""End-to-end test orchestration and p-values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.core import derive_rng
from ciforge.datagen import PostNonlinearConfig, gen_discrete_joint, gen_postnonlinear, sample_discrete
from ciforge.errors import SchemaMismatch, TooFewRows
from ciforge.testkit import (
    TestConfig,
    ci_test,
    gap_pvalue,
    stratified_three_split,
)


class TestGapPvalue:
    def test_zero_gap_gives_one(self):
        assert gap_pvalue(0.0, 100) == 1.0

    def test_known_value(self):
        # 2 exp(-200 * 0.09 / 2) = 2 exp(-9)
        assert gap_pvalue(0.3, 200) == pytest.approx(2.0 * math.exp(-9.0), rel=1e-12)
        assert gap_pvalue(0.3, 200) == pytest.approx(2.468e-4, rel=1e-3)

    @given(
        g1=st.floats(min_value=0.0, max_value=1.0),
        g2=st.floats(min_value=0.0, max_value=1.0),
        n1=st.integers(min_value=1, max_value=10_000),
        n2=st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_gap_and_n(self, g1, g2, n1, n2):
        lo_g, hi_g = sorted([g1, g2])
        lo_n, hi_n = sorted([n1, n2])
        assert gap_pvalue(hi_g, lo_n) <= gap_pvalue(lo_g, lo_n)
        assert gap_pvalue(lo_g, hi_n) <= gap_pvalue(lo_g, lo_n)
        assert 0.0 < gap_pvalue(g1, n1) <= 1.0

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            gap_pvalue(1.5, 10)
        with pytest.raises(ValueError):
            gap_pvalue(0.5, 0)


class TestStratifiedSplit:
    def test_both_classes_everywhere(self):
        rng = derive_rng(0, "strat")
        labels = (np.arange(40) % 2).astype(np.int8)
        for part in stratified_three_split(labels, (0.5, 0.25, 0.25), rng):
            assert {0, 1} <= set(labels[part])

    def test_partition(self):
        rng = derive_rng(1, "strat2")
        labels = np.concatenate([np.zeros(33, dtype=np.int8), np.ones(21, dtype=np.int8)])
        parts = stratified_three_split(labels, (0.5, 0.25, 0.25), rng)
        joined = np.concatenate(parts)
        assert sorted(joined) == list(range(54))


def small_h0_dataset(n=240, seed=0):
    joint = gen_discrete_joint((3, 3, 3), ci=True, seed=seed)
    return sample_discrete(joint, n, seed=seed + 1)


class TestCiTest:
    def test_report_fields_and_identity(self):
        ds = small_h0_dataset()
        rep = ci_test(ds, TestConfig(seed=3))
        assert rep.gap == abs(rep.e2 - rep.e1)
        assert 0.0 < rep.p_value <= 1.0
        assert rep.decision in ("H0", "H1")
        assert (rep.decision == "H1") == (rep.gap > rep.tau)
        assert rep.split_sizes["d1"] == 80
        assert rep.split_sizes["test"] == rep.n_s

    def test_deterministic_report(self):
        ds = small_h0_dataset(seed=5)
        a = ci_test(ds, TestConfig(seed=9))
        b = ci_test(ds, TestConfig(seed=9))
        assert a.to_json() == b.to_json()

    def test_seed_changes_internals(self):
        ds = small_h0_dataset(seed=5)
        a = ci_test(ds, TestConfig(seed=9))
        b = ci_test(ds, TestConfig(seed=10))
        assert a.to_json() != b.to_json()

    def test_tau_from_alpha(self):
        ds = small_h0_dataset(seed=2)
        rep = ci_test(ds, TestConfig(seed=1, alpha=0.05))
        assert rep.tau == pytest.approx(math.sqrt(2.0 * math.log(2.0 / 0.05) / rep.n_s))

    def test_explicit_tau_wins(self):
        ds = small_h0_dataset(seed=2)
        rep = ci_test(ds, TestConfig(seed=1, alpha=None, tau=0.42))
        assert rep.tau == 0.42

    def test_too_few_rows(self):
        ds = small_h0_dataset(n=50)
        with pytest.raises(TooFewRows):
            ci_test(ds, TestConfig(seed=0))

    def test_needs_x_and_y(self):
        ds = small_h0_dataset()
        from ciforge.core import drop_x

        with pytest.raises(SchemaMismatch):
            ci_test(drop_x(ds), TestConfig(seed=0))

    def test_f1_error_invariant_to_x_permutation(self):
        """The no-x classifier's reported error cannot depend on x values."""
        from ciforge.core import Dataset

        ds = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=300, ci=True, seed=6))
        rep = ci_test(ds, TestConfig(seed=7))
        scrambled = ds.data.copy()
        scrambled[:, 0] = scrambled[::-1, 0]
        ds2 = Dataset(ds.x_cols, ds.y_cols, ds.z_cols, scrambled)
        rep2 = ci_test(ds2, TestConfig(seed=7))
        assert rep.e1 == rep2.e1

    def test_config_validation(self):
        for removed in ("mimic", "classifier", "mlp", "logreg", "vc_dim"):
            with pytest.raises(TypeError):
                TestConfig(**{removed: None})
        with pytest.raises(ValueError):
            TestConfig(alpha=None, tau=None)
        with pytest.raises(ValueError):
            TestConfig(tvs=(0.5, 0.2, 0.2))
        for alpha in (0.0, 2.0, -0.5, float("nan")):
            with pytest.raises(ValueError):
                TestConfig(alpha=alpha)
        for tau in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                TestConfig(alpha=None, tau=tau)
        assert TestConfig(alpha=1.0).alpha == 1.0
        assert TestConfig(alpha=None, tau=0.0).tau == 0.0

    def test_json_round_trip(self):
        import json

        ds = small_h0_dataset(seed=12)
        rep = ci_test(ds, TestConfig(seed=13))
        parsed = json.loads(rep.to_json())
        keys = {"e1", "e2", "gap", "n_s", "p_value", "tau", "decision", "seed", "split_sizes", "config"}
        assert set(parsed) == keys
