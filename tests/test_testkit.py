"""End-to-end test orchestration and p-values."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.classify import GbtConfig
from ciforge.core import Column, Dataset, derive_rng
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
        for part in stratified_three_split(labels, rng):
            assert {0, 1} <= set(labels[part])

    def test_partition(self):
        rng = derive_rng(1, "strat2")
        labels = np.concatenate([np.zeros(33, dtype=np.int8), np.ones(21, dtype=np.int8)])
        parts = stratified_three_split(labels, rng)
        joined = np.concatenate(parts)
        assert sorted(joined) == list(range(54))

    def test_part_sizes_for_every_small_class(self):
        """A class of s rows gives floor(s/2) train, max(1, floor(s/4))
        validation and the rest test rows, and every part holds both
        classes, for every pair of class sizes from 3 to 60."""
        rng = derive_rng(2, "strat-sizes")
        for s0 in range(3, 61):
            for s1 in range(3, 61):
                labels = rng.permutation(np.repeat(np.array([0, 1], dtype=np.int8), [s0, s1]))
                parts = stratified_three_split(labels, rng)
                assert sorted(np.concatenate(parts)) == list(range(s0 + s1))
                for cls, s in ((0, s0), (1, s1)):
                    sizes = [int((labels[part] == cls).sum()) for part in parts]
                    assert sizes == [s // 2, max(1, s // 4), s - s // 2 - max(1, s // 4)]
                    assert min(sizes) >= 1


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

    def test_too_few_rows(self):
        ds = small_h0_dataset(n=50)
        with pytest.raises(TooFewRows):
            ci_test(ds, TestConfig(seed=0))

    def test_needs_x_and_y(self):
        ds = small_h0_dataset()
        x_free = Dataset((), ds.y_cols, ds.z_cols, ds.data[:, ds.n_x :])
        with pytest.raises(SchemaMismatch):
            ci_test(x_free, TestConfig(seed=0))

    def test_dependent_categorical_data_decides_h1(self):
        """The mimic copies fit-fold y codes, so mimicked rows share y's codes
        and only x can tell them apart.  (A mimic that wrote codes plus noise
        would let y alone separate the rows, and the gap would be 0.)  This
        joint's exact population gap is about 0.16."""
        ds = sample_discrete(gen_discrete_joint((3, 3, 3), ci=False, seed=1), 6000, seed=2)
        rep = ci_test(ds, TestConfig(seed=3))
        assert rep.gap > 0.0
        assert rep.decision == "H1"

    def test_f1_error_invariant_to_x_permutation(self):
        """The no-x classifier's reported error cannot depend on x values."""
        ds = gen_postnonlinear(PostNonlinearConfig(d_z=3, n=300, ci=True, seed=6))
        rep = ci_test(ds, TestConfig(seed=7))
        scrambled = ds.data.copy()
        scrambled[:, 0] = scrambled[::-1, 0]
        ds2 = Dataset(ds.x_cols, ds.y_cols, ds.z_cols, scrambled)
        rep2 = ci_test(ds2, TestConfig(seed=7))
        assert rep.e1 == rep2.e1

    def test_f1_error_invariant_to_x_permutation_on_encoded_x(self):
        """As above, with a one-hot x of 3 levels and an ordinal x of 40
        codes in front of mixed z.  x's 2 columns encode to 4 features, so a
        (y, z) block cut from one encoding of every column at offset 2 would
        hand f1 x's last one-hot feature and the ordinal one."""
        rng = derive_rng(8, "encoded-x")
        n = 900
        x_hot, x_ord = rng.integers(0, 3, n), rng.integers(0, 40, n)
        z_c, z_cat = rng.standard_normal(n), rng.integers(0, 4, n)
        y = z_c + 0.5 * z_cat + 2.0 * ((x_hot == 2) + x_ord / 20.0 - 1.5) + rng.standard_normal(n)
        x_cols = (Column("x_0", "categorical", 3), Column("x_1", "categorical", 40))
        y_cols, z_cols = (Column("y_0"),), (Column("z_0"), Column("z_1", "categorical", 4))
        data = np.column_stack([x_hot, x_ord, y, z_c, z_cat])
        config = TestConfig(seed=9, gbt=GbtConfig(rounds=60))
        rep = ci_test(Dataset(x_cols, y_cols, z_cols, data), config)
        scrambled = data.copy()
        scrambled[:, :2] = scrambled[rng.permutation(n), :2]
        rep2 = ci_test(Dataset(x_cols, y_cols, z_cols, scrambled), config)
        assert rep.e1 == rep2.e1
        assert rep.e2 != rep2.e2  # x does reach f2

    def test_config_validation(self):
        for removed in ("mimic", "classifier", "mlp", "logreg", "vc_dim", "mimic_config", "tau"):
            with pytest.raises(TypeError):
                TestConfig(**{removed: None})
        for alpha in (0.0, 2.0, -0.5, float("nan"), None, True, "0.05"):
            with pytest.raises(ValueError):
                TestConfig(alpha=alpha)
        for seed in (7.5, 7.0, True, "7", None):
            with pytest.raises(ValueError):
                TestConfig(seed=seed)
        for rounds in (0, 2.5, True, "5"):
            with pytest.raises(ValueError):
                GbtConfig(rounds=rounds)
        for removed in ("max_depth", "learning_rate", "l2", "min_child_weight"):
            with pytest.raises(TypeError):
                GbtConfig(**{removed: 1})
        assert TestConfig(alpha=1.0).alpha == 1.0
        assert TestConfig(seed=np.int64(3)).seed == 3

    def test_settable_config_values_are_pinned(self):
        """Every leaf a ``--config`` file can set; a new knob must show up here."""

        def leaves(cfg, prefix=""):
            for f in dataclasses.fields(cfg):
                value = getattr(cfg, f.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value, f"{prefix}{f.name}.")
                else:
                    yield prefix + f.name

        assert sorted(leaves(TestConfig())) == ["alpha", "gbt.rounds", "seed"]

    def test_json_round_trip(self):
        import json

        ds = small_h0_dataset(seed=12)
        rep = ci_test(ds, TestConfig(seed=13))
        parsed = json.loads(rep.to_json())
        keys = {"e1", "e2", "gap", "n_s", "p_value", "tau", "decision", "seed", "split_sizes", "config"}
        assert set(parsed) == keys
