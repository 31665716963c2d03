"""Datasets, splits, and the CSV interfaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.core import (
    Column,
    Dataset,
    LabeledDataset,
    derive_rng,
    drop_x,
    read_dataset,
    read_relations,
    read_table,
    split_three_way,
    strip_x,
    write_dataset,
)
from ciforge.errors import SchemaMismatch, TooFewRows


def make_dataset(n=12, n_x=1, n_y=1, n_z=5, seed=0, categorical_z=False):
    rng = derive_rng(seed, "test-dataset")
    x_cols = tuple(Column(f"x_{i}") for i in range(n_x))
    y_cols = tuple(Column(f"y_{i}") for i in range(n_y))
    if categorical_z:
        z_cols = tuple(Column(f"z_{i}", "categorical", 3) for i in range(n_z))
        z = rng.integers(0, 3, size=(n, n_z)).astype(float)
    else:
        z_cols = tuple(Column(f"z_{i}") for i in range(n_z))
        z = rng.standard_normal((n, n_z))
    data = np.hstack([rng.standard_normal((n, n_x + n_y)), z])
    return Dataset(x_cols, y_cols, z_cols, data)


class TestSplitThreeWay:
    def test_nine_rows_gives_equal_thirds(self):
        plan = split_three_way(make_dataset(n=9), seed=1)
        sizes = [len(t) for t in plan.thirds]
        assert sizes == [3, 3, 3]
        union = np.concatenate(plan.thirds)
        assert sorted(union) == list(range(9))

    def test_ten_rows_remainder_goes_to_first_set(self):
        plan = split_three_way(make_dataset(n=10), seed=1)
        assert [len(t) for t in plan.thirds] == [4, 3, 3]

    def test_eleven_rows_remainder_first_then_second(self):
        plan = split_three_way(make_dataset(n=11), seed=1)
        assert [len(t) for t in plan.thirds] == [4, 4, 3]

    def test_deterministic(self):
        ds = make_dataset(n=600)
        a = split_three_way(ds, seed=7)
        b = split_three_way(ds, seed=7)
        for ta, tb in zip(a.thirds, b.thirds):
            assert np.array_equal(ta, tb)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            split_three_way(make_dataset(n=8), seed=0)

    @given(n=st.integers(min_value=9, max_value=400), seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=50, deadline=None)
    def test_partition_property(self, n, seed):
        """Disjoint thirds covering all rows, sizes within the remainder rule."""
        plan = split_three_way(make_dataset(n=n, n_z=1), seed=seed)
        union = np.concatenate(plan.thirds)
        assert len(union) == n
        assert len(np.unique(union)) == n
        sizes = sorted(len(t) for t in plan.thirds)
        assert sizes[-1] - sizes[0] <= 1
        assert len(plan.thirds[2]) == n // 3


class TestStripX:
    def test_drops_only_x(self):
        ds = make_dataset(n=10, n_x=1, n_y=1, n_z=5)
        labeled = LabeledDataset(ds, np.arange(10) % 2)
        out = strip_x(labeled)
        assert out.base.n_x == 0
        assert out.base.n_y == 1 and out.base.n_z == 5
        assert np.array_equal(out.labels, labeled.labels)
        assert np.array_equal(out.base.y_block(), ds.y_block())
        assert np.array_equal(out.base.z_block(), ds.z_block())

    def test_identity_without_x(self):
        ds = drop_x(make_dataset(n=10))
        labeled = LabeledDataset(ds, np.ones(10, dtype=int))
        out = strip_x(labeled)
        assert out.base.columns == ds.columns
        assert np.array_equal(out.base.data, ds.data)

    def test_row_count_preserved(self):
        ds = make_dataset(n=37)
        out = strip_x(LabeledDataset(ds, np.zeros(37, dtype=int) + 1))
        assert out.n_rows == 37

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_commutes_with_row_subsetting(self, seed):
        ds = make_dataset(n=20, seed=seed)
        labeled = LabeledDataset(ds, (np.arange(20) % 2).astype(int))
        rows = derive_rng(seed, "rows").choice(20, size=7, replace=False)
        a = strip_x(labeled).take(rows)
        b = strip_x(labeled.take(rows))
        assert np.array_equal(a.base.data, b.base.data)
        assert np.array_equal(a.labels, b.labels)


class TestDatasetValidation:
    def test_rejects_nan(self):
        data = np.zeros((3, 2))
        data[1, 0] = np.nan
        with pytest.raises(SchemaMismatch):
            Dataset((Column("x_0"),), (Column("y_0"),), (), data)

    def test_rejects_bad_categorical_codes(self):
        data = np.array([[0.0, 5.0], [1.0, 1.0]])
        with pytest.raises(SchemaMismatch):
            Dataset((Column("x_0"),), (Column("y_0", "categorical", 3),), (), data)

    def test_rejects_fractional_codes(self):
        data = np.array([[0.0, 0.5]])
        with pytest.raises(SchemaMismatch):
            Dataset((Column("x_0"),), (Column("y_0", "categorical", 3),), (), data)

    def test_data_is_readonly(self):
        ds = make_dataset()
        with pytest.raises(ValueError):
            ds.data[0, 0] = 1.0

    def test_categorical_descriptor_needs_cardinality(self):
        with pytest.raises(SchemaMismatch):
            Column("z_0", "categorical")


class TestCsvRoundTrip:
    def test_bit_exact_roundtrip(self, tmp_path):
        ds = make_dataset(n=25, n_z=3, categorical_z=True, seed=5)
        csv = tmp_path / "d.csv"
        side = tmp_path / "d.csv.meta.json"
        write_dataset(ds, csv, side)
        back = read_dataset(csv, side)
        assert back.columns == ds.columns
        assert np.array_equal(back.data, ds.data)

    def test_absent_sidecar_means_continuous(self, tmp_path):
        ds = make_dataset(n=5, n_z=2)
        csv = tmp_path / "d.csv"
        write_dataset(ds, csv)
        back = read_dataset(csv)
        assert all(c.kind == "continuous" for c in back.columns)

    def test_unprefixed_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x_0,foo\n1.0,2.0\n")
        with pytest.raises(SchemaMismatch):
            read_dataset(p)

    def test_read_table_keeps_names(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("praf,pmek,plcg\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        names, matrix, cols = read_table(p)
        assert names == ["praf", "pmek", "plcg"]
        assert matrix.shape == (2, 3)
        assert cols["pmek"].kind == "continuous"


class TestRelationFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "rel.csv"
        p.write_text("X,Y,Z,label\na,b,c;d,CI\na,e,,NOTCI\n")
        rels = read_relations(p)
        assert rels[0].z == ("c", "d")
        assert rels[1].z == ()
        assert [r.label for r in rels] == ["CI", "NOTCI"]

    def test_bad_label_rejected(self, tmp_path):
        p = tmp_path / "rel.csv"
        p.write_text("X,Y,Z,label\na,b,c,MAYBE\n")
        with pytest.raises(SchemaMismatch):
            read_relations(p)


def test_derive_rng_streams():
    a = derive_rng(1, "alpha").standard_normal(4)
    b = derive_rng(1, "alpha").standard_normal(4)
    c = derive_rng(1, "beta").standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_every_public_name_resolves():
    import ciforge

    assert len(set(ciforge.__all__)) == len(ciforge.__all__)
    for name in ciforge.__all__:
        assert getattr(ciforge, name) is not None, name
