"""Benchmark harness: AUC, sweeps, relation driver."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.bench import (
    BenchmarkConfig,
    project_relation,
    roc_auc,
    run_benchmark,
    run_relations,
    write_scores_csv,
)
from ciforge.core import Column, Relation, derive_rng
from ciforge.classify import GbtConfig
from ciforge.errors import SchemaMismatch, SingleClass, UnknownColumn
from ciforge.testkit import TestConfig


def pairwise_auc(scores, labels):
    """O(n^2) oracle in exact rational arithmetic: count positive-negative
    pairs won, half for ties."""
    pos = [Fraction(s).limit_denominator(10**12) if isinstance(s, float) else Fraction(s) for s, l in zip(scores, labels) if l == 1]
    neg = [Fraction(s).limit_denominator(10**12) if isinstance(s, float) else Fraction(s) for s, l in zip(scores, labels) if l == 0]
    total = Fraction(0)
    for p in pos:
        for q in neg:
            if p > q:
                total += 1
            elif p == q:
                total += Fraction(1, 2)
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_all_tied_is_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_spec_examples(self):
        assert roc_auc([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 0]) == 1.0
        assert roc_auc([0.9, 0.7, 0.8, 0.6], [1, 1, 0, 0]) == 0.75

    def test_matches_pairwise_oracle_exactly(self):
        rng = derive_rng(0, "auc-oracle")
        for trial in range(50):
            n = int(rng.integers(2, 100))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n) * 8) / 8
            expect = float(pairwise_auc([Fraction(s) for s in scores], labels))
            assert roc_auc(scores, labels) == expect

    @given(shift=st.floats(min_value=-5, max_value=5), scale=st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_monotone_transform(self, shift, scale):
        rng = derive_rng(1, "auc-mono")
        scores = rng.random(30)
        labels = np.concatenate([np.ones(15, dtype=int), np.zeros(15, dtype=int)])
        base = roc_auc(scores, labels)
        assert roc_auc(scale * scores + shift, labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc_auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize(
        "scores, labels",
        [([0.1, 0.9, 0.5], [0, 1, 2]), ([0.1, 0.9, 0.5], [0, 1, -1]), ([0.1, 0.9, np.nan], [0, 1, 0])],
    )
    def test_bad_label_or_nan_score_rejected(self, scores, labels):
        with pytest.raises(ValueError):
            roc_auc(scores, labels)

    def test_bool_labels_and_infinite_scores_work(self):
        assert roc_auc([0.1, 0.9, 0.5], [False, True, False]) == 1.0
        assert roc_auc([-np.inf, np.inf, 0.5], [0, 1, 0]) == 1.0
        assert roc_auc([np.inf, np.inf, 0.2], [1, 0, 0]) == 0.75


def tiny_bench_config(**kw):
    defaults = dict(
        n_h0=2,
        n_h1=2,
        n=150,
        d_z=2,
        tester=TestConfig(seed=77, gbt=GbtConfig(rounds=20)),
    )
    defaults.update(kw)
    return BenchmarkConfig(**defaults)


class TestRunBenchmark:
    def test_rows_and_counts_match_config(self):
        rep = run_benchmark(tiny_bench_config())
        assert len(rep.rows) == 4
        truths = [r["truth"] for r in rep.rows]
        assert truths.count("CI") == 2 and truths.count("NOTCI") == 2
        assert rep.roc_auc is not None
        assert 0.0 <= rep.roc_auc <= 1.0

    def test_single_class_yields_null_auc(self):
        rep = run_benchmark(tiny_bench_config(n_h1=0, n_h0=3))
        assert len(rep.rows) == 3
        assert rep.roc_auc is None
        with pytest.raises(SingleClass):
            roc_auc([-r["p_value"] for r in rep.rows], [0, 0, 0])

    def test_deterministic_modulo_wall_clock(self):
        a = run_benchmark(tiny_bench_config())
        b = run_benchmark(tiny_bench_config())
        strip = lambda d: {**d, "rows": [{k: v for k, v in r.items() if k != "wall_clock_s"} for r in d["rows"]]}
        assert strip(a.to_dict()) == strip(b.to_dict())

    def test_parallel_matches_serial(self):
        serial = run_benchmark(tiny_bench_config())
        parallel = run_benchmark(tiny_bench_config(parallel=2))
        strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_clock_s"} for r in rows]
        assert strip(serial.rows) == strip(parallel.rows)
        assert serial.roc_auc == parallel.roc_auc

    def test_tester_seed_is_the_master_seed(self):
        a = run_benchmark(tiny_bench_config(tester=TestConfig(seed=5, gbt=GbtConfig(rounds=20))))
        b = run_benchmark(tiny_bench_config(tester=TestConfig(seed=99, gbt=GbtConfig(rounds=20))))
        assert [r["gap"] for r in a.rows] != [r["gap"] for r in b.rows]
        assert (a.config["tester"]["seed"], b.config["tester"]["seed"]) == (5, 99)
        assert "seed" not in a.config

    @pytest.mark.parametrize("parallel", [0, -3, True, 2.0])
    def test_bad_parallel_rejected(self, parallel):
        with pytest.raises(ValueError, match="parallel"):
            tiny_bench_config(parallel=parallel)

    def test_scores_csv(self, tmp_path):
        rep = run_benchmark(tiny_bench_config())
        out = tmp_path / "scores.csv"
        write_scores_csv(rep.rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "dataset_id,label,p_value"
        assert len(lines) == 5


def structural_table(seed, n=900):
    """u -> v -> w chain plus t = g(v, u): (u,w|v) is CI, (u,t|v) is not."""
    rng = derive_rng(seed, "structural")
    u = rng.standard_normal(n)
    v = np.tanh(u) + 0.3 * rng.standard_normal(n)
    w = v**2 + 0.3 * rng.standard_normal(n)
    t = v + 1.5 * u + 0.3 * rng.standard_normal(n)
    names = ["u", "v", "w", "t"]
    matrix = np.column_stack([u, v, w, t])
    cols = {nm: Column(nm) for nm in names}
    return names, matrix, cols


class TestRunRelations:
    def test_unknown_column_named(self):
        names, matrix, cols = structural_table(0)
        rels = [Relation(x="u", y="nope", z=("v",), label="CI")]
        with pytest.raises(UnknownColumn, match="nope"):
            run_relations(names, matrix, cols, rels, TestConfig(seed=0))

    def test_single_relation_row(self):
        names, matrix, cols = structural_table(1, n=240)
        rels = [Relation(x="u", y="w", z=("v",), label="CI")]
        rep = run_relations(names, matrix, cols, rels, TestConfig(seed=5))
        assert len(rep.rows) == 1
        assert rep.rows[0]["truth"] == "CI"
        assert rep.roc_auc is None  # single class

    def test_projection_builds_expected_schema(self):
        names, matrix, cols = structural_table(2, n=60)
        ds = project_relation(names, matrix, cols, Relation("u", "t", ("v", "w"), "NOTCI"))
        assert (ds.n_x, ds.n_y, ds.n_z) == (1, 1, 2)
        assert np.array_equal(ds.x_block()[:, 0], matrix[:, 0])
        assert np.array_equal(ds.y_block()[:, 0], matrix[:, 3])

    @pytest.mark.parametrize(
        "x, y, z",
        [("u", "u", ("v",)), ("u", "w", ("u",)), ("u", "w", ("w", "v")), ("u", "w", ("v", "v"))],
    )
    def test_column_named_twice_rejected(self, x, y, z):
        with pytest.raises(SchemaMismatch, match=f"relation {x},{y},"):
            Relation(x=x, y=y, z=z, label="CI")

    def test_empty_conditioning_set(self):
        names, matrix, cols = structural_table(3, n=240)
        rels = [Relation(x="u", y="t", z=(), label="NOTCI")]
        rep = run_relations(names, matrix, cols, rels, TestConfig(seed=6))
        assert len(rep.rows) == 1

