"""Benchmark harness: dataset sweeps, ROC-AUC, and the relation driver.

A sweep generates labeled H0/H1 datasets, runs the conditional-independence
test on each, and scores how well the p-values rank dependent datasets
below independent ones.  Lower p-value means stronger evidence of
dependence, so the AUC is computed on -p against the NOTCI=1 labels.

The relation driver covers user-supplied real data: one wide CSV of named
columns plus a relation file whose rows each name an (X, Y, Z-set, label)
test to run on the projected columns.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .core import Dataset, Relation, require_number
from .datagen import PostNonlinearConfig, gen_postnonlinear
from .errors import SingleClass, UnknownColumn
from .testkit import TestConfig, child_seed, ci_test


def _midranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (exact halves, so sums stay exact)."""
    order = np.argsort(v, kind="mergesort")
    sv = v[order]
    ranks = np.empty(v.size)
    i = 0
    while i < v.size:
        j = i
        while j + 1 < v.size and sv[j + 1] == sv[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties as 1/2.

    Rank-sum form of the pairwise comparison count; higher score must mean
    more positive.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs both a positive and a negative example")
    ranks = _midranks(s)
    pos_sum = float(ranks[y == 1].sum())
    return (pos_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class BenchmarkConfig:
    """A post-nonlinear sweep: n_h0 independent + n_h1 dependent datasets,
    each generated and tested with child seeds of ``tester.seed``."""

    n_h0: int
    n_h1: int
    n: int = 1000
    d_z: int = 5
    a_xy: float = 2.0
    noise_var: float = 0.25
    tester: TestConfig = field(default_factory=TestConfig)
    parallel: int = 1

    def __post_init__(self):
        for name in ("n_h0", "n_h1", "n", "d_z", "parallel"):
            require_number(name, getattr(self, name), integer=True)
        for name in ("a_xy", "noise_var"):
            require_number(name, getattr(self, name))
        if self.n_h0 < 0 or self.n_h1 < 0 or self.n_h0 + self.n_h1 < 2:
            raise ValueError("need at least 2 datasets")
        if self.parallel < 1:
            raise ValueError(f"parallel must be >= 1, got {self.parallel}")


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[dict, ...]
    roc_auc: float | None
    config: dict

    def to_dict(self, include_wall_clock: bool = True) -> dict:
        rows = self.rows
        if not include_wall_clock:
            rows = tuple({k: v for k, v in r.items() if k != "wall_clock_s"} for r in rows)
        return {"rows": list(rows), "roc_auc": self.roc_auc, "config": self.config}

    def to_json(self, include_wall_clock: bool = True) -> str:
        return json.dumps(self.to_dict(include_wall_clock), sort_keys=True)


def _bench_row(args) -> dict:
    i, ci, cfg = args
    pnl = PostNonlinearConfig(
        d_z=cfg.d_z,
        n=cfg.n,
        ci=ci,
        a_xy=cfg.a_xy,
        noise_var=cfg.noise_var,
        seed=child_seed(cfg.tester.seed, f"bench-data-{i}"),
    )
    ds = gen_postnonlinear(pnl)
    tester = replace(cfg.tester, seed=child_seed(cfg.tester.seed, f"bench-test-{i}"))
    t0 = time.perf_counter()
    rep = ci_test(ds, tester)
    return {
        "dataset_id": i,
        "truth": "CI" if ci else "NOTCI",
        "p_value": rep.p_value,
        "gap": rep.gap,
        "decision": rep.decision,
        "wall_clock_s": time.perf_counter() - t0,
    }


def _auc_or_none(rows) -> float | None:
    scores = np.array([-r["p_value"] for r in rows])
    labels = np.array([1 if r["truth"] == "NOTCI" else 0 for r in rows])
    try:
        return roc_auc(scores, labels)
    except SingleClass:
        return None


def run_benchmark(config: BenchmarkConfig) -> BenchmarkReport:
    """Generate, test, and score a full sweep; deterministic given the seed."""
    jobs = [(i, i < config.n_h0, config) for i in range(config.n_h0 + config.n_h1)]
    if config.parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.parallel) as pool:
            rows = list(pool.map(_bench_row, jobs))
    else:
        rows = [_bench_row(j) for j in jobs]
    cfg_echo = asdict(config)
    return BenchmarkReport(rows=tuple(rows), roc_auc=_auc_or_none(rows), config=cfg_echo)


def project_relation(names, matrix: np.ndarray, cols: dict, rel: Relation) -> Dataset:
    """Build the (x, y, z...) dataset a relation row asks for."""
    for name in (rel.x, rel.y, *rel.z):
        if name not in cols:
            raise UnknownColumn(f"relation references unknown column {name!r}")
    index = {n: j for j, n in enumerate(names)}

    x_cols = (replace(cols[rel.x], name="x_0"),)
    y_cols = (replace(cols[rel.y], name="y_0"),)
    z_cols = tuple(replace(cols[zn], name=f"z_{i}") for i, zn in enumerate(rel.z))
    take = [index[rel.x], index[rel.y], *[index[zn] for zn in rel.z]]
    return Dataset(x_cols, y_cols, z_cols, matrix[:, take])


def run_relations(
    names, matrix: np.ndarray, cols: dict, relations: list[Relation], tester: TestConfig
) -> BenchmarkReport:
    """Run the test on every relation row, seeded from ``tester.seed``, and score against its labels."""
    rows = []
    for i, rel in enumerate(relations):
        ds = project_relation(names, matrix, cols, rel)
        t0 = time.perf_counter()
        rep = ci_test(ds, replace(tester, seed=child_seed(tester.seed, f"relation-{i}")))
        rows.append(
            {
                "dataset_id": i,
                "relation": {"x": rel.x, "y": rel.y, "z": list(rel.z)},
                "truth": rel.label,
                "p_value": rep.p_value,
                "gap": rep.gap,
                "decision": rep.decision,
                "wall_clock_s": time.perf_counter() - t0,
            }
        )
    cfg_echo = {"tester": asdict(tester), "n_relations": len(relations)}
    return BenchmarkReport(rows=tuple(rows), roc_auc=_auc_or_none(rows), config=cfg_echo)


def write_scores_csv(report: BenchmarkReport, path) -> None:
    """(dataset_id, label, p_value) rows for external plotting."""
    lines = ["dataset_id,label,p_value"]
    for r in report.rows:
        lines.append(f"{r['dataset_id']},{r['truth']},{r['p_value']!r}")
    Path(path).write_text("\n".join(lines) + "\n")
