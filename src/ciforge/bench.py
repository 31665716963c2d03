"""Sweep runner, ROC-AUC, and the relation driver.

A sweep is a list of cases: the fields that name a row, a zero-argument
dataset maker and the ``TestConfig`` to test it with.  ``run_cases`` tests
them and returns one row per case with the same report fields; ``summarize``
gives a group of rows' rejections, mean H0 ``e1`` and p-value ROC-AUC (on
-p against NOTCI=1, since a lower p-value means stronger evidence of
dependence).  ``benchmark_cases`` builds a post-nonlinear sweep and
``relation_cases`` one case per row of a relation file, an (X, Y, Z-set,
label) test on the columns of one wide CSV; ``run_benchmark`` and
``run_relations`` run and score them.
"""

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from .core import Dataset, Relation, require_number
from .datagen import PostNonlinearConfig, gen_postnonlinear
from .errors import SingleClass, UnknownColumn
from .testkit import TestConfig, child_seed, ci_test


def _midranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (exact halves, so sums stay exact)."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # rank of each tie group's last member
    return (ends - 0.5 * (counts - 1))[inverse]


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties as 1/2.

    Rank-sum form of the pairwise comparison count; higher score must mean
    more positive.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.isin(y, (0, 1)).all() or np.isnan(s).any():
        raise ValueError("labels must be 0 or 1, and scores must not be NaN")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUC needs both a positive and a negative example")
    ranks = _midranks(s)
    pos_sum = float(ranks[y == 1].sum())
    return (pos_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class Case:
    """One test of a sweep; ``make`` must pickle to run in worker processes."""

    fields: dict
    make: Callable[[], Dataset]
    tester: TestConfig


def _require_parallel(parallel) -> int:
    """Return the worker-process count, an integer of at least 1."""
    if require_number("parallel", parallel, integer=True) < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    return parallel


def _run_case(case: Case) -> dict:
    ds = case.make()
    t0 = time.perf_counter()
    rep = ci_test(ds, case.tester)
    return {
        **case.fields,
        "decision": rep.decision,
        "p_value": rep.p_value,
        "gap": rep.gap,
        "e1": rep.e1,
        "e2": rep.e2,
        "wall_clock_s": time.perf_counter() - t0,
    }


def run_cases(cases: list[Case], parallel: int = 1) -> list[dict]:
    """One row per case, in case order; ``parallel`` > 1 runs them in worker processes."""
    if _require_parallel(parallel) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            return list(pool.map(_run_case, cases))
    return [_run_case(c) for c in cases]


def summarize(rows) -> dict:
    """A group of rows' rejections, mean H0 ``e1`` and p-value ROC-AUC (None for one class)."""
    h0 = [r for r in rows if r["truth"] == "CI"]
    h1 = [r for r in rows if r["truth"] == "NOTCI"]
    scores = np.array([-r["p_value"] for r in rows])
    labels = np.array([1 if r["truth"] == "NOTCI" else 0 for r in rows])
    try:
        auc = roc_auc(scores, labels)
    except SingleClass:
        auc = None
    return {
        "n_h0": len(h0),
        "h0_reject": sum(r["decision"] == "H1" for r in h0),
        "n_h1": len(h1),
        "h1_reject": sum(r["decision"] == "H1" for r in h1),
        "mean_h0_e1": sum(r["e1"] for r in h0) / len(h0) if h0 else None,
        "roc_auc": auc,
    }


@dataclass(frozen=True)
class BenchmarkConfig:
    """A post-nonlinear sweep: n_h0 independent + n_h1 dependent datasets,
    each generated and tested with child seeds of ``tester.seed``."""

    n_h0: int
    n_h1: int
    n: int = 1000
    d_z: int = 5
    a_xy: float = 2.0
    tester: TestConfig = field(default_factory=TestConfig)
    parallel: int = 1

    def __post_init__(self):
        for name in ("n_h0", "n_h1", "n", "d_z"):
            require_number(name, getattr(self, name), integer=True)
        require_number("a_xy", self.a_xy)
        if self.n_h0 < 0 or self.n_h1 < 0 or self.n_h0 + self.n_h1 < 2:
            raise ValueError("need at least 2 datasets")
        _require_parallel(self.parallel)


@dataclass(frozen=True)
class BenchmarkReport:
    rows: tuple[dict, ...]
    roc_auc: float | None
    config: dict

    def to_dict(self) -> dict:
        return {"rows": list(self.rows), "roc_auc": self.roc_auc, "config": self.config}


def benchmark_cases(config: BenchmarkConfig) -> list[Case]:
    """The sweep's cases: data and tester seeded with child seeds of ``config.tester.seed``."""
    base = PostNonlinearConfig(d_z=config.d_z, n=config.n, ci=True, a_xy=config.a_xy)
    cases = []
    for i in range(config.n_h0 + config.n_h1):
        ci = i < config.n_h0
        pnl = replace(base, ci=ci, seed=child_seed(config.tester.seed, f"bench-data-{i}"))
        fields = {"dataset_id": i, "truth": "CI" if ci else "NOTCI"}
        tester = replace(config.tester, seed=child_seed(config.tester.seed, f"bench-test-{i}"))
        cases.append(Case(fields, partial(gen_postnonlinear, pnl), tester))
    return cases


def run_benchmark(config: BenchmarkConfig) -> BenchmarkReport:
    """Generate, test, and score a full sweep; deterministic given the seed."""
    cases = benchmark_cases(config)
    if config.n_h1:
        # The H0 cases come first; an a_xy that overflows the dependent
        # equation is refused here, before any of their tests run.
        cases[config.n_h0].make()
    rows = run_cases(cases, config.parallel)
    return BenchmarkReport(rows=tuple(rows), roc_auc=summarize(rows)["roc_auc"], config=asdict(config))


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


def relation_cases(
    names, matrix: np.ndarray, cols: dict, relations: list[Relation], tester: TestConfig
) -> list[Case]:
    """One case per relation row, its tester seeded with a child seed of ``tester.seed``."""
    return [
        Case(
            {"dataset_id": i, "relation": {"x": rel.x, "y": rel.y, "z": list(rel.z)}, "truth": rel.label},
            partial(project_relation, names, matrix, cols, rel),
            replace(tester, seed=child_seed(tester.seed, f"relation-{i}")),
        )
        for i, rel in enumerate(relations)
    ]


def run_relations(
    names, matrix: np.ndarray, cols: dict, relations: list[Relation], tester: TestConfig
) -> BenchmarkReport:
    """Run the test on every relation row and score against its labels."""
    rows = run_cases(relation_cases(names, matrix, cols, relations, tester))
    cfg_echo = {"tester": asdict(tester), "n_relations": len(relations)}
    return BenchmarkReport(rows=tuple(rows), roc_auc=summarize(rows)["roc_auc"], config=cfg_echo)


def write_scores_csv(rows, path) -> None:
    """(dataset_id, label, p_value) lines of sweep rows, for external plotting."""
    lines = ["dataset_id,label,p_value"]
    for r in rows:
        lines.append(f"{r['dataset_id']},{r['truth']},{r['p_value']!r}")
    Path(path).write_text("\n".join(lines) + "\n")
