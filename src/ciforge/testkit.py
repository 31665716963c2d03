"""End-to-end conditional-independence test.

One call runs the whole pipeline: split the sample into thirds, fit a
mimic of q(y|z) on the second third's (y, z), rewrite the third third's
y column, label mimicked rows 0 and untouched first-third rows 1, encode the
pooled rows' x block and (y, z) block once each, train one boosted-tree
classifier on the (y, z) features and one on the x features followed by
them, both on a shared stratified train/validation/test split of the pool,
and decide from the difference of their test errors.  The mimic is the
nearest-neighbour bootstrap for every y kind: each rewritten row copies the
y row of a second-third row nearest to it in z, so real and mimicked rows
share y's columns and, on categorical z, the mimicked y follows the second
third's empirical p-hat(y|z).  On a continuous y the mimicked values are
second-third y values, so the test keeps CCIT's total-variation bound
rather than full support (see ``mimic``).

Both classifiers are scored on the same test rows, so e1 - e2 is the mean
of per-row loss differences, and the report's gap is exactly |e1 - e2|.
The p-value is the subgaussian tail 2 exp(-n gap^2 / 2) of that paired
statistic under a zero-mean null; it is conservative for trained (rather
than error-optimal) classifiers, whose null mean need not be exactly zero.
H1 is decided when the gap exceeds tau = sqrt(2 ln(2 / alpha) / n), where
that tail bound equals alpha; tau is derived from alpha, never set.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import classify
from .classify import FeatureEncoder, GbtConfig, classifier_error
from .core import DEFAULT_SEED, Dataset, derive_rng, require_number, split_three_way
from .errors import SchemaMismatch, TooFewRows
from .mimic import fit_reg_mimic, mimic_apply

#: Train/validation/test fractions of the classifiers' stratified split.
TVS = (0.5, 0.25, 0.25)


def child_seed(seed: int, label: str) -> int:
    """A stable 63-bit child seed for a named subsystem."""
    return int(derive_rng(seed, label).integers(2**63))


def gap_pvalue(gap: float, n_s: int) -> float:
    """Subgaussian tail bound for the paired error-difference statistic.

    Floored at the smallest positive normal float so the p-value stays in
    (0, 1] even when the exponent underflows.
    """
    if not 0.0 <= gap <= 1.0:
        raise ValueError(f"gap must lie in [0, 1], got {gap}")
    if n_s < 1:
        raise ValueError("n_s must be >= 1")
    return max(min(1.0, 2.0 * math.exp(-n_s * gap * gap / 2.0)), sys.float_info.min)


@dataclass(frozen=True)
class TestConfig:
    """Configuration for one conditional-independence test."""

    __test__ = False  # keep pytest from collecting the Test* name

    alpha: float = 0.05
    seed: int = DEFAULT_SEED
    gbt: GbtConfig = field(default_factory=GbtConfig)

    def __post_init__(self):
        if not 0.0 < require_number("alpha", self.alpha) <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        require_number("seed", self.seed, integer=True)


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test run, JSON-serializable with stable keys."""

    __test__ = False  # keep pytest from collecting the Test* name

    e1: float
    e2: float
    gap: float
    n_s: int
    p_value: float
    tau: float
    decision: str
    seed: int
    split_sizes: dict
    config: dict

    def __post_init__(self):
        if not 0.0 <= self.gap <= 1.0:
            raise AssertionError(f"gap outside [0, 1]: {self.gap}")
        if not 0.0 < self.p_value <= 1.0:
            raise AssertionError(f"p-value outside (0, 1]: {self.p_value}")
        if (self.decision == "H1") != (self.gap > self.tau):
            raise AssertionError("decision is inconsistent with gap > tau")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def stratified_three_split(labels: np.ndarray, rng: np.random.Generator):
    """Per-class shuffled index split in the ``TVS`` fractions: of a class of
    s >= 3 rows, floor(s/2) train, max(1, floor(s/4)) validate and the rest
    (at least one) test, so every part holds both classes."""
    f_t, f_v, _ = TVS
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < 3:
            raise TooFewRows(f"class {cls} has {idx.size} rows; need >= 3 to stratify")
        idx = idx[rng.permutation(idx.size)]
        n_t = int(np.floor(f_t * idx.size))
        n_v = max(1, int(np.floor(f_v * idx.size)))
        parts[0].append(idx[:n_t])
        parts[1].append(idx[n_t : n_t + n_v])
        parts[2].append(idx[n_t + n_v :])
    return tuple(np.concatenate(p) for p in parts)


def ci_test(ds: Dataset, config: TestConfig = TestConfig()) -> TestReport:
    """Run the full mimic-and-classify test on one dataset."""
    if ds.n_rows < 60:
        raise TooFewRows(f"test needs >= 60 rows, got {ds.n_rows}")
    if ds.n_x < 1 or ds.n_y < 1:
        raise SchemaMismatch("test needs at least one x and one y column")
    seed = config.seed

    d1, d2, d3 = (ds.take(rows) for rows in split_three_way(ds, seed))

    model = fit_reg_mimic(d2)
    d_prime = mimic_apply(model, d3, seed=child_seed(seed, "mimic-noise"))

    labels = np.concatenate([np.ones(d1.n_rows, dtype=np.int8), np.zeros(d_prime.n_rows, dtype=np.int8)])
    pool = np.vstack([d1.data, d_prime.data])
    # f1 sees only the (y, z) block's features; f2 sees x's before them, in
    # column order, as one encoder of every column would lay them out.
    f_yz = FeatureEncoder(ds.y_cols + ds.z_cols).transform(pool[:, ds.n_x :])
    f_xyz = np.hstack([FeatureEncoder(ds.x_cols).transform(pool[:, : ds.n_x]), f_yz])

    rng = derive_rng(seed, "tvt-split")
    idx_t, idx_v, idx_s = stratified_three_split(labels, rng)

    # Called through the module, so a tracer that patches the booster sees both fits.
    f1 = classify.fit_boosted_trees(f_yz[idx_t], labels[idx_t], f_yz[idx_v], labels[idx_v], config.gbt)
    f2 = classify.fit_boosted_trees(f_xyz[idx_t], labels[idx_t], f_xyz[idx_v], labels[idx_v], config.gbt)

    err1 = classifier_error(f1, f_yz[idx_s], labels[idx_s])
    err2 = classifier_error(f2, f_xyz[idx_s], labels[idx_s])
    # Paired statistic on the shared test rows: e1 - e2 is the mean of
    # per-row loss differences.  Taken from the reported rates, since the
    # quotient of the integer difference can differ from |e1 - e2| in the
    # last bit.
    gap = abs(err1.error_rate - err2.error_rate)

    n_s = err1.n_test
    tau = math.sqrt(2.0 * math.log(2.0 / config.alpha) / n_s)
    return TestReport(
        e1=err1.error_rate,
        e2=err2.error_rate,
        gap=gap,
        n_s=n_s,
        p_value=gap_pvalue(gap, n_s),
        tau=tau,
        decision="H1" if gap > tau else "H0",
        seed=seed,
        split_sizes={
            "d1": d1.n_rows,
            "d2": d2.n_rows,
            "d3": d3.n_rows,
            "train": idx_t.size,
            "val": idx_v.size,
            "test": idx_s.size,
        },
        config=asdict(config),
    )
