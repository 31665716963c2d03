"""End-to-end conditional-independence test.

One call runs the whole pipeline: split the sample into thirds, fit the
regression mimic on the second third's (y, z), rewrite the third third's
y column, label mimicked rows 0 and untouched first-third rows 1, train one
boosted-tree classifier without x and one with x on a shared stratified
train/validation/test split, and decide from the difference of their test
errors.

Both classifiers are scored on the same test rows, so the gap is the mean
of per-row loss differences and is identical (bit-exactly) to |e1 - e2|.
The p-value is the subgaussian tail 2 exp(-n gap^2 / 2) of that paired
statistic under a zero-mean null; it is conservative for trained (rather
than error-optimal) classifiers, whose null mean need not be exactly zero.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .classify import GbtConfig, classifier_error, gbt_train
from .core import (
    DEFAULT_SEED,
    Dataset,
    LabeledDataset,
    concat,
    derive_rng,
    split_three_way,
    strip_x,
)
from .errors import SchemaMismatch, TooFewRows
from .mimic import MimicConfig, fit_reg_mimic, mimic_apply


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

    alpha: float | None = 0.05
    tau: float | None = None
    seed: int = DEFAULT_SEED
    tvs: tuple[float, float, float] = (0.5, 0.25, 0.25)
    mimic_config: MimicConfig = field(default_factory=MimicConfig)
    gbt: GbtConfig = field(default_factory=GbtConfig)

    def __post_init__(self):
        if self.alpha is None and self.tau is None:
            raise ValueError("one of alpha or tau must be given")
        if self.alpha is not None and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.tau is not None and not self.tau >= 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if abs(sum(self.tvs) - 1.0) > 1e-9 or any(f <= 0 for f in self.tvs):
            raise ValueError("tvs fractions must be positive and sum to 1")


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


def stratified_three_split(labels: np.ndarray, fractions, rng: np.random.Generator):
    """Per-class shuffled index split; every part holds both classes."""
    f_t, f_v, _ = fractions
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in (0, 1):
        idx = np.nonzero(labels == cls)[0]
        if idx.size < 3:
            raise TooFewRows(f"class {cls} has {idx.size} rows; need >= 3 to stratify")
        idx = idx[rng.permutation(idx.size)]
        n_t = max(1, int(np.floor(f_t * idx.size)))
        n_v = max(1, int(np.floor(f_v * idx.size)))
        if n_t + n_v >= idx.size:
            n_t, n_v = idx.size - 2, 1
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

    plan = split_three_way(ds, seed)
    d1 = ds.take(plan.thirds[0])
    d2 = ds.take(plan.thirds[1])
    d3 = ds.take(plan.thirds[2])

    model = fit_reg_mimic(d2, config.mimic_config, seed=child_seed(seed, "mimic-fit"))
    d_prime = mimic_apply(model, d3, seed=child_seed(seed, "mimic-noise"))

    # The mimic decides the y column kinds (it emits a categorical y as
    # continuous unless it samples codes), and d1 takes them over.
    d1 = replace(d1, y_cols=d_prime.y_cols)
    labeled = concat(
        LabeledDataset(d1, np.ones(d1.n_rows, dtype=np.int8)),
        LabeledDataset(d_prime, np.zeros(d_prime.n_rows, dtype=np.int8)),
    )

    rng = derive_rng(seed, "tvt-split")
    idx_t, idx_v, idx_s = stratified_three_split(labeled.labels, config.tvs, rng)
    part_t, part_v, part_s = labeled.take(idx_t), labeled.take(idx_v), labeled.take(idx_s)

    f1 = gbt_train(strip_x(part_t), strip_x(part_v), config.gbt)
    f2 = gbt_train(part_t, part_v, config.gbt)

    err1 = classifier_error(f1, strip_x(part_s))
    err2 = classifier_error(f2, part_s)
    # Paired statistic on the shared test rows: mean of per-row loss
    # differences.  Integer loss sums make this bit-identical to |e1 - e2|.
    diff = err1.losses.astype(np.int64) - err2.losses.astype(np.int64)
    gap = abs(float(diff.sum()) / err1.n_test)

    n_s = err1.n_test
    tau = config.tau if config.tau is not None else math.sqrt(2.0 * math.log(2.0 / config.alpha) / n_s)
    p_value = gap_pvalue(gap, n_s)
    cfg_echo = asdict(config)
    return TestReport(
        e1=err1.error_rate,
        e2=err2.error_rate,
        gap=gap,
        n_s=n_s,
        p_value=p_value,
        tau=float(tau),
        decision="H1" if gap > tau else "H0",
        seed=seed,
        split_sizes={
            "d1": d1.n_rows,
            "d2": d2.n_rows,
            "d3": d3.n_rows,
            "train": part_t.n_rows,
            "val": part_v.n_rows,
            "test": part_s.n_rows,
        },
        config=cfg_echo,
    )
