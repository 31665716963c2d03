"""Conditional-independence testing by mimicking and classifying.

Decide whether x is independent of y given z from samples alone: fit a
conditional generator q(y|z) on one fold, rewrite another fold's y column
with it, and compare a classifier that sees (x, y, z) against one that
sees only (y, z).  If x helps separate real rows from rewritten rows, the
joint cannot factor as p(z) p(y|z) p(x|z).

The ``oracle`` module carries exact finite-alphabet counterparts of every
population quantity the test relies on, verified to machine precision by
the ``verify`` battery.
"""

from .bench import BenchmarkConfig, BenchmarkReport, roc_auc, run_benchmark, run_relations
from .classify import GbtConfig, classifier_error, gbt_train
from .core import (
    Column,
    DEFAULT_SEED,
    Dataset,
    LabeledDataset,
    Relation,
    SplitPlan,
    read_dataset,
    read_relations,
    read_table,
    split_three_way,
    strip_x,
    write_dataset,
)
from .datagen import (
    DiscreteJoint,
    PostNonlinearConfig,
    gen_discrete_joint,
    gen_postnonlinear,
    sample_discrete,
)
from .mimic import MimicConfig, MimicModel, fit_reg_mimic, mimic_apply
from .nn import MlpConfig, mlp_grad_check, mlp_train
from .oracle import (
    DiscreteDist,
    GapReport,
    bayes_error,
    ci_projection,
    coupling_overlap,
    coupling_overlap_table,
    gap_report,
    is_ci,
    run_verify,
    tv_distance,
    uniform_mimic_bound,
)
from .testkit import TestConfig, TestReport, ci_test, gap_pvalue

__version__ = "0.1.0"

__all__ = [
    "BenchmarkConfig",
    "BenchmarkReport",
    "Column",
    "DEFAULT_SEED",
    "Dataset",
    "DiscreteDist",
    "DiscreteJoint",
    "GapReport",
    "GbtConfig",
    "LabeledDataset",
    "MimicConfig",
    "MimicModel",
    "MlpConfig",
    "PostNonlinearConfig",
    "Relation",
    "SplitPlan",
    "TestConfig",
    "TestReport",
    "bayes_error",
    "ci_projection",
    "ci_test",
    "classifier_error",
    "coupling_overlap",
    "coupling_overlap_table",
    "fit_reg_mimic",
    "gap_pvalue",
    "gap_report",
    "gbt_train",
    "gen_discrete_joint",
    "gen_postnonlinear",
    "is_ci",
    "mimic_apply",
    "mlp_grad_check",
    "mlp_train",
    "read_dataset",
    "read_relations",
    "read_table",
    "roc_auc",
    "run_benchmark",
    "run_relations",
    "run_verify",
    "sample_discrete",
    "split_three_way",
    "strip_x",
    "tv_distance",
    "uniform_mimic_bound",
    "write_dataset",
]
