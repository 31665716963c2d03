"""Synthetic benchmark generators.

Two families:

* ``gen_postnonlinear`` draws the continuous post-nonlinear-noise data used
  by the benchmark sweeps: X and Y are random nonlinear functions of linear
  projections of a Gaussian Z, with Y optionally receiving an additive X
  term under the dependent ground truth.
* ``gen_discrete_joint`` / ``sample_discrete`` build exact small pmfs over
  finite alphabets, the ground-truth measures that the oracle module checks
  to machine precision, plus iid samples from them.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .core import Column, Dataset, derive_rng, require_number
from .errors import SizeOutOfRange

NONLINEARITIES = ("identity", "square", "cube", "tanh", "expneg")

# Variance of the additive Gaussian noise on both post-nonlinear equations.
NOISE_VAR = 0.25

# exp(-x) inputs are clamped to this window to avoid float overflow; the
# clamp applies identically under both ground truths.
_EXP_CLAMP = 10.0


def _apply_nonlinearity(name: str, v: np.ndarray) -> np.ndarray:
    if name == "identity":
        return v
    if name == "square":
        return v**2
    if name == "cube":
        return v**3
    if name == "tanh":
        return np.tanh(v)
    if name == "expneg":
        return np.exp(-np.clip(v, -_EXP_CLAMP, _EXP_CLAMP))
    raise ValueError(f"unknown nonlinearity {name!r}")


@dataclass(frozen=True)
class PostNonlinearConfig:
    """Parameters of the post-nonlinear generator."""

    d_z: int
    n: int
    ci: bool
    a_xy: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("d_z", "n"):
            if require_number(name, getattr(self, name), integer=True) < 1:
                raise ValueError(f"{name} must be >= 1")
        # Written so that NaN fails: every comparison with it is False.  An
        # int compares exactly, so one past the float range fails too.
        if not abs(require_number("a_xy", self.a_xy)) <= sys.float_info.max:
            raise ValueError(f"a_xy must be finite, got {self.a_xy!r}")
        require_number("seed", self.seed, integer=True)
        if not isinstance(self.ci, bool):
            raise ValueError(f"ci must be a bool, got {self.ci!r}")


def _pnl_draws(cfg: PostNonlinearConfig):
    """All random ingredients of one post-nonlinear dataset.

    Split out so tests can check the pieces (noise variance, function set)
    against the assembled output.
    """
    rng = derive_rng(cfg.seed, "postnonlinear")
    std = float(np.sqrt(NOISE_VAR))
    z = rng.standard_normal((cfg.n, cfg.d_z))
    a_x = rng.standard_normal(cfg.d_z) / np.sqrt(cfg.d_z)
    a_y = rng.standard_normal(cfg.d_z) / np.sqrt(cfg.d_z)
    eta1 = std * rng.standard_normal(cfg.n)
    eta2 = std * rng.standard_normal(cfg.n)
    f1, f2 = rng.choice(NONLINEARITIES, size=2)
    return z, a_x, a_y, eta1, eta2, str(f1), str(f2)


def gen_postnonlinear(cfg: PostNonlinearConfig) -> Dataset:
    """Draw one post-nonlinear dataset with d_x = d_y = 1.

    Z has iid standard normal coordinates.  The projection vectors are drawn
    once per dataset with N(0, 1/d_z) entries so the signal variance does
    not grow with dimension.  Under ``cfg.ci`` the y equation never sees x,
    so x and y are conditionally independent given z by construction.
    """
    z, a_x, a_y, eta1, eta2, f1, f2 = _pnl_draws(cfg)
    x = _apply_nonlinearity(f1, z @ a_x + eta1)
    if cfg.ci:
        y = _apply_nonlinearity(f2, z @ a_y + eta2)
    else:
        # tanh and expneg map an infinite argument to a finite y, so both
        # sides of the nonlinearity are checked.
        with np.errstate(over="ignore", invalid="ignore"):
            v = z @ a_y + cfg.a_xy * x + eta2
            y = _apply_nonlinearity(f2, v)
        if not (np.isfinite(v).all() and np.isfinite(y).all()):
            raise ValueError(f"a_xy = {cfg.a_xy!r} overflows the dependent y equation")
    data = np.column_stack([x, y, z])
    x_cols = (Column("x_0"),)
    y_cols = (Column("y_0"),)
    z_cols = tuple(Column(f"z_{i}") for i in range(cfg.d_z))
    return Dataset(x_cols, y_cols, z_cols, data)


@dataclass(frozen=True)
class DiscreteJoint:
    """Exact pmf over the finite cube X-alphabet x Y-alphabet x Z-alphabet."""

    sizes: tuple[int, int, int]
    pmf: np.ndarray

    def __post_init__(self):
        p = np.array(self.pmf, dtype=np.float64, copy=True)
        p.setflags(write=False)
        object.__setattr__(self, "pmf", p)
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if p.shape != self.sizes:
            raise ValueError(f"pmf shape {p.shape} does not match sizes {self.sizes}")
        # Written so that NaN fails both tests; an infinite entry fails the sum.
        if not (p >= 0).all():
            raise ValueError("pmf has negative or NaN entries")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise ValueError(f"pmf sums to {p.sum()!r}, not 1")

    def p_z(self) -> np.ndarray:
        return self.pmf.sum(axis=(0, 1))

    def p_xz(self) -> np.ndarray:
        return self.pmf.sum(axis=1)

    def p_yz(self) -> np.ndarray:
        return self.pmf.sum(axis=0)


def gen_discrete_joint(sizes, ci: bool, seed: int) -> DiscreteJoint:
    """Random joint over small alphabets, exactly CI when requested.

    CI instances are assembled as p(z) p(y|z) p(x|z) from independent
    Dirichlet(1) draws, so the factorization holds to machine precision.
    Generic instances are one Dirichlet(1) draw over the full cube.
    """
    sizes = tuple(int(require_number("sizes", s, integer=True)) for s in sizes)
    if len(sizes) != 3 or any(s < 2 or s > 6 for s in sizes):
        raise SizeOutOfRange(f"alphabet sizes must each be in [2, 6], got {sizes}")
    if not isinstance(ci, bool):
        raise ValueError(f"ci must be a bool, got {ci!r}")
    rng = derive_rng(require_number("seed", seed, integer=True), "discrete-joint")
    nx, ny, nz = sizes
    if ci:
        p_z = rng.dirichlet(np.ones(nz))
        p_y_given_z = rng.dirichlet(np.ones(ny), size=nz).T  # (ny, nz)
        p_x_given_z = rng.dirichlet(np.ones(nx), size=nz).T  # (nx, nz)
        pmf = p_x_given_z[:, None, :] * p_y_given_z[None, :, :] * p_z[None, None, :]
    else:
        pmf = rng.dirichlet(np.ones(nx * ny * nz)).reshape(sizes)
    pmf = pmf / pmf.sum()
    return DiscreteJoint(sizes, pmf)


def sample_discrete(joint: DiscreteJoint, n: int, seed: int) -> Dataset:
    """n iid draws from the joint, returned as three categorical columns."""
    if require_number("n", n, integer=True) < 1:
        raise ValueError("n must be >= 1")
    rng = derive_rng(require_number("seed", seed, integer=True), "discrete-sample")
    flat = joint.pmf.ravel()
    draws = rng.choice(flat.size, size=n, p=flat)
    xi, yi, zi = np.unravel_index(draws, joint.sizes)
    data = np.column_stack([xi, yi, zi]).astype(np.float64)
    nx, ny, nz = joint.sizes
    return Dataset(
        (Column("x_0", "categorical", nx),),
        (Column("y_0", "categorical", ny),),
        (Column("z_0", "categorical", nz),),
        data,
    )
