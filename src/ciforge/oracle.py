"""Exact computations on finite discrete joints.

Everything here is closed-form arithmetic on pmfs, no sampling: total
variation distance, the error of the best possible classifier between two
known distributions, per-cell maximal-coupling overlap between the two
x-conditionals, the CI projection p(z)p(y|z)p(x|z), and the identities and
inequalities that connect them.  These are the ground truths the sampled
test statistic is calibrated against, so tolerances are machine-precision:
1e-14 for algebraic identities, 1e-12 for multi-term sums, 1e-9 for
"nonzero" assertions.

The gap quantity returned by :func:`gap_report` is the population value of
twice the absolute difference between the two classification errors in the
mimic-and-classify scheme: TV(joint, mimic-joint) - TV of the (y,z)
marginals.  Two per-cell envelopes built from the coupling overlap of the
x-conditionals pinch it from both sides and collapse onto it when the
mimic conditional equals the true one; see :class:`GapReport`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import derive_rng, require_number
from .datagen import DiscreteJoint, gen_discrete_joint
from .errors import InvalidConditional, SupportMismatch

IDENTITY_TOL = 1e-14
SUM_TOL = 1e-12
NONZERO_TOL = 1e-9
# Largest alphabet size of the verify battery's random joints (each size 2..MAX_SIZE).
MAX_SIZE = 4
# How many random cases each section of the verify battery draws.
N_PAIRS = 1000
N_GAP_JOINTS = 500
N_CI = 100
N_DEP = 100
N_SPARSE = 50
N_LP = 50


def _pmf_pair(p, q) -> tuple[np.ndarray, np.ndarray]:
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise SupportMismatch(f"support sizes differ: {p.shape} vs {q.shape}")
    return p, q


def tv_distance(p, q) -> float:
    """Half the L1 distance between two pmfs on a common support."""
    p, q = _pmf_pair(p, q)
    return 0.5 * float(np.abs(p - q).sum())


def bayes_error(p, q) -> float:
    """Error of the best classifier between equally likely classes p and q.

    Equals (1/2) sum_i min(p_i, q_i), which is 1/2 - TV/2.
    """
    p, q = _pmf_pair(p, q)
    return 0.5 * float(np.minimum(p, q).sum())


def max_coupling_mass_lp(p, q) -> float:
    """Max probability of drawing equal values under any coupling of p and q,
    certified by LP duality.

    The coupling is a point of the transportation polytope (row sums p,
    column sums q); its value is the largest diagonal mass.  This program
    has an explicit optimal primal-dual pair, so no solver runs.  With
    m = min(p, q), a = p - m and b = q - m, the primal is
    diag(m) + outer(a, b) / sum(b), or diag(m) alone when sum(b) = 0; where
    a_i > 0, b_i = 0, so the outer term never touches the diagonal.  The dual
    is u = [p <= q], v = 1 - u, with u_i + v_j >= [i = j] and
    p.u + q.v = sum(m).  By weak duality the primal's diagonal mass <= the
    optimum <= p.u + q.v, so once :func:`_certified_mass` has checked both
    points and that the two objectives agree, that mass is the optimum.  A
    wrong primal or dual fails the check, so it cross-checks the closed form
    sum_i min(p_i, q_i) rather than restating it.

    The pair is checked first (equal sizes, else ``SupportMismatch``;
    finite entries >= 0 and equal total masses, else ``ValueError``), and a
    failed certificate raises ``RuntimeError``.
    """
    p, q = _pmf_pair(p, q)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"pmfs must be non-empty vectors, got shape {p.shape}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("pmf entries must be finite")
    if (p < 0).any() or (q < 0).any():
        raise ValueError("pmf entries must be >= 0")
    if abs(p.sum() - q.sum()) > SUM_TOL:
        raise ValueError(f"total masses differ: {p.sum()!r} vs {q.sum()!r}")
    m = np.minimum(p, q)
    a, b = p - m, q - m
    pi = np.diag(m)
    if b.sum() > 0:
        pi += np.outer(a, b) / b.sum()
    u = (p <= q).astype(np.float64)
    return _certified_mass(p, q, pi, u, 1.0 - u)


def _certified_mass(p, q, pi, u, v) -> float:
    """Diagonal mass of the coupling ``pi`` of p and q, certified optimal by
    the dual (u, v) of the max-diagonal transportation LP.

    Raises ``RuntimeError`` unless ``pi`` is feasible (entries >= 0, row sums
    p, column sums q), (u, v) is dual feasible (u_i + v_j >= [i = j]) and the
    two objectives agree.  The tolerance is 2 * SUM_TOL: the pmfs' total
    masses may differ by SUM_TOL, which a coupling's marginals must absorb,
    plus rounding.
    """
    tol = 2 * SUM_TOL
    if (pi < -tol).any():
        raise RuntimeError("coupling has a negative entry")
    if np.abs(pi.sum(axis=1) - p).max() > tol or np.abs(pi.sum(axis=0) - q).max() > tol:
        raise RuntimeError("coupling's row or column sums miss p or q")
    if (np.add.outer(u, v) < np.eye(p.size) - tol).any():
        raise RuntimeError("dual infeasible: some u_i + v_j < [i = j]")
    mass, bound = float(np.trace(pi)), float(p @ u + q @ v)
    if abs(bound - mass) > tol:
        raise RuntimeError(f"duality gap {bound - mass!r} exceeds {tol!r}")
    return mass


def _safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num, dtype=np.float64)
    np.divide(num, den, out=out, where=den > 0)
    return out


def ci_projection(joint: DiscreteJoint) -> DiscreteJoint:
    """The conditionally independent joint sharing p(x,z) and p(y,z).

    q(x,y,z) = p(z) p(y|z) p(x|z) = p(x,z) p(y,z) / p(z); cells with
    p(z) = 0 map to 0.
    """
    p_z = joint.p_z()
    num = joint.p_xz()[:, None, :] * joint.p_yz()[None, :, :]
    pmf = _safe_div(num, p_z[None, None, :])
    total = pmf.sum()
    # Renormalization only corrects float rounding; the exact mass is 1.
    return DiscreteJoint(joint.sizes, pmf / total)


def is_ci(joint: DiscreteJoint, tol: float) -> bool:
    """True iff the joint is within tol (in TV) of its CI projection."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    return _projection_tv(joint) <= tol


def _projection_tv(joint: DiscreteJoint) -> float:
    """TV between the joint and its CI projection."""
    return tv_distance(joint.pmf.ravel(), ci_projection(joint).pmf.ravel())


def _validate_conditional(q_yz: np.ndarray, p_z: np.ndarray, ny: int, nz: int) -> np.ndarray:
    q = np.asarray(q_yz, dtype=np.float64)
    if q.shape != (ny, nz):
        raise InvalidConditional(f"q must have shape ({ny}, {nz}), got {q.shape}")
    # Written so that NaN fails: every comparison with it is False.
    if not ((q >= 0) & (q < np.inf)).all():
        raise InvalidConditional("q has negative or non-finite entries")
    col_sums = q.sum(axis=0)
    bad = (p_z > 0) & ~(np.abs(col_sums - 1.0) <= 1e-9)
    if np.any(bad):
        z = int(np.nonzero(bad)[0][0])
        raise InvalidConditional(f"q(.|z={z}) sums to {col_sums[z]!r}, not 1")
    return q


@dataclass(frozen=True)
class GapReport:
    """Population error gap of the two-classifier scheme with its envelopes.

    ``gap_lhs`` is TV(joint, mimic-joint) minus TV of the (y,z) marginals.
    Writing a = p(y,z) and b = p(z)q(y|z) per cell, the exact cell
    contribution is min(a,b) - sum_x min(a p(x|y,z), b p(x|z)), and two
    overlap-based envelopes pinch it:

    * ``bound_sharp`` = sum of max(0, min(a,b) - max(a,b) eps): a valid
      lower bound for every conditional q;
    * ``bound_rhs``   = sum of min(a,b)(1 - eps): a valid upper envelope.
      It exceeds the true cell contribution whenever a != b, so it is NOT
      a lower bound in general.

    All three coincide when q equals the true conditional p(y|z).

    ``overlap`` maps each (y,z) cell with p(y,z) > 0 to eps, the
    maximal-coupling mass between p(x|z) and p(x|y,z) there (1 - TV of the
    two conditionals).  It is 1 exactly when knowing y adds nothing about x
    at that cell, and it does not depend on q.

    Construction fails if any of the valid relations is violated beyond
    rounding, or if a value is NaN, so a successfully built report is itself
    the check.
    """

    gap_lhs: float
    tv_full: float
    tv_yz: float
    bound_rhs: float
    bound_sharp: float
    overlap: dict[tuple[int, int], float] = field(repr=False)

    def __post_init__(self):
        # Each test is written so that a NaN on either side fails it.
        if not self.gap_lhs >= -SUM_TOL:
            raise AssertionError(f"gap {self.gap_lhs} is negative beyond tolerance")
        if not self.gap_lhs >= self.bound_sharp - SUM_TOL:
            raise AssertionError(
                f"gap {self.gap_lhs} fell below its sharp lower bound {self.bound_sharp}"
            )
        if not self.gap_lhs <= self.bound_rhs + SUM_TOL:
            raise AssertionError(
                f"gap {self.gap_lhs} exceeded its upper envelope {self.bound_rhs}"
            )
        for cell, eps in self.overlap.items():
            if not -SUM_TOL <= eps <= 1 + SUM_TOL:
                raise AssertionError(f"overlap at {cell} outside [0, 1]: {eps}")


class _JointParts:
    """Everything :func:`gap_report` needs of a joint that does not depend on q.

    Built once per joint, so that several mimic conditionals can be
    evaluated on it without recomputing the marginals or the overlap grid.
    """

    __slots__ = ("p_z", "p_yz", "px_z", "pmf_flat", "eps", "mask", "overlap")

    def __init__(self, joint: DiscreteJoint):
        self.p_z = joint.p_z()
        self.p_yz = joint.p_yz()
        self.px_z = _safe_div(joint.p_xz(), self.p_z[None, :])
        self.pmf_flat = joint.pmf.ravel()
        # Overlap sum_x min(p(x|z), p(x|y,z)) per (y,z), valid where p(y,z) > 0.
        px_yz = _safe_div(joint.pmf, self.p_yz[None, :, :])
        self.eps = np.minimum(self.px_z[:, None, :], px_yz).sum(axis=0)
        self.mask = self.p_yz > 0
        self.overlap = {
            (int(y), int(z)): float(self.eps[y, z]) for y, z in zip(*np.nonzero(self.mask))
        }

    def report(self, q_yz) -> GapReport:
        """The exact gap and its envelopes for mimic conditional ``q_yz``."""
        p_z, p_yz, eps, mask = self.p_z, self.p_yz, self.eps, self.mask
        ny, nz = p_yz.shape
        q = _validate_conditional(q_yz, p_z, ny, nz)

        mimic = self.px_z[:, None, :] * q[None, :, :] * p_z[None, None, :]
        m_yz = q * p_z[None, :]

        tv_full = tv_distance(self.pmf_flat, mimic.ravel())
        tv_yz = tv_distance(p_yz.ravel(), m_yz.ravel())

        lo_mass = np.minimum(m_yz, p_yz)
        hi_mass = np.maximum(m_yz, p_yz)
        bound_rhs = float(np.where(mask, lo_mass * (1.0 - eps), 0.0).sum())
        bound_sharp = float(np.where(mask, np.maximum(0.0, lo_mass - hi_mass * eps), 0.0).sum())
        return GapReport(
            gap_lhs=tv_full - tv_yz,
            tv_full=tv_full,
            tv_yz=tv_yz,
            bound_rhs=bound_rhs,
            bound_sharp=bound_sharp,
            overlap=self.overlap,
        )

    def uniform_rhs(self, tv_proj: float) -> float:
        """TV(joint, CI projection) / (a ny) with a = max p(y|z); see
        :func:`uniform_mimic_bound`."""
        a = float(_safe_div(self.p_yz, self.p_z[None, :]).max())
        return tv_proj / (a * self.p_yz.shape[0])


def gap_report(joint: DiscreteJoint, q_yz) -> GapReport:
    """Evaluate the exact error gap for mimic conditional ``q_yz``.

    ``q_yz`` is a (ny, nz) array whose columns are pmfs over y for each z
    with positive mass.  Cells with p(y,z) = 0 contribute zero mass to the
    bounds; the overlap there is undefined and excluded.
    """
    return _JointParts(joint).report(q_yz)


def true_conditional(joint: DiscreteJoint) -> np.ndarray:
    """p(y|z) as a (ny, nz) array; columns with p(z) = 0 get uniform filler."""
    p_z = joint.p_z()
    p_yz = joint.p_yz()
    q = _safe_div(p_yz, p_z[None, :])
    ny = p_yz.shape[0]
    q[:, p_z == 0] = 1.0 / ny
    return q


def uniform_conditional(joint: DiscreteJoint) -> np.ndarray:
    ny, nz = joint.sizes[1], joint.sizes[2]
    return np.full((ny, nz), 1.0 / ny)


def uniform_mimic_bound(joint: DiscreteJoint) -> tuple[float, float]:
    """Gap under the uniform mimic vs the scaled projection distance.

    With q(y|z) uniform over an alphabet of size ny and a = max p(y|z),
    returns lhs = the exact gap and rhs = TV(joint, CI projection)/(a ny).
    lhs >= rhs would follow from using the mass-overlap form as a lower
    bound, but that form is only an upper envelope (see GapReport), so the
    inequality can fail; both sides are returned for inspection and rhs = 0
    exactly under conditional independence either way.
    """
    if joint.sizes[1] < 2:
        raise ValueError("y alphabet must have at least 2 symbols")
    parts = _JointParts(joint)
    rep = parts.report(uniform_conditional(joint))
    return rep.gap_lhs, parts.uniform_rhs(_projection_tv(joint))


# ---------------------------------------------------------------------------
# Verification battery
# ---------------------------------------------------------------------------


def _random_sizes(rng: np.random.Generator) -> tuple[int, int, int]:
    return tuple(int(s) for s in rng.integers(2, MAX_SIZE + 1, size=3))


def _random_conditional(rng: np.random.Generator, ny: int, nz: int) -> np.ndarray:
    return rng.dirichlet(np.ones(ny), size=nz).T


def _sparse_ci_joint(rng: np.random.Generator, sizes) -> DiscreteJoint:
    """CI joint where some p(y|z) entries are exactly zero."""
    nx, ny, nz = sizes
    p_z = rng.dirichlet(np.ones(nz))
    py_z = np.zeros((ny, nz))
    for z in range(nz):
        k = int(rng.integers(1, ny))  # keep 1..ny-1 symbols alive
        alive = rng.choice(ny, size=k, replace=False)
        py_z[alive, z] = rng.dirichlet(np.ones(k))
    px_z = rng.dirichlet(np.ones(nx), size=nz).T
    pmf = px_z[:, None, :] * py_z[None, :, :] * p_z[None, None, :]
    return DiscreteJoint(tuple(sizes), pmf / pmf.sum())


def _sparse_dependent_joint(rng: np.random.Generator, sizes) -> DiscreteJoint:
    """Generic joint with a random set of (y,z) slabs zeroed out.

    One z column is left fully populated so the joint stays dependent;
    zeroing can otherwise leave a single live y per column, which is
    conditionally independent by degeneracy.
    """
    nx, ny, nz = sizes
    pmf = rng.dirichlet(np.ones(nx * ny * nz)).reshape(sizes).copy()
    keep_z = int(rng.integers(nz))
    candidates = [(y, z) for y in range(ny) for z in range(nz) if z != keep_z]
    n_kill = int(rng.integers(1, len(candidates) + 1))
    which = rng.choice(len(candidates), size=n_kill, replace=False)
    for c in which:
        y, z = candidates[c]
        pmf[:, y, z] = 0.0
    return DiscreteJoint(tuple(sizes), pmf / pmf.sum())


def _support_conditional(rng: np.random.Generator, joint: DiscreteJoint) -> np.ndarray:
    """q(y|z) positive exactly on the support of p(y,z)."""
    p_z = joint.p_z()
    p_yz = joint.p_yz()
    ny, nz = p_yz.shape
    q = np.zeros((ny, nz))
    for z in range(nz):
        if p_z[z] <= 0:
            q[:, z] = 1.0 / ny
            continue
        alive = np.nonzero(p_yz[:, z] > 0)[0]
        w = rng.dirichlet(np.ones(alive.size))
        q[alive, z] = w
    return q


def _check(slacks: list[float], tol: float, kind: str, gating: bool = True) -> dict:
    """Summarize a batch of slack values (``n`` of them) into a pass/fail record.

    ``kind`` is "min" for inequalities (slack = lhs - rhs, needs >= -tol) or
    "max" for identities (slack = |deviation|, needs <= tol).  Non-gating
    checks are reported but excluded from the battery's overall verdict.
    """
    arr = np.asarray(slacks, dtype=np.float64)
    if kind == "min":
        worst = float(arr.min()) if arr.size else 0.0
        ok = worst >= -tol
    else:
        worst = float(arr.max()) if arr.size else 0.0
        ok = worst <= tol
    return {"pass": bool(ok), "worst_slack": worst, "tol": tol, "n": len(slacks), "gating": gating}


def run_verify(seed: int = 0) -> dict:
    """Run the full oracle property battery; returns a JSON-friendly report.

    Each named check records worst-case slack against its tolerance.  The
    battery's size is fixed by the ``N_*`` constants; ``seed``, an integer
    (not a bool, else ``ValueError``), picks its random joints and pairs.
    """
    require_number("seed", seed, integer=True)
    t0 = time.perf_counter()
    rng = derive_rng(seed, "oracle-verify")
    checks: dict[str, dict] = {}

    # TV metric axioms and the closed-form identities on random pairs.
    sym, tri, dual, minform = [], [], [], []
    for _ in range(N_PAIRS):
        s = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(s))
        q = rng.dirichlet(np.ones(s))
        r = rng.dirichlet(np.ones(s))
        tv_pq = tv_distance(p, q)
        sym.append(abs(tv_pq - tv_distance(q, p)))
        tri.append(tv_pq + tv_distance(q, r) - tv_distance(p, r))
        dual.append(abs(bayes_error(p, q) + 0.5 * tv_pq - 0.5))
        minform.append(abs(tv_pq - (1.0 - float(np.minimum(p, q).sum()))))
    checks["tv_symmetry"] = _check(sym, 0.0, "max")
    checks["tv_triangle"] = _check(tri, SUM_TOL, "min")
    checks["bayes_error_tv_identity"] = _check(dual, IDENTITY_TOL, "max")
    checks["tv_min_form"] = _check(minform, IDENTITY_TOL, "max")

    # Gap envelopes, nonnegativity, and the variational maximizer on random
    # joints with three mimic conditionals each.  The sharp bound and the
    # upper envelope hold for every q; the mass-overlap form as a LOWER
    # bound and the scaled uniform-mimic inequality hold only near
    # q = p(y|z), so their observed status is reported without gating.
    sharp_slack, upper_slack, nonneg = [], [], []
    mass_lower_slack, unif_slack = [], []
    maximizer, maximizer_id, equality_at_true = [], [], []
    for _ in range(N_GAP_JOINTS):
        joint = gen_discrete_joint(_random_sizes(rng), ci=False, seed=int(rng.integers(2**63)))
        q_true = true_conditional(joint)
        q_unif = uniform_conditional(joint)
        q_rand = _random_conditional(rng, joint.sizes[1], joint.sizes[2])
        parts = _JointParts(joint)
        gaps = {}
        for name, q in (("true", q_true), ("uniform", q_unif), ("random", q_rand)):
            rep = parts.report(q)
            gaps[name] = rep.gap_lhs
            sharp_slack.append(rep.gap_lhs - rep.bound_sharp)
            upper_slack.append(rep.bound_rhs - rep.gap_lhs)
            mass_lower_slack.append(rep.gap_lhs - rep.bound_rhs)
            nonneg.append(rep.gap_lhs)
            if name == "true":
                equality_at_true.append(abs(rep.gap_lhs - rep.bound_rhs))
                equality_at_true.append(abs(rep.gap_lhs - rep.bound_sharp))
        # The true conditional attains the grid maximum and equals the TV
        # to the CI projection.
        tv_proj = _projection_tv(joint)
        maximizer.append(gaps["true"] - max(gaps.values()))
        maximizer_id.append(abs(gaps["true"] - tv_proj))
        # uniform_mimic_bound(joint), from the uniform report above.
        unif_slack.append(gaps["uniform"] - parts.uniform_rhs(tv_proj))
    checks["gap_sharp_lower_bound"] = _check(sharp_slack, SUM_TOL, "min")
    checks["gap_mass_upper_envelope"] = _check(upper_slack, SUM_TOL, "min")
    checks["gap_nonnegative"] = _check(nonneg, SUM_TOL, "min")
    checks["bounds_collapse_at_true_conditional"] = _check(equality_at_true, SUM_TOL, "max")
    checks["variational_maximizer"] = _check(maximizer, NONZERO_TOL, "min")
    checks["maximizer_equals_projection_tv"] = _check(maximizer_id, SUM_TOL, "max")
    checks["mass_form_as_lower_bound"] = _check(mass_lower_slack, SUM_TOL, "min", gating=False)
    checks["uniform_mimic_inequality"] = _check(unif_slack, SUM_TOL, "min", gating=False)

    # Zero gap if and only if conditionally independent.  The zero
    # direction holds for every q; the dependence direction is asserted at
    # the variational maximizer q = p(y|z), where the gap equals the
    # projection distance (random full-support q can tilt masses enough to
    # null the gap, so it is observed without gating).
    ci_gaps, dep_gaps, dep_gaps_rand, agree = [], [], [], []
    for _ in range(N_CI):
        joint = gen_discrete_joint(_random_sizes(rng), ci=True, seed=int(rng.integers(2**63)))
        q = _random_conditional(rng, joint.sizes[1], joint.sizes[2])
        gap = gap_report(joint, q).gap_lhs
        ci_gaps.append(-abs(gap))  # want |gap| <= tol, expressed as min-slack
        agree.append(1.0 if is_ci(joint, NONZERO_TOL) else -1.0)
    for _ in range(N_DEP):
        joint = gen_discrete_joint(_random_sizes(rng), ci=False, seed=int(rng.integers(2**63)))
        parts = _JointParts(joint)
        dep_gaps.append(parts.report(true_conditional(joint)).gap_lhs - 1e-6)
        q = _random_conditional(rng, joint.sizes[1], joint.sizes[2])
        dep_gaps_rand.append(parts.report(q).gap_lhs - 1e-6)
        agree.append(1.0 if not is_ci(joint, NONZERO_TOL) else -1.0)
    checks["ci_implies_zero_gap"] = _check(ci_gaps, SUM_TOL, "min")
    checks["dependence_implies_gap"] = _check(dep_gaps, 0.0, "min")
    checks["dependence_gap_random_q"] = _check(dep_gaps_rand, 0.0, "min", gating=False)
    checks["is_ci_agrees"] = _check(agree, 0.0, "min")

    # General-measure edge: zero-mass (y,z) cells with q supported exactly
    # on the remaining cells; the biconditional must still hold there.
    sparse_ci, sparse_dep = [], []
    for _ in range(N_SPARSE):
        sizes = _random_sizes(rng)
        joint = _sparse_ci_joint(rng, sizes)
        q = _support_conditional(rng, joint)
        sparse_ci.append(-abs(gap_report(joint, q).gap_lhs))
        joint = _sparse_dependent_joint(rng, sizes)
        sparse_dep.append(gap_report(joint, true_conditional(joint)).gap_lhs - 1e-6)
    checks["sparse_ci_zero_gap"] = _check(sparse_ci, SUM_TOL, "min")
    checks["sparse_dependence_gap"] = _check(sparse_dep, 0.0, "min")

    # Closed-form overlap vs the coupling LP's optimum, certified by duality.
    lp_dev = []
    for _ in range(N_LP):
        s = int(rng.integers(2, 4))
        p = rng.dirichlet(np.ones(s))
        q = rng.dirichlet(np.ones(s))
        lp_dev.append(abs(max_coupling_mass_lp(p, q) - float(np.minimum(p, q).sum())))
    checks["coupling_lp_crosscheck"] = _check(lp_dev, 1e-8, "max")

    return {
        "seed": seed,
        "all_pass": all(c["pass"] for c in checks.values() if c["gating"]),
        "elapsed_s": time.perf_counter() - t0,
        "checks": checks,
    }
