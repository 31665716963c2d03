"""Exact discrete-distribution computations and their cross-checks.

Independent oracles used here: the coupling linear program, certified by
duality and checked against scipy's HiGHS solver, for overlap values; direct
marginalization for CI checks; and brute-force grids for the variational
maximizer.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciforge.core import derive_rng
from ciforge.datagen import DiscreteJoint, gen_discrete_joint
from ciforge.errors import InvalidConditional, SupportMismatch
from ciforge.oracle import (
    IDENTITY_TOL,
    GapReport,
    _JointParts,
    _certified_mass,
    _sparse_ci_joint,
    _sparse_dependent_joint,
    _support_conditional,
    bayes_error,
    ci_projection,
    gap_report,
    is_ci,
    max_coupling_mass_lp,
    run_verify,
    true_conditional,
    tv_distance,
    uniform_conditional,
    uniform_mimic_bound,
)

probs = st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=6).map(
    lambda w: np.asarray(w, dtype=float) / sum(w)
)


class TestTvDistance:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert tv_distance(p, p) == 0.0

    def test_half_for_half_overlap(self):
        assert tv_distance([0.5, 0.5], [1.0, 0.0]) == 0.5

    def test_min_formula_agrees(self):
        rng = derive_rng(0, "tv-min")
        for _ in range(200):
            s = int(rng.integers(2, 7))
            p, q = rng.dirichlet(np.ones(s)), rng.dirichlet(np.ones(s))
            assert abs(tv_distance(p, q) - (1.0 - np.minimum(p, q).sum())) <= 1e-15

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            tv_distance([0.5, 0.5], [1.0, 0.0, 0.0])

    @given(p=probs, q=probs, r=probs)
    @settings(max_examples=100, deadline=None)
    def test_metric_axioms(self, p, q, r):
        n = min(len(p), len(q), len(r))
        p, q, r = p[:n] / p[:n].sum(), q[:n] / q[:n].sum(), r[:n] / r[:n].sum()
        assert tv_distance(p, q) == tv_distance(q, p)
        assert 0.0 <= tv_distance(p, q) <= 1.0
        assert tv_distance(p, r) <= tv_distance(p, q) + tv_distance(q, r) + 1e-12


class TestBayesError:
    def test_identical_classes(self):
        assert bayes_error([0.5, 0.5], [0.5, 0.5]) == 0.5

    def test_disjoint_supports(self):
        assert bayes_error([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_tv_duality(self):
        """error + TV/2 = 1/2, exactly, on 1000 random pairs."""
        rng = derive_rng(0, "bayes-dual")
        worst = 0.0
        for _ in range(1000):
            s = int(rng.integers(2, 7))
            p, q = rng.dirichlet(np.ones(s)), rng.dirichlet(np.ones(s))
            worst = max(worst, abs(bayes_error(p, q) + 0.5 * tv_distance(p, q) - 0.5))
        assert worst <= 1e-14


def overlap_table(joint):
    """The per-cell overlap, which gap_report range-checks on construction."""
    return gap_report(joint, true_conditional(joint)).overlap


class TestCouplingOverlap:
    def test_ci_joint_has_unit_overlap(self):
        joint = gen_discrete_joint((3, 3, 3), ci=True, seed=1)
        table = overlap_table(joint)
        assert table
        assert all(abs(v - 1.0) <= 1e-12 for v in table.values())

    def test_matches_lp_solver(self):
        """Closed form vs the transportation LP on every (y,z) cell."""
        for seed in range(5):
            joint = gen_discrete_joint((3, 2, 2), ci=False, seed=seed)
            p_z = joint.p_z()
            px_z = joint.p_xz() / p_z[None, :]
            for (y, z), eps in overlap_table(joint).items():
                p_yz = joint.p_yz()[y, z]
                px_yz = joint.pmf[:, y, z] / p_yz
                assert abs(eps - max_coupling_mass_lp(px_z[:, z], px_yz)) <= 1e-8

    def test_values_in_unit_interval(self):
        for seed in range(10):
            joint = gen_discrete_joint((4, 4, 4), ci=False, seed=seed)
            for v in overlap_table(joint).values():
                assert -1e-12 <= v <= 1 + 1e-12

    def test_zero_mass_cells_excluded(self):
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = 0.5
        pmf[1, 0, 1] = 0.25
        pmf[0, 1, 1] = 0.25
        table = overlap_table(DiscreteJoint((2, 2, 2), pmf))
        assert set(table) == {(0, 0), (0, 1), (1, 1)}
        assert table[(0, 0)] == pytest.approx(1.0)
        assert table[(0, 1)] == pytest.approx(0.5)

    def test_deterministic_diagonal_joint(self):
        """X=Y=Z uniform binary: conditioning on z fixes x, so overlap is 1."""
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = 0.5
        pmf[1, 1, 1] = 0.5
        table = overlap_table(DiscreteJoint((2, 2, 2), pmf))
        assert set(table) == {(0, 0), (1, 1)}
        assert all(abs(v - 1.0) <= 1e-12 for v in table.values())

    def test_table_does_not_depend_on_q(self):
        for seed in range(5):
            joint = gen_discrete_joint((3, 3, 3), ci=False, seed=seed)
            unif = gap_report(joint, uniform_conditional(joint)).overlap
            assert unif == overlap_table(joint)


class TestCiProjection:
    def test_idempotent_on_ci(self):
        joint = gen_discrete_joint((3, 2, 4), ci=True, seed=3)
        proj = ci_projection(joint)
        assert float(np.abs(proj.pmf - joint.pmf).max()) <= 1e-14

    def test_marginals_preserved(self):
        joint = gen_discrete_joint((4, 3, 2), ci=False, seed=6)
        proj = ci_projection(joint)
        assert float(np.abs(proj.p_yz() - joint.p_yz()).max()) <= 1e-14
        assert float(np.abs(proj.p_xz() - joint.p_xz()).max()) <= 1e-14

    def test_projection_of_dependent_joint(self):
        """X=Y fully dependent: the projection breaks the tie, TV > 0."""
        pmf = np.zeros((2, 2, 2))
        pmf[0, 0, 0] = 0.25
        pmf[1, 1, 0] = 0.25
        pmf[0, 0, 1] = 0.25
        pmf[1, 1, 1] = 0.25
        joint = DiscreteJoint((2, 2, 2), pmf)
        proj = ci_projection(joint)
        assert is_ci(proj, 1e-12)
        assert tv_distance(joint.pmf.ravel(), proj.pmf.ravel()) > 0.2

    def test_zero_z_columns_map_to_zero(self):
        pmf = np.zeros((2, 2, 2))
        pmf[:, :, 0] = 0.25
        proj = ci_projection(DiscreteJoint((2, 2, 2), pmf))
        assert proj.pmf[:, :, 1].sum() == 0.0


class TestIsCi:
    def test_constructed_ci(self):
        assert is_ci(gen_discrete_joint((2, 2, 2), ci=True, seed=11), 1e-12)

    def test_generic_not_ci(self):
        assert not is_ci(gen_discrete_joint((2, 2, 2), ci=False, seed=11), 1e-9)

    def test_tol_one_accepts_everything(self):
        assert is_ci(gen_discrete_joint((2, 2, 2), ci=False, seed=11), 1.0)


class TestGapReport:
    def test_ci_joint_zero_gap_any_q(self):
        rng = derive_rng(2, "gap-ci")
        for seed in range(20):
            joint = gen_discrete_joint((3, 3, 2), ci=True, seed=seed)
            q = rng.dirichlet(np.ones(3), size=2).T
            assert abs(gap_report(joint, q).gap_lhs) <= 1e-12

    def test_dependent_joint_positive_gap_at_true_conditional(self):
        for seed in range(20):
            joint = gen_discrete_joint((3, 3, 2), ci=False, seed=seed)
            assert gap_report(joint, true_conditional(joint)).gap_lhs > 1e-6

    def test_true_conditional_equals_projection_distance(self):
        joint = gen_discrete_joint((4, 3, 3), ci=False, seed=9)
        rep = gap_report(joint, true_conditional(joint))
        proj = ci_projection(joint)
        tv = tv_distance(joint.pmf.ravel(), proj.pmf.ravel())
        assert abs(rep.gap_lhs - tv) <= 1e-12
        assert abs(rep.bound_rhs - tv) <= 1e-12
        assert abs(rep.bound_sharp - tv) <= 1e-12

    def test_envelopes_pinch_the_gap(self):
        rng = derive_rng(3, "gap-envelope")
        for seed in range(30):
            joint = gen_discrete_joint((3, 3, 3), ci=False, seed=seed)
            q = rng.dirichlet(np.ones(3), size=3).T
            rep = gap_report(joint, q)
            assert rep.bound_sharp - 1e-12 <= rep.gap_lhs <= rep.bound_rhs + 1e-12
            assert rep.gap_lhs >= -1e-12

    def test_variational_maximizer_on_grid(self):
        """q = p(y|z) attains the largest gap over a grid that includes it."""
        rng = derive_rng(4, "gap-grid")
        for seed in range(10):
            joint = gen_discrete_joint((3, 3, 2), ci=False, seed=seed)
            q_star = true_conditional(joint)
            best = gap_report(joint, q_star).gap_lhs
            for _ in range(25):
                q = rng.dirichlet(np.ones(3), size=2).T
                assert gap_report(joint, q).gap_lhs <= best + 1e-9
            assert gap_report(joint, uniform_conditional(joint)).gap_lhs <= best + 1e-9

    def test_invalid_conditional_rejected(self):
        joint = gen_discrete_joint((2, 2, 2), ci=False, seed=0)
        with pytest.raises(InvalidConditional):
            gap_report(joint, np.full((2, 2), 0.4))
        with pytest.raises(InvalidConditional):
            gap_report(joint, np.array([[1.2, 0.5], [-0.2, 0.5]]))
        with pytest.raises(InvalidConditional):
            gap_report(joint, np.full((3, 2), 1.0 / 3.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_conditional_rejected(self, bad):
        joint = gen_discrete_joint((2, 2, 2), ci=False, seed=0)
        with pytest.raises(InvalidConditional):
            gap_report(joint, np.array([[bad, 0.5], [0.5, 0.5]]))

    def test_non_finite_filler_in_a_zero_mass_column_rejected(self):
        """Columns with p(z) = 0 skip the sum check, so finiteness is checked on its own."""
        pmf = np.zeros((2, 2, 2))
        pmf[:, :, 0] = 0.25
        with pytest.raises(InvalidConditional):
            gap_report(DiscreteJoint((2, 2, 2), pmf), np.array([[0.5, np.inf], [0.5, 0.0]]))

    @pytest.mark.parametrize("field", ["gap_lhs", "bound_rhs", "bound_sharp"])
    def test_report_with_nan_fails_its_checks(self, field):
        values = dict(gap_lhs=0.1, tv_full=0.3, tv_yz=0.2, bound_rhs=0.2, bound_sharp=0.05, overlap={})
        GapReport(**values)
        with pytest.raises(AssertionError):
            GapReport(**{**values, field: float("nan")})

    @pytest.mark.parametrize("make", [_sparse_ci_joint, _sparse_dependent_joint])
    def test_shared_parts_match_gap_report(self, make):
        """One joint's parts evaluated at several q give gap_report's reports
        field for field, zero-mass (y,z) cells included."""
        rng = derive_rng(12, "shared-parts")
        for _ in range(20):
            joint = make(rng, tuple(int(s) for s in rng.integers(2, 5, size=3)))
            parts = _JointParts(joint)
            qs = [true_conditional(joint), uniform_conditional(joint), _support_conditional(rng, joint)]
            assert not parts.mask.all()
            for q in qs:
                assert parts.report(q) == gap_report(joint, q)


class TestUniformMimicBound:
    def test_zero_both_sides_under_ci(self):
        joint = gen_discrete_joint((3, 3, 3), ci=True, seed=7)
        lhs, rhs = uniform_mimic_bound(joint)
        assert abs(lhs) <= 1e-12
        assert abs(rhs) <= 1e-12

    def test_uniform_true_conditional_gives_exact_projection_distance(self):
        """When p(y|z) is itself uniform, a = 1/ny so the scale factor is 1
        and the uniform mimic is the maximizer: lhs = rhs = TV to projection."""
        rng = derive_rng(8, "unif-exact")
        nx, ny, nz = 3, 4, 2
        p_z = rng.dirichlet(np.ones(nz))
        px_yz = rng.dirichlet(np.ones(nx), size=(ny, nz))
        pmf = np.zeros((nx, ny, nz))
        for y in range(ny):
            for z in range(nz):
                pmf[:, y, z] = p_z[z] / ny * px_yz[y, z]
        joint = DiscreteJoint((nx, ny, nz), pmf)
        lhs, rhs = uniform_mimic_bound(joint)
        proj = ci_projection(joint)
        tv = tv_distance(joint.pmf.ravel(), proj.pmf.ravel())
        assert abs(rhs - tv) <= 1e-12
        assert abs(lhs - tv) <= 1e-12


# Degenerate pairs: zero entries at different places on the two sides, and
# an equal pair with a zero entry.
DEGENERATE_PAIRS = [
    (np.array([0.0, 0.5, 0.5]), np.array([0.5, 0.5, 0.0])),
    (np.array([1.0, 0.0]), np.array([1.0, 0.0])),
]


class TestCouplingLp:
    def test_matches_min_sum(self):
        rng = derive_rng(6, "lp")
        for _ in range(50):
            s = int(rng.integers(2, 4))
            p, q = rng.dirichlet(np.ones(s)), rng.dirichlet(np.ones(s))
            assert abs(max_coupling_mass_lp(p, q) - np.minimum(p, q).sum()) <= 1e-8

    def test_identical_distributions_couple_fully(self):
        p = np.array([0.3, 0.7])
        assert max_coupling_mass_lp(p, p) == pytest.approx(1.0, abs=1e-9)

    def test_stacked_blocks_match_each_pair_solved_alone(self):
        """Each pair gets the closed form, the same from either side, also
        with supports up to 6, zero entries or equal pairs."""
        rng = derive_rng(7, "lp-stack")
        pairs = []
        for _ in range(40):
            s = int(rng.integers(2, 7))
            p, q = rng.dirichlet(np.ones(s)), rng.dirichlet(np.ones(s))
            if rng.random() < 0.3:
                p[rng.integers(s)] = 0.0
                p /= p.sum()
            pairs.append((p, p.copy() if rng.random() < 0.2 else q))
        pairs += DEGENERATE_PAIRS
        for p, q in pairs:
            mass = max_coupling_mass_lp(p, q)
            assert abs(mass - max_coupling_mass_lp(q, p)) <= IDENTITY_TOL
            assert abs(mass - np.minimum(p, q).sum()) <= 1e-8

    def test_matches_highs_reference(self):
        """scipy's HiGHS solves each pair's transportation LP as a
        third-party reference for the duality certificate."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = derive_rng(8, "lp-highs")
        pairs = []
        for s in range(1, 7):
            for _ in range(8):
                p, q = rng.dirichlet(np.ones(s)), rng.dirichlet(np.ones(s))
                if s > 1 and rng.random() < 0.4:
                    q[rng.integers(s)] = 0.0
                    q /= q.sum()
                pairs.append((p, p.copy() if rng.random() < 0.25 else q))
        pairs += DEGENERATE_PAIRS
        for p, q in pairs:
            s = p.size
            a_eq = np.zeros((2 * s, s * s))
            for i in range(s):
                a_eq[i, i * s : (i + 1) * s] = 1.0  # row sums -> p
                a_eq[s + i, i::s] = 1.0  # column sums -> q
            c = -np.eye(s).ravel()  # maximize the diagonal mass
            res = linprog(c, A_eq=a_eq, b_eq=np.concatenate([p, q]), bounds=(0, None), method="highs")
            assert res.success, res.message
            assert abs(max_coupling_mass_lp(p, q) - -res.fun) <= 1e-9

    def test_certificate_rejects_a_bad_primal_or_dual(self):
        p, q = np.array([0.2, 0.5, 0.3]), np.array([0.4, 0.4, 0.2])
        m = np.minimum(p, q)
        a, b = p - m, q - m
        pi = np.diag(m) + np.outer(a, b) / b.sum()
        u = (p <= q).astype(float)
        assert _certified_mass(p, q, pi, u, 1.0 - u) == pytest.approx(m.sum(), abs=1e-15)
        moved = pi.copy()
        moved[1, 0] += moved[0, 0]  # column sums kept, row sums broken
        moved[0, 0] = 0.0
        with pytest.raises(RuntimeError, match="row or column sums"):
            _certified_mass(p, q, moved, u, 1.0 - u)
        short = u.copy()
        short[0] = 0.0  # u_0 + v_0 = 0 < 1
        with pytest.raises(RuntimeError, match="dual infeasible"):
            _certified_mass(p, q, pi, short, 1.0 - u)

    @pytest.mark.parametrize(
        "p, q, error, match",
        [
            (np.array([0.5, 0.5]), np.array([0.2, 0.3, 0.5]), SupportMismatch, "^support sizes differ"),
            (np.array([np.nan, 0.5]), np.array([0.5, 0.5]), ValueError, "^pmf entries must be finite"),
            (np.array([0.5, 0.5]), np.array([np.inf, 0.5]), ValueError, "^pmf entries must be finite"),
            (np.array([1.5, -0.5]), np.array([0.5, 0.5]), ValueError, "^pmf entries must be >= 0"),
            (np.array([0.5, 0.5]), np.array([0.5, 0.25]), ValueError, "^total masses differ"),
            (np.ones((2, 2)) / 4, np.ones((2, 2)) / 4, ValueError, "^pmfs must be non-empty vectors"),
        ],
        ids=["sizes", "nan", "inf", "negative", "masses", "matrix"],
    )
    def test_bad_pair_is_refused(self, p, q, error, match):
        with pytest.raises(error, match=match):
            max_coupling_mass_lp(p, q)

    def test_scipy_loads_only_when_the_lp_runs(self):
        """``import ciforge`` and its CLI load neither scipy nor the process
        pool.  The LP cross-check is certified by duality in numpy, so running
        it loads no scipy either.  The pytest process may already hold scipy,
        so this runs in a fresh interpreter."""
        _run_fresh("""
import sys
import numpy as np
import ciforge, ciforge.cli
def loaded():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
            or m.startswith("multiprocessing") or m == "concurrent.futures.process"]
assert not loaded(), sorted(loaded())[:8]
from ciforge.oracle import max_coupling_mass_lp
p, q = np.array([0.2, 0.5, 0.3]), np.array([0.4, 0.4, 0.2])
assert abs(max_coupling_mass_lp(p, q) - np.minimum(p, q).sum()) <= 1e-8
assert not loaded(), sorted(loaded())[:8]
""")

    def test_package_cli_and_verify_load_no_scipy(self):
        """The default verify battery, with its LP cross-check, loads neither
        scipy nor a process pool."""
        _run_fresh("""
import sys
import ciforge, ciforge.cli
from ciforge.oracle import run_verify
assert run_verify(seed=1)["all_pass"]
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
          or m.startswith("multiprocessing") or m == "concurrent.futures.process"]
assert not loaded, sorted(loaded)[:8]
""")

def _run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter on this checkout's ``src``; the
    pytest process may already hold scipy, which the HiGHS reference loads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("seed", [True, 1.5, "3", None])
def test_verify_rejects_a_non_integer_seed(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        run_verify(seed=seed)


def test_verify_battery_small():
    report = run_verify(seed=5)
    assert report["all_pass"]
    gating = [n for n, c in report["checks"].items() if c["gating"]]
    assert "gap_sharp_lower_bound" in gating
    assert "dependence_implies_gap" in gating
    # The mass form is reported as an observation, never gated on.
    assert report["checks"]["mass_form_as_lower_bound"]["gating"] is False


# sha256 of the default battery's report without its wall-clock ``elapsed_s``
# and without the LP cross-check's ``worst_slack``, as json.dumps(...,
# sort_keys=True) writes it.  Seed 1903 is the acceptance suite's.  A change
# that only stops recomputing values keeps these digests.  The LP slack
# compares two floating-point sums of the same minima, which may differ by
# rounding, so it is held to a bound instead; that check's pass, n, tol and
# gating stay in the digest.
VERIFY_DIGESTS = {
    0: "706a96bae3696bbf261aa17b7a72f1aafc5f77dc760811e399e7a2a108ebafcc",
    1903: "4e38f038a931d19031ed8093bc9784c7f116f9df7ae37032e8815f7958992692",
}


@pytest.mark.parametrize("seed", sorted(VERIFY_DIGESTS))
def test_default_verify_report_is_pinned(seed):
    report = run_verify(seed=seed)
    del report["elapsed_s"]
    lp_slack = report["checks"]["coupling_lp_crosscheck"].pop("worst_slack")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[seed]
    assert 0.0 <= lp_slack <= 1e-12


def test_battery_calls_the_lp_once_per_pair(monkeypatch):
    """The battery reaches the coupling LP through its module-level name,
    once per pair, so a wrapper put there sees every call; wrapping it
    leaves the report unchanged."""
    calls = []

    def counting(p, q):
        calls.append((p, q))
        return max_coupling_mass_lp(p, q)

    monkeypatch.setattr("ciforge.oracle.max_coupling_mass_lp", counting)
    report = run_verify(seed=0)
    assert len(calls) == 50
    del report["elapsed_s"]
    del report["checks"]["coupling_lp_crosscheck"]["worst_slack"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == VERIFY_DIGESTS[0]
