#!/usr/bin/env python3
"""Size and power grid: H0 and H1 rejections at alpha = 0.05 on three sets.

Each set holds ``--n-h0`` conditionally independent and ``--n-h1``
dependent datasets; the full test runs once on each:

* ``pnl_d5``: post-nonlinear, n = 3000, d_z = 5;
* ``pnl_d20``: post-nonlinear, n = 3000, d_z = 20;
* ``discrete``: 6000 draws of a random 3x3x3 joint.

Per set the report gives the H0 and H1 rejections, the p-value ROC-AUC and
the mean H0 ``e1``, the error of the classifier that does not see x.
Under H0 that error should sit near 0.5 when the mimic is faithful: a
lower value means (y, z) alone tells real rows from mimicked ones.  Over
all sets it gives the H0 rejection rate and alpha plus two binomial
standard errors at that count, the bound the rate should stay under.  The
defaults run 70 + 70 datasets per set, 210 H0 in total.

Usage:
    python scripts/run_null_calibration.py [--n-h0 70] [--n-h1 70]
        [--alpha 0.05] [--seed 42] [--parallel 2] [--out report.json]
"""

import argparse
import json
import math
import sys
import time
from functools import partial
from pathlib import Path

from ciforge.bench import Case, run_cases, summarize
from ciforge.datagen import PostNonlinearConfig, gen_discrete_joint, gen_postnonlinear, sample_discrete
from ciforge.testkit import TestConfig, child_seed

SETS = {"pnl_d5": 5, "pnl_d20": 20, "discrete": None}


def grid_case(name: str, ci: bool, i: int, seed: int, alpha: float) -> Case:
    tag = f"grid-{name}-{'h0' if ci else 'h1'}-{i}"
    if name == "discrete":
        joint = gen_discrete_joint((3, 3, 3), ci=ci, seed=child_seed(seed, tag + "-joint"))
        make = partial(sample_discrete, joint, 6000, seed=child_seed(seed, tag + "-sample"))
    else:
        pnl = PostNonlinearConfig(d_z=SETS[name], n=3000, ci=ci, seed=child_seed(seed, tag))
        make = partial(gen_postnonlinear, pnl)
    fields = {"set": name, "truth": "CI" if ci else "NOTCI", "index": i}
    return Case(fields, make, TestConfig(seed=child_seed(seed, tag + "-test"), alpha=alpha))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-h0", type=int, default=70, help="CI datasets per set")
    ap.add_argument("--n-h1", type=int, default=70, help="dependent datasets per set")
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--parallel", type=int, default=2)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    cases = [
        grid_case(name, ci, i, args.seed, args.alpha)
        for name in SETS
        for ci, count in ((True, args.n_h0), (False, args.n_h1))
        for i in range(count)
    ]
    t0 = time.perf_counter()
    rows = run_cases(cases, args.parallel)
    elapsed = time.perf_counter() - t0

    sets = {name: summarize([r for r in rows if r["set"] == name]) for name in SETS}
    n_h0 = sum(s["n_h0"] for s in sets.values())
    n_reject = sum(s["h0_reject"] for s in sets.values())
    alpha = args.alpha
    report = {
        "alpha": alpha,
        "seed": args.seed,
        "sets": sets,
        "n_h0": n_h0,
        "h0_reject": n_reject,
        "h0_reject_rate": n_reject / n_h0 if n_h0 else None,
        "h0_rate_bound": alpha + 2.0 * math.sqrt(alpha * (1.0 - alpha) / n_h0) if n_h0 else None,
        "elapsed_s": elapsed,
        "rows": rows,
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    for name, s in report["sets"].items():
        e1 = "n/a" if s["mean_h0_e1"] is None else f"{s['mean_h0_e1']:.3f}"
        print(
            f"{name:9s} H0 rejected {s['h0_reject']}/{s['n_h0']}  H1 rejected {s['h1_reject']}/{s['n_h1']}  "
            f"mean H0 e1 {e1}",
            file=sys.stderr,
        )
    if report["n_h0"]:
        print(
            f"H0 rejection rate {report['h0_reject_rate']:.3f} over {report['n_h0']} datasets "
            f"(bound {report['h0_rate_bound']:.3f}; {elapsed:.0f}s)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
