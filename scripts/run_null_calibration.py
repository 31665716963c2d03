#!/usr/bin/env python3
"""Size and power grid: H0 and H1 rejections at alpha = 0.05 on three sets.

Each set holds ``--n-h0`` conditionally independent and ``--n-h1``
dependent datasets; the full test runs once on each:

* ``pnl_d5``: post-nonlinear, n = 3000, d_z = 5;
* ``pnl_d20``: post-nonlinear, n = 3000, d_z = 20;
* ``discrete``: 6000 draws of a random 3x3x3 joint.

Per set the report gives the H0 and H1 rejections and the mean H0 ``e1``,
the error of the classifier that does not see x.  Under H0 that error
should sit near 0.5 when the mimic is faithful: a lower value means (y, z)
alone tells real rows from mimicked ones.  Over all sets it gives the H0
rejection rate and alpha plus two binomial standard errors at that count,
the bound the rate should stay under.  The defaults run 70 + 70 datasets
per set, 210 H0 in total.

Usage:
    python scripts/run_null_calibration.py [--n-h0 70] [--n-h1 70]
        [--alpha 0.05] [--seed 42] [--parallel 2] [--out report.json]
"""

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from ciforge.datagen import PostNonlinearConfig, gen_discrete_joint, gen_postnonlinear, sample_discrete
from ciforge.testkit import TestConfig, child_seed, ci_test

SETS = ("pnl_d5", "pnl_d20", "discrete")


def make_dataset(name: str, ci: bool, tag: str, seed: int):
    if name == "discrete":
        joint = gen_discrete_joint((3, 3, 3), ci=ci, seed=child_seed(seed, tag + "-joint"))
        return sample_discrete(joint, 6000, seed=child_seed(seed, tag + "-sample"))
    d_z = {"pnl_d5": 5, "pnl_d20": 20}[name]
    return gen_postnonlinear(PostNonlinearConfig(d_z=d_z, n=3000, ci=ci, seed=child_seed(seed, tag)))


def run_one(args):
    name, ci, i, seed, alpha = args
    tag = f"grid-{name}-{'h0' if ci else 'h1'}-{i}"
    ds = make_dataset(name, ci, tag, seed)
    rep = ci_test(ds, TestConfig(seed=child_seed(seed, tag + "-test"), alpha=alpha))
    return {
        "set": name,
        "truth": "CI" if ci else "NOTCI",
        "index": i,
        "decision": rep.decision,
        "e1": rep.e1,
        "e2": rep.e2,
        "gap": rep.gap,
        "p_value": rep.p_value,
    }


def summarize(rows, alpha: float) -> dict:
    sets = {}
    for name in SETS:
        h0 = [r for r in rows if r["set"] == name and r["truth"] == "CI"]
        h1 = [r for r in rows if r["set"] == name and r["truth"] == "NOTCI"]
        sets[name] = {
            "n_h0": len(h0),
            "h0_reject": sum(r["decision"] == "H1" for r in h0),
            "n_h1": len(h1),
            "h1_reject": sum(r["decision"] == "H1" for r in h1),
            "mean_h0_e1": sum(r["e1"] for r in h0) / len(h0) if h0 else None,
        }
    n_h0 = sum(s["n_h0"] for s in sets.values())
    n_reject = sum(s["h0_reject"] for s in sets.values())
    return {
        "sets": sets,
        "n_h0": n_h0,
        "h0_reject": n_reject,
        "h0_reject_rate": n_reject / n_h0 if n_h0 else None,
        "h0_rate_bound": alpha + 2.0 * math.sqrt(alpha * (1.0 - alpha) / n_h0) if n_h0 else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--n-h0", type=int, default=70, help="CI datasets per set")
    ap.add_argument("--n-h1", type=int, default=70, help="dependent datasets per set")
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--parallel", type=int, default=2)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    jobs = [
        (name, ci, i, args.seed, args.alpha)
        for name in SETS
        for ci, count in ((True, args.n_h0), (False, args.n_h1))
        for i in range(count)
    ]
    t0 = time.perf_counter()
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            rows = list(pool.map(run_one, jobs))
    else:
        rows = [run_one(j) for j in jobs]
    elapsed = time.perf_counter() - t0

    report = {"alpha": args.alpha, "seed": args.seed, **summarize(rows, args.alpha), "elapsed_s": elapsed, "rows": rows}
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
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
