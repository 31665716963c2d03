#!/usr/bin/env python3
"""Power sweep: ROC-AUC of p-values over mixed H0/H1 datasets vs dimension.

Runs the benchmark at several conditioning dimensions and prints one AUC
per point, with the per-dataset p-values available via --scores-dir.

Usage:
    python scripts/run_power_benchmark.py [--dims 1,5,20] [--n 1000]
        [--datasets 20] [--a-xy 2.0] [--seed 7] [--parallel 4]
"""

import argparse
import json
import sys
from pathlib import Path

from ciforge.bench import BenchmarkConfig, run_benchmark, write_scores_csv
from ciforge.testkit import TestConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="1,5,20", help="comma-separated d_z values")
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--datasets", type=int, default=20, help="datasets per class per point")
    ap.add_argument("--a-xy", type=float, default=2.0, dest="a_xy")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--parallel", type=int, default=4)
    ap.add_argument("--scores-dir", help="write per-point (id,label,p) CSVs here")
    args = ap.parse_args(argv)

    points = []
    for d_z in (int(s) for s in args.dims.split(",")):
        cfg = BenchmarkConfig(
            n_h0=args.datasets,
            n_h1=args.datasets,
            n=args.n,
            d_z=d_z,
            a_xy=args.a_xy,
            tester=TestConfig(seed=args.seed),
            parallel=args.parallel,
        )
        rep = run_benchmark(cfg)
        wall = sum(r["wall_clock_s"] for r in rep.rows)
        points.append({"d_z": d_z, "roc_auc": rep.roc_auc, "total_test_s": wall})
        print(f"d_z={d_z:4d}  roc_auc={rep.roc_auc}  ({wall:.0f}s of tester time)", file=sys.stderr)
        if args.scores_dir:
            out = Path(args.scores_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_scores_csv(rep, out / f"scores_dz{d_z}.csv")
    print(json.dumps({"n": args.n, "a_xy": args.a_xy, "points": points}, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
