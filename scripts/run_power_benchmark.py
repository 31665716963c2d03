#!/usr/bin/env python3
"""Power sweep: ROC-AUC of p-values over mixed H0/H1 datasets vs dimension.

Runs the benchmark at several conditioning dimensions in one pool and
prints one AUC per point, with per-dataset p-values via --scores-dir.

Usage:
    python scripts/run_power_benchmark.py [--dims 1,5,20] [--n 1000]
        [--datasets 20] [--a-xy 2.0] [--seed 7] [--parallel 4]
"""

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ciforge.bench import BenchmarkConfig, benchmark_cases, run_cases, summarize, write_scores_csv
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

    tester = TestConfig(seed=args.seed)
    configs = {
        d_z: BenchmarkConfig(n_h0=args.datasets, n_h1=args.datasets, n=args.n, d_z=d_z, a_xy=args.a_xy, tester=tester)
        for d_z in (int(s) for s in args.dims.split(","))
    }
    cases = [replace(c, fields={"d_z": d_z, **c.fields}) for d_z, cfg in configs.items() for c in benchmark_cases(cfg)]
    rows = run_cases(cases, args.parallel)

    points = []
    for d_z in configs:
        point_rows = [r for r in rows if r["d_z"] == d_z]
        auc = summarize(point_rows)["roc_auc"]
        wall = sum(r["wall_clock_s"] for r in point_rows)
        points.append({"d_z": d_z, "roc_auc": auc, "total_test_s": wall})
        print(f"d_z={d_z:4d}  roc_auc={auc}  ({wall:.0f}s of tester time)", file=sys.stderr)
        if args.scores_dir:
            out = Path(args.scores_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_scores_csv(point_rows, out / f"scores_dz{d_z}.csv")
    print(json.dumps({"n": args.n, "a_xy": args.a_xy, "points": points}, sort_keys=True, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
