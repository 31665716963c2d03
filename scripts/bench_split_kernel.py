#!/usr/bin/env python3
"""Median time of three seeded boosted-tree fits: the split search's hot layer.

Workloads, each fitted ``--repeats`` times on the same seeded inputs:

* ``classifier_continuous``: ``fit_boosted_trees`` with the default
  ``GbtConfig`` on 1000 training rows of 22 continuous features;
* ``classifier_one_hot``: the same on 2000 rows of three one-hot encoded
  3-level columns (9 features);
* ``classifier_rounded``: the same on 2000 rows of 9 continuous features
  rounded to 0.01, so every feature is tied but holds hundreds of values.

Each entry reports the median and every run in seconds and in calibration
units: each fit divided by the time of a fixed numpy kernel (the median of
three runs) taken just before and just after it, so a host that runs slower
for a while moves both.
It also reports the trees and split nodes built, and a sha256 over every
tree's arrays, so two versions of the package can be checked for
bit-identical fits as well as timed.  Run it from the repository root; set
PYTHONPATH to the ``src`` directory to time.

Usage:
    python scripts/bench_split_kernel.py [--repeats 5] [--scale 1.0] [--rounds 200]
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from ciforge.classify import GbtConfig, fit_boosted_trees  # noqa: E402


def _continuous(rng, n, d):
    f = rng.standard_normal((n, d))
    w = rng.standard_normal(d) / np.sqrt(d)
    return f, f @ w


def _one_hot(rng, n, columns=3, levels=3):
    codes = rng.integers(0, levels, (n, columns))
    f = np.zeros((n, columns * levels))
    for c in range(columns):
        f[np.arange(n), c * levels + codes[:, c]] = 1.0
    return f, rng.standard_normal((levels,) * columns)[tuple(codes.T)]


def _rounded(rng, n, d):
    f, signal = _continuous(rng, n, d)
    return np.round(f, 2), signal


def _labels(rng, signal):
    return (rng.random(signal.size) < 1.0 / (1.0 + np.exp(-2.0 * signal))).astype(np.float64)


def workloads(scale: float, rounds: int, seed: int = 0):
    """name -> (zero-argument fit, shape of its training matrix)."""
    rng = np.random.default_rng(seed)
    n_skip, n_cont, n_hot, n_round = (max(4, int(round(k * scale))) for k in (1000, 1000, 2000, 2000))

    # The first draws once fed a regressor workload; drawing them still keeps
    # every input, and so every digest, equal to BENCH_split_kernel.json's.
    _continuous(rng, n_skip, 20)
    rng.standard_normal(n_skip)

    f_all, s = _continuous(rng, n_cont + n_cont // 2, 22)
    y_all = _labels(rng, s)
    cont = (f_all[:n_cont], y_all[:n_cont], f_all[n_cont:], y_all[n_cont:])

    f_all, s = _one_hot(rng, n_hot + n_hot // 2)
    y_all = _labels(rng, s)
    hot = (f_all[:n_hot], y_all[:n_hot], f_all[n_hot:], y_all[n_hot:])

    # Drawn after the others, so their inputs stay the recorded ones.
    f_all, s = _rounded(rng, n_round + n_round // 2, 9)
    y_all = _labels(rng, s)
    rounded = (f_all[:n_round], y_all[:n_round], f_all[n_round:], y_all[n_round:])

    cfg = GbtConfig(rounds=rounds)
    return {
        "classifier_continuous": (lambda: fit_boosted_trees(*cont, cfg), cont[0].shape),
        "classifier_one_hot": (lambda: fit_boosted_trees(*hot, cfg), hot[0].shape),
        "classifier_rounded": (lambda: fit_boosted_trees(*rounded, cfg), rounded[0].shape),
    }


def calibration_kernel() -> float:
    """Fixed work that never calls the package, a few milliseconds of the
    fits' mix: numpy calls on arrays of a few thousand values and a short
    Python loop over floats."""
    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(12):
        a = rng.random(2000)
        acc += float(np.cumsum(a[np.argsort(a, kind="stable")])[-1])
        for v in a[:200].tolist():
            acc += v * v / (v + 1.0)
    return acc


def calibration_s() -> float:
    """Median wall time of three calibration kernels: the host's speed now."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_kernel()
        runs.append(time.perf_counter() - t0)
    return statistics.median(runs)


def digest(model) -> str:
    h = hashlib.sha256(str(model.best_round).encode())
    for t in model.trees:
        for a in (t.feature, t.threshold, t.left, t.right, t.value):
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="timed fits per workload")
    ap.add_argument("--scale", type=float, default=1.0, help="multiplies every workload's row count")
    ap.add_argument("--rounds", type=int, default=200, help="boosting rounds (a cap for the classifiers)")
    args = ap.parse_args(argv)
    if args.repeats < 1 or args.rounds < 1 or not args.scale > 0:
        ap.error("--repeats and --rounds must be >= 1 and --scale > 0")

    out = {}
    for name, (fit, shape) in workloads(args.scale, args.rounds).items():
        runs, cals = [], [calibration_s()]
        for _ in range(args.repeats):
            t0 = time.perf_counter()
            model = fit()
            runs.append(time.perf_counter() - t0)
            cals.append(calibration_s())
        # Each fit over the mean of the kernels timed just before and after it.
        runs_cal = [2.0 * t / (a + b) for t, a, b in zip(runs, cals, cals[1:])]
        median = statistics.median(runs)
        out[name] = {
            "shape": list(shape),
            "median_s": median,
            "runs_s": runs,
            "median_cal": statistics.median(runs_cal),
            "runs_cal": runs_cal,
            "trees": len(model.trees),
            "split_nodes": sum(int((t.feature >= 0).sum()) for t in model.trees),
            "sha256": digest(model),
        }
        print(f"{name:22s} {median:.4f} s  {out[name]['median_cal']:.1f} cal  ({len(model.trees)} trees)", file=sys.stderr)
    env = {"python": platform.python_version(), "numpy": np.__version__, "machine": platform.machine(), "nproc": os.cpu_count()}
    print(json.dumps({"env": env, "repeats": args.repeats, "scale": args.scale, "rounds": args.rounds, "workloads": out}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
