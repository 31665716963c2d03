#!/usr/bin/env python3
"""Where the exact-oracle verify battery spends its time, section by section.

For the checkout this script sits in (its ``src`` directory goes first on
PYTHONPATH of the child process), one fresh interpreter loads scipy's LP
solver once, then for each seed in ``SEEDS`` times in process seconds:

* ``total``: the default ``run_verify(seed)``;
* each battery section: ``run_verify(seed)`` with every other count set to 0
  (``pairs``: the TV identities on random pairs, ``gap_joints``: the gap
  envelopes, ``ci`` and ``dep``: zero gap if and only if CI, ``sparse``:
  zero-mass cells, ``lp``: the coupling LP cross-check).

Each run is also reported in calibration units: its time divided by the
mean of two timings of ``bench_split_kernel.py``'s calibration kernel (the
median of three runs, in process seconds), taken in the same interpreter
just before and just after it, so host drift between invocations mostly
cancels.  Medians and every run are reported, plus a sha256 over the
default reports without their wall-clock ``elapsed_s`` (each
``json.dumps(..., sort_keys=True)``, one per line in seed order), so two
checkouts can be compared side by side; the digest must agree between them
when only the speed changes.  BLAS threads are pinned to 1 unless already
set.

Usage:
    python scripts/bench_verify.py [--out BENCH.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SEEDS = tuple(range(8))
SECTIONS = {
    "pairs": "n_pairs",
    "gap_joints": "n_gap_joints",
    "ci": "n_ci",
    "dep": "n_dep",
    "sparse": "n_sparse",
    "lp": "n_lp",
}
PROBE = """
import hashlib, json, sys, time
from bench_split_kernel import calibration_s
from ciforge.oracle import run_verify
seeds, sections = json.loads(sys.argv[1]), json.loads(sys.argv[2])
zero = {count: 0 for count in sections.values()}
run_verify(seed=0, **{**zero, "n_lp": 1})  # scipy's import stays out of every timing

def timed(name, seed, **counts):
    before = calibration_s(time.process_time)
    t0 = time.process_time()
    report = run_verify(seed=seed, **counts)
    t = time.process_time() - t0
    out[name].append(t)
    out[name + "_cal"].append(2.0 * t / (before + calibration_s(time.process_time)))
    return report

out = {key: [] for name in ["total", *sections] for key in (name, name + "_cal")}
lines = []
for seed in seeds:
    report = timed("total", seed)
    del report["elapsed_s"]
    lines.append(json.dumps(report, sort_keys=True))
    for name, count in sections.items():
        timed(name, seed, **{k: 0 for k in zero if k != count})
out["sha256"] = hashlib.sha256("\\n".join(lines).encode()).hexdigest()
print(json.dumps(out))
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    # The script directory holds the calibration kernel the probe imports.
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    return env


def measure(seeds) -> dict:
    argv = [sys.executable, "-c", PROBE, json.dumps(list(seeds)), json.dumps(SECTIONS)]
    out = json.loads(subprocess.run(argv, env=child_env(), capture_output=True, check=True).stdout)
    report = {
        name: {
            "median_s": statistics.median(out[name]),
            "runs_s": out[name],
            "median_cal": statistics.median(out[name + "_cal"]),
            "runs_cal": out[name + "_cal"],
        }
        for name in ("total", *SECTIONS)
    }
    report["sha256"] = out["sha256"]
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the JSON report here instead of stdout")
    args = ap.parse_args(argv)

    report = measure(SEEDS)
    report["seeds"] = list(SEEDS)
    report["env"] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }
    text = json.dumps(report, indent=2)
    if args.out is None:
        print(text)
    else:
        Path(args.out).write_text(text + "\n")
    sections = ", ".join(f"{name} {report[name]['median_s']:.3f}" for name in SECTIONS)
    total = report["total"]
    print(f"run_verify {total['median_s']:.3f} s, {total['median_cal']:.1f} cal ({sections})", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
