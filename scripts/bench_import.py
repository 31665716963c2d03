#!/usr/bin/env python3
"""What loading the package costs: import time, resident memory, one CLI test.

For the checkout this script sits in (its ``src`` directory goes first on
PYTHONPATH of every child process):

* ``import``: ``REPEATS`` fresh interpreters each import numpy, then time
  ``import ciforge`` and read ``ru_maxrss`` right after it;
* ``test``: ``REPEATS`` fresh runs of ``ciforge test --data`` on one fixed
  seeded 1000-row ``gen`` dataset (pnl, d_z = 5, seed 0), each timed from
  start to exit, with the child's peak RSS and a sha256 of its stdout.

Medians and every run are reported, so two checkouts can be compared side by
side; the stdout digest must agree between them, since only loading changes.
BLAS threads are pinned to 1 unless already set.

Usage:
    python scripts/bench_import.py [--out BENCH.json]
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
REPEATS = 7
GEN = ["gen", "--kind", "pnl", "--n", "1000", "--d-z", "5", "--seed", "0"]
IMPORT_PROBE = """
import json, resource, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import ciforge
t2 = time.perf_counter()
print(json.dumps({"numpy_s": t1 - t0, "ciforge_s": t2 - t1,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_measured(argv, env) -> tuple[float, float, int, bytes]:
    """(wall seconds, peak RSS in MB, exit code, stdout) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode, stdout


def measure(repeats: int) -> dict:
    env = child_env()
    probes = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, check=True)
        probes.append(json.loads(out.stdout))

    cli = [sys.executable, "-m", "ciforge.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        data = str(Path(tmp) / "pnl.csv")
        subprocess.run(cli + GEN + ["--data-out", data], env=env, capture_output=True, check=True)
        runs = [run_measured(cli + ["test", "--data", data], env) for _ in range(repeats)]

    digests = sorted({hashlib.sha256(stdout).hexdigest() for *_, stdout in runs})
    codes = sorted({code for _, _, code, _ in runs})
    if len(digests) != 1 or not set(codes) <= {0, 1}:
        raise SystemExit(f"ciforge test was not deterministic or failed: digests {digests}, exit codes {codes}")
    return {
        "import": {
            "median_s": statistics.median(p["ciforge_s"] for p in probes),
            "runs_s": [p["ciforge_s"] for p in probes],
            "numpy_median_s": statistics.median(p["numpy_s"] for p in probes),
            "maxrss_mb": statistics.median(p["maxrss_kb"] / 1024 for p in probes),
        },
        "test": {
            "gen": " ".join(GEN),
            "median_s": statistics.median(r[0] for r in runs),
            "runs_s": [r[0] for r in runs],
            "peak_rss_mb": statistics.median(r[1] for r in runs),
            "exit_code": codes[0],
            "stdout_sha256": digests[0],
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the JSON report here instead of stdout")
    args = ap.parse_args(argv)

    report = measure(REPEATS)
    report["repeats"] = REPEATS
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
    print(
        f"import ciforge {report['import']['median_s']:.3f} s, {report['import']['maxrss_mb']:.1f} MB; "
        f"test {report['test']['median_s']:.3f} s, {report['test']['peak_rss_mb']:.1f} MB",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
