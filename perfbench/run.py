"""ciforge benchmark: closed-loop timing of whole operations, one client.

    python3 perfbench/run.py --workload pnl_d20 --seed 1 --seconds 35 --trace 0

Run from the root of a ciforge source tree; the package is imported from
its ``src/`` directory, never from an installed copy.  Each workload seed
fixes a panel of generated inputs (made with ``ciforge.datagen`` during
set-up); the timed loop replays that panel in order, one operation after
another, for at least one full pass and until ``--seconds`` have elapsed,
while a timer samples the host's speed with a fixed calibration kernel.
Every output is checked.  ``--trace 1`` instead runs one pass in which each
operation runs once untraced and once traced, checks that both give
byte-identical reports, and reports the per-module split from the spans.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report, also written under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from scoring import panel_stats
from spans import Tracer, aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

ALPHA = 0.05
# A fixed seed whose panel digest is recorded in fingerprints.json: if the
# generators change, this panel changes whatever seed a run is given.
REFERENCE_SEED = 0
SETUP_REPEATS = 5
# The calibration kernel takes ~6 ms on a 2-core x86_64 Xeon host and
# runs every 0.2 s of the timed loop: ~3% of its time, ~34 samples in a 7 s
# operation.
CALIBRATION_ROUNDS = 40
CALIBRATION_PERIOD_S = 0.2

# End-to-end metrics: name -> (unit, better).  GATED are the ones
# BENCHMARK.json gates on and the last output line carries.  The rest are
# in the full report only: latency and throughput in seconds follow the
# shared host's speed, which drifts by half within minutes; the others are
# zero or a panel statistic on this commit, or undefined on oracle_verify.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "latency_mean_cal": ("cal", "lower"),
    "latency_p50_s": ("s", "lower"),
    "throughput_ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "failed_ratio": ("ratio", "lower"),
    "pvalue_auc": ("ratio", "higher"),
    "gap_auc": ("ratio", "higher"),
    "h0_reject_rate": ("ratio", "lower"),
    "h1_reject_rate": ("ratio", "higher"),
}
GATED = ("setup_s", "latency_mean_cal", "peak_rss_mb")

# Per-layer metrics: name -> (unit, better).  ".s" is busy time, ".self_s"
# busy time minus what traced child calls cover, ".calls" a call count;
# all are totals over one traced panel pass (set-up plus each operation).
PER_LAYER = {
    "classify.gbt_train.f1.s": ("s", "lower"),
    "classify.gbt_train.f2.s": ("s", "lower"),
    "classify.fit_boosted_trees.s": ("s", "lower"),
    "classify.fit_boosted_trees.self_s": ("s", "lower"),
    "classify.fit_boosted_trees.calls": ("count", "lower"),
    "classify.fit_boosted_regressor.s": ("s", "lower"),
    "classify.fit_boosted_regressor.self_s": ("s", "lower"),
    "classify.rounds_boosted": ("count", "lower"),
    "classify.best_round_ratio": ("ratio", "higher"),
    "classify.trees_built": ("count", "lower"),
    "classify.split_nodes": ("count", "lower"),
    "classify.Tree.predict.s": ("s", "lower"),
    "classify.Tree.predict.calls": ("count", "lower"),
    "classify.Tree.predict.rows": ("count", "lower"),
    "classify.FeatureEncoder.transform.s": ("s", "lower"),
    "classify.FeatureEncoder.transform.calls": ("count", "lower"),
    "classify.classifier_error.s": ("s", "lower"),
    "mimic.fit_reg_mimic.s": ("s", "lower"),
    "mimic.fit_reg_mimic.self_s": ("s", "lower"),
    "mimic.mimic_apply.s": ("s", "lower"),
    "core.split_three_way.s": ("s", "lower"),
    "core.take.s": ("s", "lower"),
    "core.take.calls": ("count", "lower"),
    "core.with_y.s": ("s", "lower"),
    "core.concat.s": ("s", "lower"),
    "core.strip_x.s": ("s", "lower"),
    "core.cells_copied": ("count", "lower"),
    "testkit.ci_test.s": ("s", "lower"),
    "testkit.ci_test.self_s": ("s", "lower"),
    "testkit.stratified_three_split.s": ("s", "lower"),
    "oracle.run_verify.s": ("s", "lower"),
    "oracle.run_verify.self_s": ("s", "lower"),
    "oracle.gap_report.s": ("s", "lower"),
    "oracle.gap_report.calls": ("count", "lower"),
    "oracle.ci_projection.s": ("s", "lower"),
    "oracle.ci_projection.calls": ("count", "lower"),
    "oracle.tv_distance.s": ("s", "lower"),
    "oracle.tv_distance.calls": ("count", "lower"),
    "oracle.max_coupling_mass_lp.s": ("s", "lower"),
    "oracle.max_coupling_mass_lp.calls": ("count", "lower"),
    "oracle.uniform_mimic_bound.s": ("s", "lower"),
    "datagen.gen_postnonlinear.s": ("s", "lower"),
    "datagen.sample_discrete.s": ("s", "lower"),
    "datagen.gen_discrete_joint.s": ("s", "lower"),
    "datagen.gen_discrete_joint.calls": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """One panel entry: a dataset (or a verify seed) and its H0/H1 label."""

    seed: int
    label: int | None  # 1 = H1 (dependent), 0 = H0, None = not a test
    data: object = None


def item_seed(workload: str, seed: int, index: int, part: str = "") -> int:
    """A 63-bit seed for one panel entry, derived without the program."""
    key = f"{workload}:{seed}:{index}:{part}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little") >> 1


def pnl_panel(cf, seed: int, size: int) -> list[Item]:
    items = []
    for i in range(size):
        ci = i % 2 == 0
        s = item_seed("pnl_d20", seed, i)
        cfg = cf.datagen.PostNonlinearConfig(d_z=20, n=3000, ci=ci, a_xy=2.0, seed=s)
        items.append(Item(s, 0 if ci else 1, cf.datagen.gen_postnonlinear(cfg)))
    return items


def discrete_panel(cf, seed: int, size: int) -> list[Item]:
    items = []
    for i in range(size):
        ci = i % 2 == 0
        s = item_seed("discrete_n6000", seed, i)
        joint = cf.datagen.gen_discrete_joint((3, 3, 3), ci=ci, seed=s)
        ds = cf.datagen.sample_discrete(joint, 6000, seed=item_seed("discrete_n6000", seed, i, "sample"))
        items.append(Item(s, 0 if ci else 1, ds))
    return items


def verify_panel(cf, seed: int, size: int) -> list[Item]:
    return [Item(item_seed("oracle_verify", seed, i), None) for i in range(size)]


def run_ci_test(cf, item: Item):
    return cf.testkit.ci_test(item.data, cf.testkit.TestConfig())


def check_ci_test(report) -> list[str]:
    """Recompute the decision and the p-value from the report's own fields."""
    problems = []
    if report.decision != ("H1" if report.gap > report.tau else "H0"):
        problems.append(f"decision {report.decision} disagrees with gap {report.gap} > tau {report.tau}")
    p = max(min(1.0, 2.0 * math.exp(-report.n_s * report.gap * report.gap / 2.0)), sys.float_info.min)
    if report.p_value != p:
        problems.append(f"p_value {report.p_value!r} != floored 2 exp(-n_s gap^2 / 2) = {p!r}")
    return problems


def ci_test_bytes(report) -> str:
    return report.to_json()


def run_verify(cf, item: Item):
    return cf.oracle.run_verify(seed=item.seed)


def check_verify(report) -> list[str]:
    problems = []
    if report.get("all_pass") is not True:
        problems.append("all_pass is not true")
    for name, check in report.get("checks", {}).items():
        if check.get("gating") and not check.get("pass"):
            problems.append(f"gating check {name} failed")
    return problems


def verify_bytes(report) -> str:
    # elapsed_s is wall-clock time, outside the report's determinism.
    return json.dumps({k: v for k, v in report.items() if k != "elapsed_s"}, sort_keys=True)


@dataclass(frozen=True)
class Workload:
    name: str
    panel_size: int
    make_panel: object
    run: object
    check: object
    to_bytes: object


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Panel sizes keep one pass (which every run completes) inside one run's
# time on a 2-core machine: ~7 s, ~1.2 s and ~0.7 s per operation.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pnl_d20", 4, pnl_panel, run_ci_test, check_ci_test, ci_test_bytes),
        Workload("discrete_n6000", 20, discrete_panel, run_ci_test, check_ci_test, ci_test_bytes),
        Workload("oracle_verify", 8, verify_panel, run_verify, check_verify, verify_bytes),
    )
}


def fingerprint(panel: list[Item]) -> str:
    """sha256 over every entry's label, seed, column schema and data bytes."""
    h = hashlib.sha256()
    for item in panel:
        head = {"label": item.label, "seed": item.seed}
        ds = item.data
        if ds is not None:
            head["schema"] = [
                [seg, c.name, c.kind, c.cardinality]
                for seg, cols in (("x", ds.x_cols), ("y", ds.y_cols), ("z", ds.z_cols))
                for c in cols
            ]
            head["shape"] = list(ds.data.shape)
        h.update(json.dumps(head, sort_keys=True).encode())
        if ds is not None:
            h.update(ds.data.astype("<f8", copy=False).tobytes(order="C"))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Tracing probes: where each public name is looked up by its caller
# ---------------------------------------------------------------------------


def _count_cells(tracer, args, result):
    base = getattr(result, "base", result)
    tracer.counters["core.cells_copied"] += int(base.data.size)


def _count_boosted(tracer, args, model):
    tracer.counters["classify.rounds_boosted"] += len(model.trees)
    tracer.counters["best_round_sum"] += int(model.best_round)
    _count_trees(tracer, args, model)


def _count_trees(tracer, args, model):
    tracer.counters["classify.trees_built"] += len(model.trees)
    tracer.counters["classify.split_nodes"] += sum(int((t.feature >= 0).sum()) for t in model.trees)


def _count_rows(tracer, args, result):
    tracer.counters["classify.Tree.predict.rows"] += int(args[1].shape[0])


def _gbt_role(args) -> str:
    n_x = getattr(getattr(args[0], "base", None), "n_x", None) if args else None
    return {0: "classify.gbt_train.f1"}.get(n_x, "classify.gbt_train.f2")


def install_probes(tracer: Tracer, cf) -> None:
    tk, cl, mi, co, orc, dg = cf.testkit, cf.classify, cf.mimic, cf.core, cf.oracle, cf.datagen
    tracer.wrap(tk, "ci_test", "testkit.ci_test")
    tracer.wrap(tk, "stratified_three_split", "testkit.stratified_three_split")
    tracer.wrap(tk, "split_three_way", "core.split_three_way")
    tracer.wrap(tk, "concat", "core.concat", _count_cells)
    tracer.wrap(tk, "strip_x", "core.strip_x", _count_cells)
    tracer.wrap(tk, "fit_reg_mimic", "mimic.fit_reg_mimic")
    tracer.wrap(tk, "mimic_apply", "mimic.mimic_apply")
    tracer.wrap(tk, "gbt_train", _gbt_role)
    tracer.wrap(tk, "classifier_error", "classify.classifier_error")
    tracer.wrap(cl, "fit_boosted_trees", "classify.fit_boosted_trees", _count_boosted)
    tracer.wrap(mi, "fit_boosted_regressor", "classify.fit_boosted_regressor", _count_trees)
    tracer.wrap(cl.Tree, "predict", "classify.Tree.predict", _count_rows)
    tracer.wrap(cl.FeatureEncoder, "transform", "classify.FeatureEncoder.transform")
    tracer.wrap(co.Dataset, "take", "core.take", _count_cells)
    tracer.wrap(co.Dataset, "with_y", "core.with_y", _count_cells)
    tracer.wrap(orc, "run_verify", "oracle.run_verify")
    for name in ("gap_report", "ci_projection", "tv_distance", "max_coupling_mass_lp", "uniform_mimic_bound"):
        tracer.wrap(orc, name, f"oracle.{name}")
    tracer.wrap(orc, "gen_discrete_joint", "datagen.gen_discrete_joint")
    for name in ("gen_postnonlinear", "sample_discrete", "gen_discrete_joint"):
        tracer.wrap(dg, name, f"datagen.{name}")


def layer_values(tracer: Tracer) -> dict:
    values: dict[str, float] = {}
    for name, st in aggregate(tracer.spans).items():
        values[f"{name}.s"] = st.busy_ns / 1e9
        values[f"{name}.self_s"] = st.self_ns / 1e9
        values[f"{name}.calls"] = st.calls
        values[f"{name}.raised"] = st.raised
    values.update(tracer.counters)
    rounds = tracer.counters.get("classify.rounds_boosted", 0)
    values["classify.best_round_ratio"] = tracer.counters.get("best_round_sum", 0) / rounds if rounds else 0.0
    return values


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # the first few failures

    def record(self, index: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append({"op": index, "problems": problems})


def calibration_kernel() -> float:
    """Fixed work that never calls the program: numpy calls on arrays of a
    few thousand values and Python loops over small dicts, as in its mix."""
    import numpy as np

    rng = np.random.default_rng(12345)
    acc = 0.0
    for _ in range(CALIBRATION_ROUNDS):
        a = rng.random(3000)
        acc += float(np.cumsum(a[np.argsort(a)])[-1])
        d: dict[int, float] = {}
        for j in range(300):
            d[j % 17] = d.get(j % 17, 0.0) + j * a[j]
        acc += sum(d.values())
    return acc


def calibration_s() -> float:
    """Wall time of one calibration kernel: the host's speed right now."""
    t = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t


class HostSampler:
    """Runs the calibration kernel from a SIGALRM timer every ``period_s``.

    While it is entered, the kernel interrupts the program between Python
    bytecodes, so its times sample the host's speed during the operations
    themselves.  ``spent_s`` is the time taken by the kernel so far, which
    the caller takes out of each operation's latency.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.samples: list[float] = []
        self.spent_s = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a kernel slower than the period: skip, never nest
            return
        self._busy = True
        try:
            dt = calibration_s()
            self.samples.append(dt)
            self.spent_s += dt
        finally:
            self._busy = False

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def timed_op(cf, wl: Workload, item: Item, paused=lambda: 0.0):
    """Run one operation; returns (result or None, wall seconds, problems).

    ``paused()`` gives the seconds so far that do not belong to the program
    (the host sampler's); their increase during the call is not counted.
    """
    p0 = paused()
    t = time.perf_counter()
    try:
        result = wl.run(cf, item)
    except Exception as exc:  # a failed operation is counted, not fatal
        return None, time.perf_counter() - t - (paused() - p0), [f"raised {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t - (paused() - p0)
    try:
        return result, dt, wl.check(result)
    except Exception as exc:  # output no longer has the checked shape
        return None, dt, [f"check raised {type(exc).__name__}: {exc}"]


def closed_loop(cf, wl: Workload, panel: list[Item], seconds: float, inputs_ok: bool):
    """One client: at least one pass over the panel, then until time is up.

    A host sampler runs the calibration kernel throughout, and its time is
    taken out of the latencies.  A repeated entry must reproduce its first
    report byte for byte.
    """
    tally = Tally()
    latencies = []
    first_bytes: list[str | None] = [None] * len(panel)
    first_results = [None] * len(panel)
    calibration_s()  # warm-up: first-call costs stay out of the samples
    sampler = HostSampler(CALIBRATION_PERIOD_S)
    with sampler:
        t_start = time.perf_counter()
        i = 0
        while i < len(panel) or time.perf_counter() - t_start < seconds:
            k = i % len(panel)
            result, dt, problems = timed_op(cf, wl, panel[k], lambda: sampler.spent_s)
            latencies.append(dt)
            if result is not None:
                b = wl.to_bytes(result)
                if i < len(panel):
                    first_bytes[k], first_results[k] = b, result
                elif b != first_bytes[k]:
                    problems = problems + ["report differs from the first pass over the panel"]
            if not inputs_ok:
                problems = problems + ["generated inputs differ from the recorded fingerprint"]
            tally.record(i, problems)
            i += 1
        wall = time.perf_counter() - t_start
    return tally, latencies, sampler.samples, wall, first_results


def traced_pass(cf, wl: Workload, panel: list[Item], seed: int, inputs_ok: bool):
    """Each entry untraced and traced (order alternating); reports must match."""
    tracer = Tracer()
    tally = Tally()
    plain_lat, traced_lat = [], []
    install_probes(tracer, cf)
    with tracer:
        traced_inputs = wl.make_panel(cf, seed, wl.panel_size)
    same_inputs = fingerprint(traced_inputs) == fingerprint(panel)

    def traced_op(k, item):
        tracer.op = k
        install_probes(tracer, cf)
        with tracer:
            return timed_op(cf, wl, item)

    for k, item in enumerate(panel):
        if k % 2 == 0:
            plain, dt_plain, p_plain = timed_op(cf, wl, item)
            traced_res, dt_traced, p_traced = traced_op(k, item)
        else:
            traced_res, dt_traced, p_traced = traced_op(k, item)
            plain, dt_plain, p_plain = timed_op(cf, wl, item)
        plain_lat.append(dt_plain)
        traced_lat.append(dt_traced)
        if plain is not None and traced_res is not None and wl.to_bytes(plain) != wl.to_bytes(traced_res):
            p_traced = p_traced + ["traced report differs from the untraced report"]
        if not same_inputs:
            p_traced = p_traced + ["traced set-up generated different inputs"]
        if not inputs_ok:
            p_plain = p_plain + ["generated inputs differ from the recorded fingerprint"]
            p_traced = p_traced + ["generated inputs differ from the recorded fingerprint"]
        tally.record(2 * k, p_plain)
        tally.record(2 * k + 1, p_traced)
    values = layer_values(tracer)
    values["trace.overhead_ratio"] = statistics.median(traced_lat) / statistics.median(plain_lat)
    return tally, values, tracer, plain_lat, traced_lat


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ciforge; print(time.perf_counter() - t)"
)


def fresh_import_s() -> float:
    """Seconds to import ciforge in a new interpreter with this environment."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, check=True, timeout=120
    )
    return float(done.stdout)


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "processes": 1,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def metric(name: str, value, table: dict) -> dict:
    return {"value": value, "unit": table[name][0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads, so BLAS/OpenMP start one thread
        os.environ[var] = "1"
    if not (SRC / "ciforge" / "__init__.py").is_file():
        print(f"no ciforge source tree at {SRC}; run from the repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    cf = importlib.import_module("ciforge")
    import_s = time.perf_counter() - t_import
    if Path(cf.__file__).resolve().parent != SRC / "ciforge":
        print(f"imported ciforge from {cf.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    # Set-up: import the package (again in fresh interpreters), and generate
    # and fingerprint the panel (and the reference panel), several times
    # each; set-up time is the median import plus the median repeat.
    import_s = [import_s] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    recorded = json.loads(FINGERPRINTS.read_text()).get(wl.name)
    repeat_s, digests = [], set()
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        panel = wl.make_panel(cf, args.seed, wl.panel_size)
        digest = fingerprint(panel)
        reference = fingerprint(wl.make_panel(cf, REFERENCE_SEED, wl.panel_size))
        repeat_s.append(time.perf_counter() - t)
        digests.add((digest, reference))
    setup_s = statistics.median(import_s) + statistics.median(repeat_s)
    inputs_ok = len(digests) == 1 and reference == recorded

    report = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "inputs": {
            "panel_size": wl.panel_size,
            "sha256": digest,
            "reference_seed": REFERENCE_SEED,
            "reference_sha256": reference,
            "recorded_reference_sha256": recorded,
            "deterministic": len(digests) == 1,
            "ok": inputs_ok,
        },
        "setup": {"import_s": import_s, "repeat_s": repeat_s},
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        tally, values, tracer, plain_lat, traced_lat = traced_pass(cf, wl, panel, args.seed, inputs_ok)
        tracer.write(OUT / f"spans-{wl.name}.tsv")  # newest traced run only
        report["per_layer"] = {n: {"value": values.get(n, 0), "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()}
        report["all_layer_values"] = values
        report["unwrapped_names"] = sorted(tracer.missing)
        report["untraced_latencies_s"] = plain_lat
        report["traced_latencies_s"] = traced_lat
        final_metrics = {n: metric(n, values.get(n, 0), PER_LAYER) for n in PER_LAYER}
    else:
        tally, latencies, calibrations, wall, results = closed_loop(cf, wl, panel, args.seconds, inputs_ok)
        e2e = {
            "setup_s": setup_s,
            "latency_mean_cal": statistics.fmean(latencies) / statistics.fmean(calibrations),
            "latency_p50_s": statistics.median(latencies),
            "throughput_ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_ratio": tally.failed / tally.attempted,
        }
        if all(item.label is not None for item in panel) and all(r is not None for r in results):
            stats = panel_stats(
                [r.p_value for r in results], [r.gap for r in results], [item.label for item in panel], ALPHA
            )
            report["panel"] = stats
            e2e.update({k: stats[k] for k in ("pvalue_auc", "gap_auc", "h0_reject_rate", "h1_reject_rate")})
        report["end_to_end"] = {n: {"value": v, "unit": END_TO_END[n][0], "better": END_TO_END[n][1]} for n, v in e2e.items()}
        report["latency_samples"] = len(latencies)
        report["latencies_s"] = latencies
        report["calibrations_s"] = calibrations
        report["timed_wall_s"] = wall
        final_metrics = {n: metric(n, e2e[n], END_TO_END) for n in GATED}

    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["problems"] = tally.problems
    correct = tally.failed == 0
    report["correct"] = correct
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1, sort_keys=True))

    for name, m in (report.get("end_to_end") or report["per_layer"]).items():
        print(f"{wl.name:15s} {name:42s} {m['value']:>16.6g} {m['unit']:6s} ({m['better']} is better)")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": final_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
