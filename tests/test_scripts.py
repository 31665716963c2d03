"""Smoke runs of the experiment scripts on tiny inputs."""

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from ciforge.bench import BenchmarkConfig, roc_auc, run_benchmark, run_relations
from ciforge.classify import GbtConfig
from ciforge.core import Column, Relation, derive_rng
from ciforge.testkit import TestConfig

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_null_calibration(capsys):
    script = load_script("run_null_calibration")
    assert script.main(["--n-h0", "1", "--n-h1", "1", "--parallel", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["sets"]) == {"pnl_d5", "pnl_d20", "discrete"}
    assert [(r["set"], r["truth"]) for r in report["rows"]] == [
        (name, truth) for name in ("pnl_d5", "pnl_d20", "discrete") for truth in ("CI", "NOTCI")
    ]
    for name, s in report["sets"].items():
        h0 = [r for r in report["rows"] if r["set"] == name and r["truth"] == "CI"]
        assert s["n_h0"] == s["n_h1"] == 1
        assert s["mean_h0_e1"] == h0[0]["e1"]
    assert report["n_h0"] == 3
    assert report["h0_reject_rate"] == report["h0_reject"] / 3
    assert report["h0_rate_bound"] == 0.05 + 2 * (0.05 * 0.95 / 3) ** 0.5


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    """A serial one-plus-one-per-set grid report, read back from ``--out``."""
    out = tmp_path_factory.mktemp("grid") / "grid.json"
    argv = ["--n-h0", "1", "--n-h1", "1", "--parallel", "1", "--out", str(out)]
    assert load_script("run_null_calibration").main(argv) == 0
    return json.loads(out.read_text())


def test_null_calibration_pool_matches_serial(grid, tmp_path):
    """The script's default pool path runs when it is loaded by path, and
    gives the serial rows."""
    out = tmp_path / "pool.json"
    argv = ["--n-h0", "1", "--n-h1", "1", "--parallel", "2", "--out", str(out)]
    assert load_script("run_null_calibration").main(argv) == 0
    strip = lambda rows: [{k: v for k, v in r.items() if k != "wall_clock_s"} for r in rows]
    assert strip(json.loads(out.read_text())["rows"]) == strip(grid["rows"])


def test_null_calibration_set_auc_ranks_p_values(grid):
    for name, s in grid["sets"].items():
        rows = [r for r in grid["rows"] if r["set"] == name]
        expect = roc_auc([-r["p_value"] for r in rows], [1 if r["truth"] == "NOTCI" else 0 for r in rows])
        assert s["roc_auc"] == expect, name


@pytest.mark.parametrize("parallel", ["0", "-3"])
@pytest.mark.parametrize(
    "script, argv",
    [
        ("run_null_calibration", ["--n-h0", "1", "--n-h1", "1"]),
        ("run_power_benchmark", ["--dims", "1", "--n", "120", "--datasets", "1"]),
    ],
)
def test_parallel_below_one_rejected(script, argv, parallel):
    with pytest.raises(ValueError, match="parallel"):
        load_script(script).main([*argv, "--parallel", parallel])


def test_sweeps_share_report_keys(grid):
    """Rows of every sweep hold the caller's naming fields plus one set of
    report fields."""
    report_keys = {"decision", "p_value", "gap", "e1", "e2", "wall_clock_s"}
    tester = TestConfig(seed=3, gbt=GbtConfig(rounds=15))
    bench = run_benchmark(BenchmarkConfig(n_h0=1, n_h1=1, n=150, d_z=2, tester=tester))
    rng = derive_rng(0, "report-keys")
    matrix = rng.standard_normal((150, 3))
    cols = {name: Column(name) for name in "uvw"}
    rels = run_relations(list("uvw"), matrix, cols, [Relation("u", "w", ("v",), "CI")], tester)
    for rows, naming in (
        (bench.rows, {"dataset_id", "truth"}),
        (rels.rows, {"dataset_id", "relation", "truth"}),
        (grid["rows"], {"set", "index", "truth"}),
    ):
        for row in rows:
            assert set(row) == naming | report_keys


def test_only_run_cases_starts_worker_processes():
    """Every sweep runs through ``bench.run_cases``: no other file under src/,
    scripts/ or tests/ imports a process-pool module, so no sweep keeps its
    own pool, seed labels or row fields."""
    offenders = []
    for path in sorted(p for d in ("src", "scripts", "tests") for p in (SCRIPTS.parent / d).rglob("*.py")):
        if path == SCRIPTS.parent / "src" / "ciforge" / "bench.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
                if any(m.split(".")[0] in ("concurrent", "multiprocessing") for m in modules):
                    offenders.append(f"{path.relative_to(SCRIPTS.parent)}:{node.lineno}")
    assert not offenders


def test_power_benchmark(capsys):
    script = load_script("run_power_benchmark")
    assert script.main(["--dims", "1", "--n", "120", "--datasets", "1", "--parallel", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n"] == 120
    assert [p["d_z"] for p in report["points"]] == [1]


def test_bench_split_kernel(capsys):
    script = load_script("bench_split_kernel")
    assert script.main(["--repeats", "1", "--scale", "0.02", "--rounds", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["workloads"]) == {"classifier_continuous", "classifier_one_hot", "classifier_rounded"}
    cont = report["workloads"]["classifier_continuous"]
    assert cont["shape"] == [20, 22] and cont["trees"] == 2 and len(cont["runs_s"]) == 1
    assert report["workloads"]["classifier_one_hot"]["shape"] == [40, 9]


def test_bench_split_kernel_digests_match_the_record():
    """The classifier fits are the ones BENCH_split_kernel.json recorded,
    tree for tree."""
    script = load_script("bench_split_kernel")
    record = json.loads((SCRIPTS.parent / "BENCH_split_kernel.json").read_text())["change"]["workloads"]
    for name, (fit, shape) in script.workloads(1.0, 200).items():
        assert list(shape) == record[name]["shape"]
        assert script.digest(fit()) == record[name]["sha256"], name

