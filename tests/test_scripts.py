"""Smoke runs of the experiment scripts on tiny inputs."""

import importlib.util
import json
from pathlib import Path

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


def test_bench_import(tmp_path, monkeypatch):
    script = load_script("bench_import")
    monkeypatch.setattr(script, "REPEATS", 1)
    out = tmp_path / "import.json"
    assert script.main(["--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report) == {"import", "test", "repeats", "env"} and report["repeats"] == 1
    assert set(report["import"]) == {"median_s", "runs_s", "numpy_median_s", "maxrss_mb"}
    assert set(report["test"]) == {"gen", "median_s", "runs_s", "peak_rss_mb", "exit_code", "stdout_sha256"}
    assert len(report["import"]["runs_s"]) == len(report["test"]["runs_s"]) == 1
    # The recorded sides differ only in what they load, so `ciforge test` prints their report.
    record = json.loads((SCRIPTS.parent / "BENCH_import.json").read_text())["change"]["test"]
    assert report["test"]["exit_code"] == record["exit_code"]
    assert report["test"]["stdout_sha256"] == record["stdout_sha256"]
