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
    assert script.main(["--n-discrete", "1", "--n-pnl", "0", "--parallel", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_datasets"] == 1
    assert report["rows"][0]["kind"] == "discrete"
    assert report["rejection_rate"] == report["n_reject"] / 1


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
    assert set(report["workloads"]) == {"regressor", "classifier_continuous", "classifier_one_hot"}
    reg = report["workloads"]["regressor"]
    assert reg["shape"] == [20, 20] and reg["trees"] == 2 and len(reg["runs_s"]) == 1
    assert report["workloads"]["classifier_one_hot"]["shape"] == [40, 9]
