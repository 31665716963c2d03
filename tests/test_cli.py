"""Command-line front end: subcommands, exit codes, JSON output."""

import json

import pytest

from ciforge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def h0_csv(tmp_path, capsys):
    out = tmp_path / "h0.csv"
    run_cli(
        capsys, "gen", "--kind", "discrete", "--sizes", "3,3,3", "--ci", "--n", "240",
        "--data-out", str(out), "--seed", "31",
    )
    return out


class TestGen:
    def test_writes_csv_sidecar_manifest(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code, stdout, _ = run_cli(
            capsys, "gen", "--kind", "pnl", "--n", "80", "--d-z", "3", "--seed", "5",
            "--data-out", str(out),
        )
        assert code == 0
        assert out.exists()
        sidecar = tmp_path / "data.csv.meta.json"
        manifest = tmp_path / "data.csv.manifest.json"
        assert sidecar.exists() and manifest.exists()
        man = json.loads(manifest.read_text())
        assert man["n"] == 80 and man["seed"] == 5
        assert json.loads(stdout) == man

    def test_discrete_kind(self, tmp_path, capsys):
        out = tmp_path / "disc.csv"
        code, stdout, _ = run_cli(
            capsys, "gen", "--kind", "discrete", "--sizes", "3,2,4", "--n", "60",
            "--data-out", str(out), "--seed", "2",
        )
        assert code == 0
        meta = json.loads((tmp_path / "disc.csv.meta.json").read_text())
        assert meta["columns"]["x_0"]["cardinality"] == 3
        assert meta["columns"]["z_0"]["cardinality"] == 4


class TestTest:
    def test_h0_data_exits_zero_with_report(self, h0_csv, capsys, tmp_path):
        report_path = tmp_path / "rep.json"
        code, stdout, stderr = run_cli(
            capsys, "test", "--data", str(h0_csv), "--alpha", "0.05", "--seed", "7",
            "--out", str(report_path),
        )
        rep = json.loads(stdout)
        assert rep["decision"] in ("H0", "H1")
        assert code == (1 if rep["decision"] == "H1" else 0)
        assert "decision=" in stderr
        assert json.loads(report_path.read_text()) == rep

    def test_seed_determinism_byte_level(self, h0_csv, capsys):
        _, out1, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--seed", "9")
        _, out2, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--seed", "9")
        assert out1 == out2

    def test_env_seed_fallback(self, h0_csv, capsys, monkeypatch):
        monkeypatch.setenv("CIFORGE_SEED", "123")
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv))
        assert json.loads(out)["seed"] == 123

    def test_tau_flag(self, h0_csv, capsys):
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--tau", "0.9", "--seed", "3")
        rep = json.loads(out)
        assert rep["tau"] == 0.9
        assert rep["decision"] == "H0"

    @pytest.mark.parametrize("flags", [("--alpha", "2"), ("--tau", "-0.1")])
    def test_out_of_range_threshold_exits_two(self, flags, h0_csv, capsys):
        """alpha = 2 would give tau = 0 and a negative tau would decide H1
        on any gap; both are refused before a report exists."""
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(h0_csv), *flags)
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr

    def test_tester_seed_sets_master_seed(self, h0_csv, tmp_path, capsys, monkeypatch):
        """A seed under tester is used when there is no --seed or top-level
        seed, and wins over CIFORGE_SEED."""
        monkeypatch.setenv("CIFORGE_SEED", "123")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tester": {"seed": 9}}))
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert json.loads(out)["seed"] == 9
        cfg.write_text(json.dumps({"seed": 5, "tester": {"seed": 9}}))
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert json.loads(out)["seed"] == 5
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg), "--seed", "4")
        assert json.loads(out)["seed"] == 4

    @pytest.mark.parametrize("tester", [{"gbt": {"rounds": "5"}}, {"alpha": "0.05"}])
    def test_wrong_typed_config_value_exits_two(self, tester, h0_csv, tmp_path, capsys):
        """The value passes key validation and fails when the config checks
        its range; exit 1 would read as "decided H1"."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tester": tester}))
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr

    @pytest.mark.parametrize("sidecar", ["typo.json", "extra.json"])
    def test_bad_sidecar_exits_two(self, sidecar, h0_csv, tmp_path, capsys):
        """A sidecar that is missing, or that names a column the CSV lacks,
        would otherwise read every categorical column as continuous."""
        meta = json.loads((tmp_path / "h0.csv.meta.json").read_text())
        meta["columns"]["z_9"] = {"kind": "categorical", "cardinality": 3}
        (tmp_path / "extra.json").write_text(json.dumps(meta))
        code, stdout, stderr = run_cli(
            capsys, "test", "--data", str(h0_csv), "--sidecar", str(tmp_path / sidecar)
        )
        assert code == 2
        assert stdout == ""
        assert "sidecar" in stderr

    def test_config_echo_round_trips(self, h0_csv, tmp_path, capsys):
        """A report's config echo, fed back as --config, rebuilds the same
        TestConfig and the same report bytes."""
        from ciforge.cli import _tester_from, build_parser

        first = {"tester": {"gbt": {"rounds": 15}, "mimic_config": {"tree_rounds": 15}}}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(first))
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg), "--seed", "9")
        rep = json.loads(out)
        echo = {"tester": rep["config"], "seed": rep["seed"]}
        parser = build_parser()
        original = _tester_from(parser.parse_args(["test", "--data", str(h0_csv), "--seed", "9"]), first)
        assert _tester_from(parser.parse_args(["test", "--data", str(h0_csv)]), echo) == original
        cfg.write_text(json.dumps(echo))
        _, out_echo, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert out_echo == out
        # The echo alone carries the seed too, inside the tester object.
        cfg.write_text(json.dumps({"tester": rep["config"]}))
        _, out_bare, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert out_bare == out


class TestBench:
    def test_small_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_h0": 2, "n_h1": 2, "n": 150, "d_z": 2, "seed": 4,
            "tester": {"gbt": {"rounds": 15}},
        }))
        scores = tmp_path / "scores.csv"
        code, stdout, _ = run_cli(
            capsys, "bench", "--config", str(cfg), "--scores-csv", str(scores),
        )
        assert code == 0
        rep = json.loads(stdout)
        assert len(rep["rows"]) == 4
        assert scores.read_text().startswith("dataset_id,label,p_value")

    def test_byte_determinism_excluding_wall_clock(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n_h0": 2, "n_h1": 2, "n": 150, "d_z": 2, "seed": 4,
            "tester": {"gbt": {"rounds": 15}},
        }))
        outs = []
        for _ in range(2):
            _, stdout, _ = run_cli(capsys, "bench", "--config", str(cfg))
            rep = json.loads(stdout)
            for row in rep["rows"]:
                row.pop("wall_clock_s")
            outs.append(json.dumps(rep, sort_keys=True))
        assert outs[0] == outs[1]


class TestRelations:
    def test_end_to_end(self, tmp_path, capsys):
        import numpy as np

        from ciforge.core import derive_rng

        rng = derive_rng(0, "cli-rel")
        n = 240
        u = rng.standard_normal(n)
        v = np.tanh(u) + 0.3 * rng.standard_normal(n)
        w = v + 0.3 * rng.standard_normal(n)
        t = v + 1.5 * u + 0.3 * rng.standard_normal(n)
        data = tmp_path / "table.csv"
        lines = ["u,v,w,t"] + [f"{float(a)!r},{float(b)!r},{float(c)!r},{float(d)!r}" for a, b, c, d in zip(u, v, w, t)]
        data.write_text("\n".join(lines) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\nu,w,v,CI\nu,t,v,NOTCI\n")
        code, stdout, _ = run_cli(
            capsys, "relations", "--data", str(data), "--relations", str(rel), "--seed", "3",
        )
        assert code == 0
        rep = json.loads(stdout)
        assert len(rep["rows"]) == 2
        assert rep["rows"][0]["relation"] == {"x": "u", "y": "w", "z": ["v"]}

    def test_unknown_column_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("a,b\n" + "\n".join(f"{i}.0,{i+1}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\na,missing,,CI\n")
        code, _, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert "missing" in err

    def test_relation_file_without_label_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("a,b,c\n" + "\n".join(f"{i}.0,{i+1}.0,{i+2}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z\na,b,c\n")
        code, _, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert "label" in err


class TestVerify:
    def test_passes_on_correct_build(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "verify", "--joints", "30", "--ci-joints", "10", "--pairs", "60", "--seed", "1",
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["all_pass"] is True
        assert all(c["pass"] for c in rep["checks"].values() if c["gating"])
        assert "all_pass=True" in stderr


class TestUsage:
    def test_unknown_flag_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--data", "x.csv", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_file_is_an_error(self, capsys):
        code = main(["test", "--data", "/nonexistent/nowhere.csv"])
        assert code == 2

    @pytest.mark.parametrize("flags", [("--classifier", "gbt"), ("--mimic", "reg")])
    def test_removed_flag_exits_two(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--data", "x.csv", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"tester": {"bogus": 1}},
            {"tester": {"gbt": {"bogus": 1}}},
            {"tester": {"mimic_config": {"bogus": 1}}},
            {"tester": {"mimic_config": {"mlp": {"bogus": 1}}}},
            {"tester": {"gbt": 5}},
            {"tester": []},
            [],
            {"tester": {"gbt": {"rounds": -1}}},
            {"tester": {"gbt": {"max_depth": -2}}},
            {"tester": {"gbt": {"learning_rate": -0.1}}},
            {"tester": {"gbt": {"learning_rate": float("nan")}}},
            {"tester": {"gbt": {"l2": -1.0}}},
            {"tester": {"gbt": {"min_child_weight": -1.0}}},
            {"tester": {"mimic_config": {"tree_rounds": -5}}},
            {"tester": {"mimic_config": {"tree_lr": 0.0}}},
            {"tester": {"mimic_config": {"tree_depth": 0}}},
            {"tester": {"mimic_config": {"mlp": {"epochs": -1}}}},
            {"tester": {"mimic_config": {"mlp": {"batch": 0}}}},
            {"tester": {"mimic_config": {"mlp": {"lr": -0.05}}}},
        ],
    )
    def test_malformed_config_exits_two(self, config, h0_csv, tmp_path, capsys):
        """Exit 1 means "decided H1", so a bad config must never produce it;
        nor may it run and decide H0.  The data is valid, so only the
        config can fail."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr

    @pytest.mark.parametrize(
        "tester",
        [
            {"uniform_padding": 0.0},
            {"erm_delta": 0.05},
            {"erm_c": 1.0},
            {"gbt": {"seed": 0}},
            {"logreg": {"seed": 0}},
            {"mimic_config": {"crossfit_residuals": False}},
            {"mimic_config": {"gaussian_prob": 0.3}},
            {"classifier": "gbt"},
            {"mimic": "reg"},
            {"mlp": {}},
            {"logreg": {}},
            {"vc_dim": 50},
            {"mimic_config": {"seed": 5}},
        ],
    )
    def test_removed_config_field_is_an_unknown_key(self, tester, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tester": tester}))
        code, _, stderr = run_cli(capsys, "test", "--data", str(tmp_path / "unused.csv"), "--config", str(cfg))
        assert code == 2
        assert "unknown key" in stderr

    def test_nested_config_objects_are_built(self):
        from ciforge.classify import GbtConfig
        from ciforge.cli import _tester_from, build_parser
        from ciforge.nn import MlpConfig

        args = build_parser().parse_args(["test", "--data", "unused.csv"])
        file_cfg = {"tester": {"gbt": {"rounds": 7}, "mimic_config": {"mlp": {"widths": [4], "epochs": 2}}}}
        cfg = _tester_from(args, file_cfg)
        assert cfg.gbt == GbtConfig(rounds=7)
        assert cfg.mimic_config.mlp == MlpConfig(widths=(4,), epochs=2)
