"""Command-line front end: subcommands, exit codes, JSON output."""

import hashlib
import json
import warnings

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

    def test_overflowing_a_xy_exits_two_naming_it(self, tmp_path, capsys):
        """A finite a_xy that overflows the dependent y equation is refused by
        name, not reported as NaN or Inf cells after numpy's overflow warnings
        (which fail the command here, as errors)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, stderr = run_cli(
                capsys, "gen", "--data-out", str(tmp_path / "out.csv"), "--a-xy", "1e308", "--no-ci"
            )
        assert code == 2
        assert stdout == ""
        assert "a_xy = 1e+308 overflows" in stderr
        assert list(tmp_path.iterdir()) == []


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

    def test_pnl_report_is_pinned(self, tmp_path, capsys):
        """The report on one seeded 1000-row pnl dataset, byte for byte."""
        data = tmp_path / "pnl.csv"
        run_cli(capsys, "gen", "--kind", "pnl", "--n", "1000", "--d-z", "5", "--seed", "0", "--data-out", str(data))
        code, stdout, _ = run_cli(capsys, "test", "--data", str(data))
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == "f35ad5366713bf692f74c729887955ed86c0685e8a283e8b60f5bcce96c106dc"

    def test_tau_flag(self, h0_csv, capsys):
        """tau is derived from alpha; there is no flag to set it."""
        with pytest.raises(SystemExit) as exc:
            main(["test", "--data", str(h0_csv), "--tau", "0.9"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [("--alpha", "2"), ("--alpha", "0")])
    def test_out_of_range_threshold_exits_two(self, flags, h0_csv, capsys):
        """alpha = 2 would give tau = 0, which decides H1 on any gap, and
        alpha = 0 has no threshold; both are refused before a report exists."""
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(h0_csv), *flags)
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr

    def test_tester_seed_sets_master_seed(self, h0_csv, tmp_path, capsys, monkeypatch):
        """The seed comes from --seed, else the --config file's seed, else
        DEFAULT_SEED; the environment is never read."""
        from ciforge.core import DEFAULT_SEED

        monkeypatch.setenv("CIFORGE_SEED", "123")
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv))
        assert json.loads(out)["seed"] == DEFAULT_SEED
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert json.loads(out)["seed"] == 9
        _, out, _ = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg), "--seed", "4")
        assert json.loads(out)["seed"] == 4

    @pytest.mark.parametrize("tester", [{"gbt": {"rounds": "5"}}, {"alpha": "0.05"}])
    def test_wrong_typed_config_value_exits_two(self, tester, h0_csv, tmp_path, capsys):
        """The value passes key validation and fails when the config checks
        its range; exit 1 would read as "decided H1"."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tester))
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(h0_csv), "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr

    @pytest.mark.parametrize(
        "sidecar",
        ["typo.json", "extra.json", "column.json", "knd.json", "list.json", "columns_list.json", "spec_int.json"],
    )
    def test_bad_sidecar_exits_two(self, sidecar, h0_csv, tmp_path, capsys):
        """A sidecar that is missing, names a column the CSV lacks, or holds a
        misspelt or misshapen key would otherwise read every categorical
        column as continuous, or fail with a bare Python error."""
        meta = json.loads((tmp_path / "h0.csv.meta.json").read_text())
        bad = {
            "extra.json": {"columns": {**meta["columns"], "z_9": {"kind": "categorical", "cardinality": 3}}},
            "column.json": {"column": meta["columns"]},
            "knd.json": {"columns": {**meta["columns"], "z_0": {"knd": "categorical"}}},
            "list.json": [1, 2],
            "columns_list.json": {"columns": [1]},
            "spec_int.json": {"columns": {"z_0": 5}},
        }
        for name, content in bad.items():
            (tmp_path / name).write_text(json.dumps(content))
        code, stdout, stderr = run_cli(
            capsys, "test", "--data", str(h0_csv), "--sidecar", str(tmp_path / sidecar)
        )
        assert code == 2
        assert stdout == ""
        assert "sidecar" in stderr

    @pytest.mark.parametrize("cardinality", [3.0, 3.5, 40.0, "3", True])
    def test_non_integer_sidecar_cardinality_exits_two(self, cardinality, h0_csv, tmp_path, capsys):
        meta = json.loads((tmp_path / "h0.csv.meta.json").read_text())
        meta["columns"]["z_0"]["cardinality"] = cardinality
        side = tmp_path / "card.json"
        side.write_text(json.dumps(meta))
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(h0_csv), "--sidecar", str(side))
        assert code == 2
        assert stdout == ""
        assert "cardinality of 'z_0' must be an integer" in stderr

    def test_non_numeric_cell_exits_two(self, h0_csv, tmp_path, capsys):
        lines = h0_csv.read_text().splitlines()
        lines[7] = ",".join(["1"] * (lines[7].count(",")) + ["two"])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        column = lines[0].split(",")[-1]
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(bad), "--sidecar", str(h0_csv) + ".meta.json")
        assert code == 2
        assert stdout == ""
        assert f"data row 7 (line 8), column {column!r}: 'two' is not a number" in stderr

    def test_mixed_kind_y_runs(self, tmp_path, capsys):
        """The mimic copies y rows whole, so a y with one categorical and one
        continuous column is tested like any other; the kinds come from the
        sidecar written next to the CSV."""
        import numpy as np

        from ciforge.core import Column, Dataset, derive_rng, write_dataset

        rng = derive_rng(0, "cli-mixed-y")
        n = 240
        data = np.column_stack([rng.standard_normal(n), rng.integers(0, 2, n), rng.standard_normal((n, 2))])
        ds = Dataset((Column("x_0"),), (Column("y_0", "categorical", 2), Column("y_1")), (Column("z_0"),), data)
        path = tmp_path / "mixed.csv"
        write_dataset(ds, path, tmp_path / "mixed.csv.meta.json")
        code, stdout, stderr = run_cli(capsys, "test", "--data", str(path), "--seed", "3")
        assert code in (0, 1)
        rep = json.loads(stdout)
        assert code == (rep["decision"] == "H1")
        assert "decision=" in stderr

    def test_config_echo_round_trips(self, h0_csv, tmp_path, capsys):
        """A report's config echo, fed back verbatim as --config, rebuilds
        the same TestConfig and the same report bytes."""
        from ciforge.cli import _tester_from, build_parser

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gbt": {"rounds": 15}, "alpha": 0.1}))
        argv = ["test", "--data", str(h0_csv), "--config", str(cfg), "--seed", "9"]
        _, out, _ = run_cli(capsys, *argv)
        original = _tester_from(build_parser().parse_args(argv))
        echo = tmp_path / "echo.json"
        echo.write_text(json.dumps(json.loads(out)["config"]))
        argv = ["test", "--data", str(h0_csv), "--config", str(echo)]
        assert _tester_from(build_parser().parse_args(argv)) == original
        _, out_echo, _ = run_cli(capsys, *argv)
        assert out_echo == out


class TestBench:
    def test_small_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gbt": {"rounds": 15}}))
        sweep = ("--n-h0", "2", "--n-h1", "2", "--n", "150", "--d-z", "2", "--seed", "4", "--config", str(cfg))
        scores = tmp_path / "scores.csv"
        code, stdout, _ = run_cli(
            capsys, "bench", *sweep, "--scores-csv", str(scores),
        )
        assert code == 0
        rep = json.loads(stdout)
        assert len(rep["rows"]) == 4
        assert scores.read_text().startswith("dataset_id,label,p_value")

    def test_byte_determinism_excluding_wall_clock(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gbt": {"rounds": 15}}))
        sweep = ("--n-h0", "2", "--n-h1", "2", "--n", "150", "--d-z", "2", "--seed", "4", "--config", str(cfg))
        outs = []
        for _ in range(2):
            _, stdout, _ = run_cli(capsys, "bench", *sweep)
            rep = json.loads(stdout)
            for row in rep["rows"]:
                row.pop("wall_clock_s")
            outs.append(json.dumps(rep, sort_keys=True))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_out_of_range_parallel_exits_two(self, parallel, capsys):
        code, stdout, stderr = run_cli(
            capsys, "bench", "--n-h0", "1", "--n-h1", "1", "--n", "150", "--parallel", parallel,
        )
        assert code == 2
        assert stdout == ""
        assert "parallel" in stderr


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

    @pytest.mark.parametrize("row", ["a,a,c", "a,b,a", "a,b,c;c"])
    def test_column_named_twice_is_an_error(self, row, tmp_path, capsys):
        """A relation that names one column twice would test a column
        against itself and read as CI; it exits 2 instead."""
        data = tmp_path / "table.csv"
        data.write_text("a,b,c\n" + "\n".join(f"{i}.0,{i+1}.0,{i+2}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text(f"X,Y,Z,label\n{row},CI\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "more than once" in err

    def test_relation_file_without_label_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("a,b,c\n" + "\n".join(f"{i}.0,{i+1}.0,{i+2}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z\na,b,c\n")
        code, _, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert "label" in err

    def test_short_relation_row_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("u,v\n" + "\n".join(f"{i}.0,{i+1}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\nu,v\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "relation row 1 (line 2) lacks column(s): Z, label" in err

    def test_duplicate_header_name_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("u,v,u\n" + "\n".join(f"{i}.0,{i+1}.0,{i%7}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\nu,v,,NOTCI\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "duplicate" in err and "u" in err

    def test_duplicate_relation_header_name_is_an_error(self, tmp_path, capsys):
        """A relation header that names a column twice would keep only the
        last cell of it; it exits 2 instead."""
        data = tmp_path / "table.csv"
        data.write_text("u,v,w\n" + "\n".join(f"{i}.0,{i+1}.0,{i%7}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label,X\nu,v,,CI,w\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "duplicate column name(s) in the relation header: X" in err

    def test_empty_csv_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\nu,v,,NOTCI\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "no header row" in err

    def test_short_row_is_an_error(self, tmp_path, capsys):
        rows = [f"{i}.0,{i+1}.0,{i%7}.0" for i in range(70)]
        rows[4] = "4.0,5.0"
        data = tmp_path / "table.csv"
        data.write_text("u,v,w\n" + "\n".join(rows) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\nu,v,,NOTCI\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "data row 5 (line 6) has 2 cells, the header has 3" in err

    def test_long_relation_row_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "table.csv"
        data.write_text("u,v\n" + "\n".join(f"{i}.0,{i+1}.0" for i in range(70)) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\nu,v,,NOTCI\nu,v,,CI,NOTCI\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "relation row 2 (line 3) has 5 cells, the header has 4" in err

    def test_non_numeric_cell_is_an_error(self, tmp_path, capsys):
        rows = [f"{i}.0,{i+1}.0,{i%7}.0" for i in range(70)]
        rows[2] = "2.0,x,2.0"
        data = tmp_path / "table.csv"
        data.write_text("u,v,w\n" + "\n".join(rows) + "\n")
        rel = tmp_path / "rel.csv"
        rel.write_text("X,Y,Z,label\nu,v,,NOTCI\n")
        code, stdout, err = run_cli(capsys, "relations", "--data", str(data), "--relations", str(rel))
        assert code == 2
        assert stdout == ""
        assert "data row 3 (line 4), column 'v': 'x' is not a number" in err


class TestVerify:
    def test_passes_on_correct_build(self, capsys):
        code, stdout, stderr = run_cli(capsys, "verify", "--seed", "1")
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

    @pytest.mark.parametrize("a_xy", ["nan", "inf"])
    @pytest.mark.parametrize("command", ["gen", "bench"])
    def test_non_finite_a_xy_exits_two_before_any_work(self, command, a_xy, tmp_path, capsys, monkeypatch):
        def no_test(*args):
            raise AssertionError("a test ran")

        monkeypatch.setattr("ciforge.bench.ci_test", no_test)
        out = tmp_path / "out"
        argv = ["gen", "--data-out", str(out)] if command == "gen" else ["bench", "--out", str(out)]
        code, stdout, stderr = run_cli(capsys, *argv, "--a-xy", a_xy)
        assert code == 2
        assert stdout == ""
        assert "a_xy must be finite" in stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags", [("--classifier", "gbt"), ("--mimic", "reg")])
    def test_removed_flag_exits_two(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["test", "--data", "x.csv", *flags])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--data-out", "d.csv", "--config", "c.json"],
            ["verify", "--config", "c.json"],
            ["verify", "--joints", "30"],
            ["verify", "--ci-joints", "10"],
            ["verify", "--pairs", "60"],
        ],
    )
    def test_removed_gen_and_verify_flag_exits_two(self, argv, capsys):
        """gen and verify take their seed from --seed alone, and verify runs
        the full battery."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "config",
        [
            {"bogus": 1},
            {"gbt": {"bogus": 1}},
            {"mimic_config": {"bogus": 1}},
            {"mimic_config": {"mlp": {"bogus": 1}}},
            {"gbt": 5},
            {"gbt": []},
            [],
            {"gbt": {"rounds": -1}},
            {"gbt": {"max_depth": -2}},
            {"gbt": {"learning_rate": -0.1}},
            {"gbt": {"learning_rate": float("nan")}},
            {"gbt": {"l2": -1.0}},
            {"gbt": {"min_child_weight": -1.0}},
            {"mimic_config": {"tree_rounds": -5}},
            {"mimic_config": {"tree_lr": 0.0}},
            {"mimic_config": {"tree_depth": 0}},
            {"mimic_config": {"mlp": {"epochs": -1}}},
            {"mimic_config": {"mlp": {"batch": 0}}},
            {"mimic_config": {"mlp": {"lr": -0.05}}},
            {"mimic_config": {"mlp": {"seed": 1}}},
            {"mimic_config": {"mlp": {"loss": "logistic"}}},
            {"gbt": {"max_depth": -2}, "mimic_config": {"tree_rounds": -5}},
            {"tester": {}, "n_h0": 4},
            {"seed": 7.5},
            {"seed": True},
            {"seed": "7"},
            {"seed": None},
            {"alpha": True},
            {"gbt": {"rounds": True}},
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
            {"mimic_config": {"categorical_table": True}},
            {"mimic_config": {"regressor": "mlp"}},
            {"tvs": [0.5, 0.25, 0.25]},
            {"mimic_config": {"tree_lr": 0.1}},
            {"mimic_config": {"tree_depth": 3}},
            {"mimic_config": {"mlp": {"seed": 0}}},
            {"mimic_config": {"mlp": {"loss": "squared"}}},
            {"mimic_config": {}},
            {"mimic_config": {"tree_rounds": 200}},
            {"mimic_config": {"mlp": {"widths": [32], "epochs": 100, "batch": 64, "lr": 0.01}}},
            {"tau": 0.1},
            {"gbt": {"max_depth": 4}},
            {"gbt": {"learning_rate": 0.1}},
            {"gbt": {"l2": 1.0}},
            {"gbt": {"min_child_weight": 1.0}},
        ],
    )
    def test_removed_config_field_is_an_unknown_key(self, tester, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(tester))
        code, _, stderr = run_cli(capsys, "test", "--data", str(tmp_path / "unused.csv"), "--config", str(cfg))
        assert code == 2
        assert "unknown key" in stderr

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["test", "--data", "{tmp}/d.csv"], {"tester": {"seed": 3}}),
            (["relations", "--data", "{tmp}/d.csv", "--relations", "{tmp}/r.csv"], {"tester": {}}),
            (["test", "--data", "{tmp}/d.csv"], {"d_z": 3}),
            (["relations", "--data", "{tmp}/d.csv", "--relations", "{tmp}/r.csv"], {"n": 100}),
            (["bench", "--n-h0", "1", "--n-h1", "1", "--n", "150"], {"n_h0": 2, "a_xy": 1.0}),
        ],
    )
    def test_top_level_key_the_subcommand_does_not_read_exits_two(self, argv, config, tmp_path, capsys):
        """--config holds a TestConfig and nothing else: no tester wrapper
        and no sweep values, which bench takes from its flags."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, stdout, stderr = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert "unknown key(s) in --config" in stderr

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["relations", "--data", "{tmp}/d.csv", "--relations", "{tmp}/r.csv"], {"seed": True}),
            (["relations", "--data", "{tmp}/d.csv", "--relations", "{tmp}/r.csv"], {"alpha": "0.05"}),
            (["bench", "--n-h0", "1", "--n-h1", "1", "--n", "150"], {"seed": 1.5}),
            (["bench", "--n-h0", "1", "--n-h1", "1", "--n", "150"], {"seed": "7"}),
            (["bench", "--n-h0", "1", "--n-h1", "1", "--n", "150"], {"gbt": {"rounds": 2.7}}),
            (["bench", "--n-h0", "1", "--n-h1", "1", "--n", "150"], {"gbt": {"rounds": "15"}}),
            (["bench", "--n-h0", "1", "--n-h1", "1", "--n", "150"], {"alpha": True}),
        ],
    )
    def test_config_value_is_taken_as_given(self, argv, config, tmp_path, capsys):
        """A --config value is never coerced: a float, bool or string where
        an integer or a number belongs exits 2 before any work is done."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [a.format(tmp=tmp_path) for a in argv]
        code, stdout, stderr = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert stdout == ""
        assert "must be" in stderr

    def test_nested_config_objects_are_built(self, tmp_path):
        from ciforge.classify import GbtConfig
        from ciforge.cli import _tester_from, build_parser

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"gbt": {"rounds": 7}, "alpha": 0.1}))
        args = build_parser().parse_args(["test", "--data", "unused.csv", "--config", str(path)])
        cfg = _tester_from(args)
        assert cfg.gbt == GbtConfig(rounds=7)
        assert cfg.alpha == 0.1
