import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from maxentfit import Dataset, basis_matrix, fileio, geometry, predict
from maxentfit.approximator import l1_optimality_residual
from maxentfit.cli import (
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_LEFT_HULL,
    EXIT_OK,
    EXIT_OUTSIDE_HULL,
    EXIT_SOLVER,
    RunConfig,
    load_run_config,
    main,
)


def write_scalar_csv(path, xs, fs):
    fileio.write_dataset_csv(path, Dataset(np.asarray(xs)[:, None], np.asarray(fs)))


def write_field_csv(path, pts, vals):
    fileio.write_dataset_csv(path, Dataset(np.asarray(pts), np.asarray(vals)))


@pytest.fixture()
def sine_files(tmp_path):
    rng = np.random.default_rng(0)
    xs = np.sort(rng.uniform(0, 1, 25))
    data = tmp_path / "train.csv"
    write_scalar_csv(data, xs, np.sin(2 * np.pi * xs))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({"beta": 100.0, "grid_bounds": [[0.0, 1.0]], "grid_counts": [10]})
    )
    return data, config


class TestFitEval:
    def test_fit_then_eval_round_trip(self, tmp_path, sine_files):
        data, config = sine_files
        model_file = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(model_file)]) == EXIT_OK
        model = fileio.load_model(model_file)
        assert model.fit_report.training_rms <= 1e-3

        pts = tmp_path / "pts.csv"
        with pts.open("w") as fh:
            fh.write("x1\n0.25\n0.5\n0.75\n")
        out = tmp_path / "preds.csv"
        assert main(["eval", "--model", str(model_file), "--points", str(pts),
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1,f_pred"
        preds = [float(line.split(",")[1]) for line in lines[1:]]
        # model-file round trip exactly reproduces in-memory predictions
        for x, p in zip([0.25, 0.5, 0.75], preds):
            assert abs(p - predict(model, [x])) <= 1e-15

    def test_model_file_round_trips_exactly(self, tmp_path, sine_files):
        data, config = sine_files
        model_file = tmp_path / "model.json"
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(model_file)])
        model = fileio.load_model(model_file)
        second = tmp_path / "model2.json"
        fileio.save_model(second, model)
        assert model_file.read_bytes() == second.read_bytes()

    def test_empty_csv_is_config_error(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG

    def test_header_only_csv_is_config_error(self, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("x1,f\n")
        assert main(["fit", "--data", str(bad), "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG

    def test_point_outside_bounds_exits_3_naming_row(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        write_scalar_csv(data, [0.2, 0.5, 1.5, -0.5], [0.0, 0.0, 0.0, 0.0])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid_bounds": [[0.0, 1.0]], "grid_counts": [5]}))
        code = main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "m.json")])
        assert code == EXIT_OUTSIDE_HULL
        assert "rows 4, 5 " in capsys.readouterr().err  # CSV line numbers of both bad rows

    def test_eval_outside_hull_exits_3(self, tmp_path, sine_files):
        data, config = sine_files
        model_file = tmp_path / "model.json"
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(model_file)])
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n2.0\n")
        assert main(["eval", "--model", str(model_file), "--points", str(pts),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OUTSIDE_HULL

    def test_eval_uses_config_hull_tol_and_solver_keys(self, tmp_path, sine_files):
        data, config = sine_files
        model_file = tmp_path / "model.json"
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(model_file)])
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n0.5\n1.0000005\n")  # second row 5e-7 outside the nodes
        eval_config = tmp_path / "eval.json"
        eval_config.write_text(json.dumps({"hull_tol": 1e-6, "solver_tol": 1e-6}))
        out = tmp_path / "o.csv"
        assert main(["eval", "--model", str(model_file), "--points", str(pts),
                     "--config", str(eval_config), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().strip().splitlines()) == 3

    def test_eval_nonconverged_exits_4_naming_rows(self, tmp_path, sine_files, capsys):
        data, config = sine_files
        model_file = tmp_path / "model.json"
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(model_file)])
        pts = tmp_path / "pts.csv"
        pts.write_text("x1\n0.23\n0.71\n")
        eval_config = tmp_path / "eval.json"
        eval_config.write_text(json.dumps({"solver_max_iter": 1}))
        out = tmp_path / "o.csv"
        assert main(["eval", "--model", str(model_file), "--points", str(pts),
                     "--config", str(eval_config), "--out", str(out)]) == EXIT_SOLVER
        assert "rows 2, 3" in capsys.readouterr().err
        assert not out.exists()

    def test_one_hull_check_per_row(self, tmp_path, monkeypatch):
        # fit and eval on a general node set (the LP hull test) check each
        # CSV row once, inside the basis solve
        calls = []
        original = geometry.in_hull

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("maxentfit") and getattr(module, "in_hull", None) is original:
                monkeypatch.setattr(module, "in_hull", counting)
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, (12, 2))
        data = tmp_path / "train.csv"
        fileio.write_dataset_csv(data, Dataset(pts, pts[:, 0] - pts[:, 1]))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"nodes_from_data": True, "beta": 1.0}))
        model_file = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(model_file)]) == EXIT_OK
        assert len(calls) == len(pts)

        calls.clear()
        queries = 0.8 * pts[:5] + 0.2 * pts.mean(axis=0)
        query_file = tmp_path / "pts.csv"
        fileio.write_predictions_csv(query_file, queries, {})
        assert main(["eval", "--model", str(model_file), "--points", str(query_file),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        assert len(calls) == len(queries)

    def test_unknown_config_key_rejected(self, tmp_path, sine_files):
        data, _ = sine_files
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"betta": 1.0}))
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("key", ["hessian_ridge", "line_search_shrink"])
    def test_removed_solver_keys_rejected(self, tmp_path, sine_files, capsys, key):
        data, _ = sine_files
        config = tmp_path / "old.json"
        config.write_text(json.dumps({key: 0.5}))
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("beta", "100"), ("hull_tol", "1e-9"), ("solver_max_iter", 2.5), ("grid_counts", "5")],
    )
    def test_mistyped_config_value_exits_2_naming_key(self, tmp_path, sine_files, capsys,
                                                      key, value):
        data, config = sine_files
        payload = json.loads(config.read_text())
        payload[key] = value
        config.write_text(json.dumps(payload))
        out = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(out)]) == EXIT_CONFIG
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_mistyped_env_value_exits_2_naming_key(self, tmp_path, sine_files, capsys,
                                                   monkeypatch):
        data, config = sine_files
        monkeypatch.setenv("MAXENTFIT_BETA", '"abc"')
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
        assert "'beta'" in capsys.readouterr().err

    def test_negative_pad_fraction_exits_2_naming_key(self, tmp_path, sine_files, capsys):
        data, config = sine_files
        config.write_text(json.dumps({"grid_counts": [10], "pad_fraction": -0.1}))
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(tmp_path / "m.json")]) == EXIT_CONFIG
        assert "pad_fraction" in capsys.readouterr().err

    def test_zero_pad_fraction_spans_the_data_box(self, tmp_path, sine_files):
        data, config = sine_files
        config.write_text(json.dumps({"beta": 100.0, "grid_counts": [10], "pad_fraction": 0}))
        model_file = tmp_path / "m.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(model_file)]) == EXIT_OK
        nodes = np.asarray(json.loads(model_file.read_text())["nodes"])
        xs = fileio.read_dataset_csv(data).points
        assert (nodes.min(), nodes.max()) == (xs.min(), xs.max())

    def test_nodes_from_data_interpolates(self, tmp_path):
        rng = np.random.default_rng(1)
        xs = np.sort(rng.uniform(0, 1, 15))
        data = tmp_path / "train.csv"
        write_scalar_csv(data, xs, np.sin(2 * np.pi * xs))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"beta": 100.0, "nodes_from_data": True}))
        model_file = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(model_file)]) == EXIT_OK
        assert fileio.load_model(model_file).fit_report.training_rms <= 1e-10

    def test_nodes_from_data_l1_certifies(self, tmp_path):
        # The basis matrix is square and well conditioned, so at a small
        # alpha the optimum interpolates and its residual is zero.
        rng = np.random.default_rng(1)
        xs = np.sort(rng.uniform(0, 1, 15))
        data = tmp_path / "train.csv"
        write_scalar_csv(data, xs, np.sin(2 * np.pi * xs))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"beta": 100.0, "nodes_from_data": True, "alpha": 1e-4}))
        model_file = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(model_file)]) == EXIT_OK
        model = fileio.load_model(model_file)
        psi, _ = basis_matrix(model.nodes, xs[:, None], model.beta)
        a = model.coefficients
        certificate = l1_optimality_residual(psi, np.sin(2 * np.pi * xs), 1e-4, a)
        assert certificate <= 1e-8 * (1.0 + np.abs(a).max())


def _edited_model(tmp_path, sine_files, edit):
    """Fit the sine model, apply ``edit`` to its JSON payload, and save it again."""
    data, config = sine_files
    model_file = tmp_path / "model.json"
    assert main(["fit", "--data", str(data), "--config", str(config),
                 "--out", str(model_file)]) == EXIT_OK
    payload = json.loads(model_file.read_text())
    edit(payload)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    return model_file, edited


def _eval(tmp_path, model_file, xs, out_name="o.csv"):
    pts = tmp_path / "pts.csv"
    pts.write_text("x1\n" + "".join(f"{x!r}\n" for x in xs))
    out = tmp_path / out_name
    return main(["eval", "--model", str(model_file), "--points", str(pts), "--out", str(out)]), out


class TestModelFiles:
    def test_missing_key_is_config_error(self, tmp_path, sine_files, capsys):
        _, edited = _edited_model(tmp_path, sine_files, lambda p: p.pop("beta"))
        assert _eval(tmp_path, edited, [0.5])[0] == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "beta" in err and str(edited) in err

    def test_extra_report_key_is_config_error(self, tmp_path, sine_files, capsys):
        _, edited = _edited_model(
            tmp_path, sine_files, lambda p: p["fit_report"].update(certificate=0.0)
        )
        assert _eval(tmp_path, edited, [0.5])[0] == EXIT_CONFIG
        assert str(edited) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(beta="100"),
            lambda p: p.update(nodes=[[str(v) for v in row] for row in p["nodes"]]),
            lambda p: p.update(coefficients=p["coefficients"][:-1]),
        ],
        ids=["string-beta", "string-nodes", "short-coefficients"],
    )
    def test_mistyped_value_is_config_error(self, tmp_path, sine_files, capsys, edit):
        _, edited = _edited_model(tmp_path, sine_files, edit)
        assert _eval(tmp_path, edited, [0.5])[0] == EXIT_CONFIG
        assert str(edited) in capsys.readouterr().err

    def test_file_with_box_loads_and_evaluates_identically(self, tmp_path, sine_files):
        # Earlier versions wrote the grid's box into the model file.
        model_file, edited = _edited_model(
            tmp_path, sine_files, lambda p: p.update(box=[[0.0], [1.0]])
        )
        xs = [0.0, 0.25, 0.5, 1.0]
        code_a, out_a = _eval(tmp_path, model_file, xs, "a.csv")
        code_b, out_b = _eval(tmp_path, edited, xs, "b.csv")
        assert code_a == code_b == EXIT_OK
        assert out_a.read_bytes() == out_b.read_bytes()
        resaved = tmp_path / "resaved.json"
        fileio.save_model(resaved, fileio.load_model(edited))
        assert resaved.read_bytes() == model_file.read_bytes()

    def test_edited_box_is_ignored(self, tmp_path, sine_files):
        # The hull comes from the nodes (on [0, 1]), not from a stored box.
        _, edited = _edited_model(tmp_path, sine_files, lambda p: p.update(box=[[0.0], [2.0]]))
        assert _eval(tmp_path, edited, [1.5])[0] == EXIT_OUTSIDE_HULL


class TestSimulate:
    @pytest.fixture()
    def decay_model(self, tmp_path):
        # surrogate of dx/dt = -x on [-2, 2]
        pts = np.linspace(-2, 2, 15)[:, None]
        data = tmp_path / "field.csv"
        write_field_csv(data, pts, -pts)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"beta": 1.0, "grid_bounds": [[-2.0, 2.0]],
                                      "grid_counts": [9]}))
        model_file = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(model_file)]) == EXIT_OK
        return model_file

    def test_exponential_decay_rollout(self, tmp_path, decay_model):
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--model", str(decay_model), "--x0", "1.0",
                     "--t1", "1.0", "--dt", "0.01", "--out", str(out)])
        assert code == EXIT_OK
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "t,x1"
        last = rows[-1].split(",")
        assert float(last[0]) == 1.0
        assert abs(float(last[1]) - np.exp(-1.0)) <= 1e-6

    def test_left_hull_exits_5_with_partial(self, tmp_path):
        pts = np.linspace(0, 1, 12)[:, None]
        data = tmp_path / "field.csv"
        write_field_csv(data, pts, np.ones_like(pts))  # constant drift to the right
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid_bounds": [[0.0, 1.0]], "grid_counts": [6]}))
        model_file = tmp_path / "model.json"
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(model_file)])
        out = tmp_path / "traj.csv"
        code = main(["simulate", "--model", str(model_file), "--x0", "0.5",
                     "--t1", "10.0", "--dt", "0.1", "--out", str(out)])
        assert code == EXIT_LEFT_HULL
        assert len(out.read_text().strip().splitlines()) > 1  # partial trajectory written

    def test_blowup_exits_6(self, tmp_path, decay_model, capsys):
        # a field of 1e308 everywhere sends the first half step to inf
        payload = json.loads(decay_model.read_text())
        payload["coefficients"] = [[1e308]] * len(payload["coefficients"])
        decay_model.write_text(json.dumps(payload))
        out = tmp_path / "t.csv"
        # the one stderr line reports the overflow; numpy adds no warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "--model", str(decay_model), "--x0", "0.0",
                         "--t1", "1000", "--dt", "1000", "--out", str(out)])
        assert code == EXIT_BLOWUP
        assert caught == []
        assert out.read_text().splitlines() == ["t,x1", "0.0,0.0"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "(blowup); last valid time t=0.0;" in err[0]

    def test_nonconverged_stage_exits_4(self, tmp_path):
        # 5e-10 past the edge of a 4x4 box grid: inside the hull tolerance,
        # but the basis solve runs out of iterations at beta = 10.
        pts = np.random.default_rng(0).uniform(0, 1, (40, 2))
        data = tmp_path / "field.csv"
        write_field_csv(data, pts, np.zeros_like(pts))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"beta": 10.0, "grid_bounds": [[0.0, 1.0]] * 2,
                                      "grid_counts": [4, 4]}))
        model_file = tmp_path / "model.json"
        assert main(["fit", "--data", str(data), "--config", str(config),
                     "--out", str(model_file)]) == EXIT_OK
        out = tmp_path / "t.csv"
        code = main(["simulate", "--model", str(model_file), "--x0", "1.0000000005,0.5",
                     "--t1", "1.0", "--dt", "0.1", "--out", str(out)])
        assert code == EXIT_SOLVER
        assert out.read_text().splitlines() == ["t,x1,x2", "0.0,1.0000000005,0.5"]

    def test_bad_dt_exits_2(self, tmp_path, decay_model):
        assert main(["simulate", "--model", str(decay_model), "--x0", "1.0",
                     "--t1", "1.0", "--dt", "-0.1",
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG

    def test_scalar_model_rejected(self, tmp_path, sine_files):
        data, config = sine_files
        model_file = tmp_path / "model.json"
        main(["fit", "--data", str(data), "--config", str(config), "--out", str(model_file)])
        assert main(["simulate", "--model", str(model_file), "--x0", "0.5",
                     "--t1", "1.0", "--dt", "0.1",
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG


class TestBenchCommand:
    def test_unknown_experiment_exits_2(self, tmp_path):
        assert main(["bench", "--experiment", "nope",
                     "--out", str(tmp_path / "b")]) == EXIT_CONFIG

    def test_sine_bench_writes_bundle(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        code = main(["bench", "--experiment", "sine", "--baseline", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "report.json").exists()
        line = capsys.readouterr().out
        assert "sine" in line and "test_rms" in line

    def test_set_overrides_apply(self, tmp_path):
        out = tmp_path / "bundle"
        code = main(["bench", "--experiment", "sine", "--set", "beta=0",
                     "--set", "seed=5", "--out", str(out)])
        assert code == EXIT_OK
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["beta"] == 0 and payload["config"]["seed"] == 5

    def test_bad_override_exits_2(self, tmp_path):
        assert main(["bench", "--experiment", "sine", "--set", "nope=1",
                     "--out", str(tmp_path / "b")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "experiment, pair",
        [("sine", "beta=abc"), ("sine", "grid_counts=5"), ("sine", "n_train=2.5"),
         ("sine", "bounds=[[0,1,2]]"), ("sine", 'beta="1"'), ("lorenz", "lorenz_rho=abc"),
         ("sine", "dict_degree=x")],
    )
    def test_mistyped_override_exits_2_naming_key(self, tmp_path, capsys, experiment, pair):
        out = tmp_path / "b"
        assert main(["bench", "--experiment", experiment, "--set", pair,
                     "--out", str(out)]) == EXIT_CONFIG
        assert pair.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_print_config_runs_nothing(self, tmp_path, capsys):
        code = main(["bench", "--experiment", "sine", "--print-config",
                     "--out", str(tmp_path / "b")])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["beta"] == 100.0
        assert not (tmp_path / "b").exists()


class TestConfigHandling:
    def test_print_config_fixpoint(self, tmp_path, sine_files, capsys):
        data, _ = sine_files
        assert main(["--print-config"]) == EXIT_OK
        printed = capsys.readouterr().out
        cfg_file = tmp_path / "roundtrip.json"
        cfg_file.write_text(printed)
        defaults = load_run_config()
        assert load_run_config(cfg_file) == defaults

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MAXENTFIT_BETA", "42.5")
        monkeypatch.setenv("MAXENTFIT_GRID_COUNTS", "[7]")
        cfg = load_run_config()
        assert cfg.beta == 42.5
        assert cfg.grid_counts == [7]

    def test_env_bad_json_rejected(self, monkeypatch):
        from maxentfit import ConfigError

        monkeypatch.setenv("MAXENTFIT_BETA", "not a number")
        with pytest.raises(ConfigError):
            load_run_config()

    def test_defaults_are_dataclass_defaults(self):
        assert load_run_config(env={}) == RunConfig()


class TestCsvFormats:
    def test_dataset_round_trip_17_digits(self, tmp_path):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (20, 2))
        vals = rng.normal(size=20) * 1e-7
        path = tmp_path / "d.csv"
        fileio.write_dataset_csv(path, Dataset(pts, vals))
        back = fileio.read_dataset_csv(path)
        np.testing.assert_array_equal(back.points, pts)
        np.testing.assert_array_equal(back.values, vals)

    def test_field_dataset_header(self, tmp_path):
        pts = np.zeros((2, 3))
        vals = np.ones((2, 3))
        path = tmp_path / "d.csv"
        fileio.write_dataset_csv(path, Dataset(pts, vals))
        assert path.read_text().splitlines()[0] == "x1,x2,x3,dx1,dx2,dx3"
        back = fileio.read_dataset_csv(path)
        assert back.n_components == 3

    def test_bad_header_rejected(self, tmp_path):
        from maxentfit import ConfigError

        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            fileio.read_dataset_csv(path)

    def test_ragged_row_names_line(self, tmp_path):
        from maxentfit import ConfigError

        path = tmp_path / "d.csv"
        path.write_text("x1,f\n1.0,2.0\n3.0\n")
        with pytest.raises(ConfigError, match="line 3"):
            fileio.read_dataset_csv(path)


class TestEntryPoint:
    def test_version_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "maxentfit.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "maxentfit 0.1.0" in proc.stdout

    def test_no_command_prints_help(self, capsys):
        assert main([]) == EXIT_CONFIG
        assert "usage" in capsys.readouterr().out.lower()
