import json
from pathlib import Path

import numpy as np
import pytest

from maxentfit import (
    ConfigError,
    HullLocation,
    Trajectory,
    in_hull,
    integrate,
)
from maxentfit import bench
from maxentfit.bench import (
    ExperimentConfig,
    apply_overrides,
    default_config,
    gen_gauss2d,
    gen_lorenz,
    gen_orbit,
    gen_rosenbrock,
    gen_sine,
    lorenz_rhs,
    orbit_constants,
    orbit_rhs,
    run_experiment,
    _gauss2d_fn,
    _max_deviation,
    _rms_upto,
    _rosenbrock_fn,
)


class TestConfigs:
    def test_unknown_experiment(self):
        with pytest.raises(ConfigError):
            default_config("pendulum")
        with pytest.raises(ConfigError):
            run_experiment("pendulum")

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config("sine"), {"betta": 1.0})

    def test_override_applies(self):
        cfg = apply_overrides(default_config("sine"), {"beta": 0.0, "seed": 3})
        assert cfg.beta == 0.0 and cfg.seed == 3

    def test_each_call_gets_fresh_lists(self):
        first = default_config("gauss2d")
        first.bounds[0][1] = 9.0
        first.grid_counts.append(3)
        second = default_config("gauss2d")
        assert second.bounds == [[0.0, 1.0], [0.0, 1.0]]
        assert second.grid_counts == [8, 8]

    def test_config_round_trips_through_dict(self):
        cfg = default_config("lorenz")
        as_dict = cfg.to_dict()
        rebuilt = ExperimentConfig(**as_dict)
        assert rebuilt == cfg


class TestGenSine:
    def test_counts_and_nodes(self):
        train, test, nodes = gen_sine(default_config("sine"))
        assert train.n == 20
        assert test.n == 50
        assert nodes.n == 10
        np.testing.assert_allclose(nodes.nodes[:, 0], np.linspace(0, 1, 10))

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigError):
            gen_sine(apply_overrides(default_config("sine"), {"n_train": 0}))

    def test_seed_changes_points_not_nodes(self):
        a_train, _, a_nodes = gen_sine(default_config("sine"))
        b_train, _, b_nodes = gen_sine(apply_overrides(default_config("sine"), {"seed": 1}))
        assert not np.array_equal(a_train.points, b_train.points)
        np.testing.assert_array_equal(a_nodes.nodes, b_nodes.nodes)

    def test_train_points_inside_hull(self):
        train, _, nodes = gen_sine(default_config("sine"))
        for p in train.points:
            assert in_hull(nodes, p) is not HullLocation.OUTSIDE


class TestGenGauss2d:
    def test_grid_sizes(self):
        train, test, nodes = gen_gauss2d(default_config("gauss2d"))
        assert (nodes.n, train.n, test.n) == (64, 256, 1024)

    def test_function_odd_in_x1(self):
        pts = np.column_stack([np.zeros(5), np.linspace(0, 1, 5)])
        np.testing.assert_array_equal(_gauss2d_fn(pts), 0.0)

    def test_function_value_at_center(self):
        val = _gauss2d_fn(np.array([[0.5, 0.5]]))[0]
        assert val == pytest.approx(np.exp(-2.0), rel=1e-15)

    def test_caption_variant(self):
        val = _gauss2d_fn(np.array([[0.5, 0.5]]), caption_variant=True)[0]
        assert val == pytest.approx(0.5 * np.exp(-0.5), rel=1e-15)


class TestGenRosenbrock:
    def test_global_minimum_and_origin(self):
        assert _rosenbrock_fn(np.array([[1.0, 1.0]]))[0] == 0.0
        assert _rosenbrock_fn(np.array([[0.0, 0.0]]))[0] == 1.0

    def test_grids(self):
        train, test, nodes = gen_rosenbrock(default_config("rosenbrock"))
        assert (nodes.n, train.n, test.n) == (64, 256, 1024)
        assert nodes.nodes.min() == -1.0 and nodes.nodes.max() == 1.0


class TestGenLorenz:
    def test_derivative_at_ones(self):
        rhs = lorenz_rhs(10.0, 28.0, 8.0 / 3.0)
        np.testing.assert_allclose(rhs(np.ones(3)), [0.0, 26.0, 1.0 - 8.0 / 3.0])

    def test_sample_and_node_counts(self):
        train, truth, nodes = gen_lorenz(default_config("lorenz"))
        assert train.n == 500
        assert truth.n_samples == 500
        assert nodes.n == 125 + 100

    def test_all_samples_inside_hull(self):
        train, _, nodes = gen_lorenz(default_config("lorenz"))
        for p in train.points[::25]:
            assert in_hull(nodes, p) is not HullLocation.OUTSIDE

    def test_default_nodes_need_no_hull_check(self, monkeypatch):
        # The padded bounding box holds every training state by construction.
        calls = []
        monkeypatch.setattr(bench, "in_hull", lambda *args: calls.append(args))
        gen_lorenz(default_config("lorenz"))
        assert calls == []

    def test_bounds_missing_the_orbit_rejected(self):
        with pytest.raises(ConfigError, match="outside the node hull"):
            run_experiment("lorenz", {"bounds": [[-1.0, 1.0], [-1.0, 1.0], [0.0, 1.0]]})

    def test_negative_pad_fraction_rejected(self):
        with pytest.raises(ConfigError, match="pad_fraction"):
            gen_lorenz(apply_overrides(default_config("lorenz"), {"pad_fraction": -0.1}))

    def test_derivatives_match_rhs(self):
        cfg = default_config("lorenz")
        train, _, _ = gen_lorenz(cfg)
        rhs = lorenz_rhs(cfg.lorenz_sigma, cfg.lorenz_rho, cfg.lorenz_gamma)
        for i in (0, 100, 499):
            np.testing.assert_allclose(train.values[i], rhs(train.points[i]), atol=1e-12)


class TestGenOrbit:
    def test_radial_acceleration_zero_at_quarter(self):
        cfg = default_config("orbit")
        h0 = orbit_constants(cfg)["h0"]
        rhs = orbit_rhs(cfg.orbit_mu, cfg.orbit_ecc, h0)
        deriv = rhs(np.array([1.2, 0.05, np.pi / 2, 0.8]))
        assert deriv[1] == pytest.approx(0.0, abs=1e-16)

    def test_circular_orbit_has_no_radial_acceleration(self):
        cfg = apply_overrides(
            default_config("orbit"), {"orbit_ecc": 0.0, "n_train": 50, "augment_count": 10}
        )
        train, truth, _ = gen_orbit(cfg)
        np.testing.assert_allclose(train.values[:, 1], 0.0, atol=1e-14)
        np.testing.assert_allclose(truth.states[:, 0], cfg.orbit_perigee, atol=1e-10)

    def test_eccentricity_validated(self):
        with pytest.raises(ConfigError):
            gen_orbit(apply_overrides(default_config("orbit"), {"orbit_ecc": 1.0}))

    def test_angular_momentum_conserved_along_truth(self):
        cfg = apply_overrides(default_config("orbit"), {"n_train": 100, "augment_count": 20})
        _, truth, _ = gen_orbit(cfg)
        h0 = orbit_constants(cfg)["h0"]
        h = truth.states[:, 0] ** 2 * truth.states[:, 3]
        assert np.abs(h - h0).max() / h0 <= 1e-8

    def test_truth_self_convergence_fourth_order(self):
        cfg = default_config("orbit")
        h0 = orbit_constants(cfg)["h0"]
        period = orbit_constants(cfg)["period"]
        rhs = orbit_rhs(cfg.orbit_mu, cfg.orbit_ecc, h0)
        x0 = [cfg.orbit_perigee, 0.0, 0.0, h0 / cfg.orbit_perigee**2]
        horizon = period / 4
        reference = integrate(rhs, x0, (0.0, horizon), horizon / 64, substeps=64)
        errs = []
        for n_steps in (16, 32):
            traj = integrate(rhs, x0, (0.0, horizon), horizon / n_steps)
            errs.append(np.abs(traj.states[-1] - reference.states[-1]).max())
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0  # fourth order: halving dt -> ~16x


class TestRunExperiment:
    def test_sine_report_and_artifacts(self, tmp_path):
        report = run_experiment("sine", out_dir=tmp_path)
        assert report.training_rms <= 1e-3
        assert report.test_rms <= 1e-2
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["name"] == "sine"
        assert "runtime_s" not in payload  # wall-clock stays out of artifacts
        assert payload["training_rms"] == report.training_rms
        assert (tmp_path / "train.csv").exists()
        assert (tmp_path / "test_predictions.csv").exists()

    def test_beta_override_runs_global_variant(self):
        report = run_experiment("sine", {"beta": 0.0})
        assert report.config["beta"] == 0.0
        assert np.isfinite(report.test_rms)

    def test_deterministic_artifacts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_experiment("sine", baseline=True, out_dir=a)
        run_experiment("sine", baseline=True, out_dir=b)
        for name in ("report.json", "train.csv", "test_predictions.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_orbit_sparse_artifacts(self, tmp_path):
        report = run_experiment("orbit-sparse", out_dir=tmp_path)
        assert (tmp_path / "trajectory_true.csv").exists()
        assert (tmp_path / "trajectory_model.csv").exists()
        assert (tmp_path / "angular_momentum.csv").exists()
        assert report.extras["rollout_completed"]

    def test_report_json_round_trip(self, tmp_path):
        report = run_experiment("sine", out_dir=tmp_path)
        payload = json.loads((tmp_path / "report.json").read_text())
        # every float survives the JSON round trip exactly
        assert payload["test_rms"] == report.test_rms
        assert payload["extras"] == json.loads(json.dumps(report.extras))
        assert payload["config"] == report.config


# File name -> header row of each --baseline bundle.
BUNDLES = {
    "sine": {
        "report.json": None,
        "train.csv": "x1,f",
        "test_predictions.csv": "x1,f_true,f_pred,f_baseline",
    },
    "lorenz": {
        "report.json": None,
        "train.csv": "x1,x2,x3,dx1,dx2,dx3",
        "trajectory_true.csv": "t,x1,x2,x3",
        "trajectory_model.csv": "t,x1,x2,x3",
        "trajectory_baseline.csv": "t,x1,x2,x3",
    },
    "orbit-sparse": {
        "report.json": None,
        "train.csv": "x1,x2,x3,x4,dx1,dx2,dx3,dx4",
        "trajectory_true.csv": "t,x1,x2,x3,x4",
        "trajectory_model.csv": "t,x1,x2,x3,x4",
        "trajectory_baseline.csv": "t,x1,x2,x3,x4",
        "angular_momentum.csv": "t,h_err_model,h_err_true,h_err_baseline",
    },
}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_baseline_bundle_files_and_headers(tmp_path, name):
    run_experiment(name, baseline=True, out_dir=tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BUNDLES[name])
    for file_name, header in BUNDLES[name].items():
        if header is not None:
            assert (tmp_path / file_name).read_text().splitlines()[0] == header


def _traj(n, offset=0.0, d=2):
    """``n`` samples at times 0, 0.1, ...; every state component equals ``offset``."""
    return Trajectory(0.1 * np.arange(n), np.full((n, d), offset))


class TestSharedPrefix:
    def test_rms_covers_only_the_shared_prefix(self):
        truth = _traj(11)
        truncated = _traj(3, offset=2.0)
        assert _rms_upto(truncated, truth) == 2.0
        assert _rms_upto(truth, truncated) == 2.0

    def test_rms_window_counts_samples_up_to_t_max(self):
        truth = _traj(11)
        states = np.zeros((11, 2))
        states[5:] = 1.0  # off the truth only after t = 0.4
        model = Trajectory(truth.times, states)
        assert _rms_upto(model, truth, 0.4) == 0.0
        assert _rms_upto(model, truth) > 0.0

    def test_empty_window_is_inf(self):
        assert _rms_upto(_traj(5), _traj(5), -1.0) == np.inf
        assert _max_deviation(_traj(5), _traj(5), -1.0) == np.inf

    def test_deviation_of_a_rollout_stopped_before_the_window_is_inf(self):
        truth = _traj(11)
        assert _max_deviation(_traj(4), truth, 0.5) == np.inf
        assert _max_deviation(_traj(6, offset=0.5), truth, 0.5) == pytest.approx(0.5 * np.sqrt(2))
