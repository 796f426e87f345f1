"""Benchmark experiments: seeded generators, end-to-end runners, reports.

Five standard problems exercise the whole pipeline: a 1-D sine fit, a 2-D
damped-exponential fit, the Rosenbrock function, the Lorenz system, and a
planar satellite orbit (dense and sparse observation variants). Every
experiment is deterministic for a fixed seed: reports and artifact files
are byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalBlowup
from .geometry import HullLocation, NodeSet, augment_nodes, grid_nodes, in_hull
from .maxent import SolverOptions
from .approximator import Dataset, fit, predict_batch
from .baselines import Dictionary, dict_fit, dict_predict, dict_predict_batch
from .dynamics import (
    Trajectory,
    fit_dynamics,
    integrate,
    trajectory_rms,
    angular_momentum_error,
)

EXPERIMENTS = ("sine", "gauss2d", "rosenbrock", "lorenz", "orbit", "orbit-sparse")


@dataclass
class ExperimentConfig:
    """Everything one experiment run depends on; JSON-serializable.

    Defaults are per-experiment (see :func:`default_config`); unused fields
    stay at their neutral values. ``bounds = None`` for the dynamics cases
    means: bounding box of the sampled trajectory, padded by
    ``pad_fraction`` of its extent per axis.
    """

    name: str
    seed: int = 0
    beta: float = 0.0
    alpha: float = 0.0
    bounds: list | None = None
    grid_counts: list = field(default_factory=list)
    n_train: int = 0
    train_resolution: list | None = None
    test_resolution: int | list | None = None
    augment_count: int = 0
    pad_fraction: float = 0.1
    caption_variant: bool = False
    # Train/test tensor grids sample cell centers (strictly interior) by
    # default; node grids always include the endpoints so the hull covers
    # the domain. Set False to sample endpoint-inclusive grids instead.
    interior_grids: bool = True
    # dynamics
    t_end: float | None = None
    oversample: int = 10
    rollout_dt: float | None = None
    x0: list | None = None
    lorenz_sigma: float = 10.0
    lorenz_rho: float = 28.0
    lorenz_gamma: float = 8.0 / 3.0
    orbit_mu: float = 1.0
    orbit_ecc: float = 0.2
    orbit_perigee: float = 1.1
    orbit_periods: float = 2.0
    rollout_periods: float | None = None
    # basis solver
    solver_tol: float = 1e-10
    solver_max_iter: int = 100
    hull_tol: float = 1e-9
    # dictionary baseline
    dict_degree: int = 4
    dict_trig: bool = True
    dict_trig_frequency: float = 1.0
    dict_threshold: float = 0.05
    dict_sweeps: int = 10

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def solver_options(self) -> SolverOptions:
        return SolverOptions(tol=self.solver_tol, max_iter=self.solver_max_iter)

    def dictionary(self, dimension: int) -> Dictionary:
        return Dictionary(
            dimension=dimension,
            degree=self.dict_degree,
            trig=self.dict_trig,
            trig_frequency=self.dict_trig_frequency,
        )


@dataclass
class Report:
    """Headline numbers of one experiment run.

    ``runtime_s`` is wall-clock and intentionally excluded from the JSON
    form so that fixed-seed runs produce byte-identical report files.
    """

    name: str
    config: dict
    training_rms: float
    test_rms: float
    extras: dict
    runtime_s: float = 0.0

    def to_json_dict(self) -> dict:
        fields = dataclasses.asdict(self)
        del fields["runtime_s"]
        return fields


def default_config(name: str) -> ExperimentConfig:
    """Built-in configuration of a named experiment."""
    if name == "sine":
        return ExperimentConfig(
            name=name,
            beta=100.0,
            bounds=[[0.0, 1.0]],
            grid_counts=[10],
            n_train=20,
            test_resolution=50,
            dict_trig_frequency=float(2.0 * np.pi),
        )
    if name == "gauss2d":
        return ExperimentConfig(
            name=name,
            beta=10.0,
            bounds=[[0.0, 1.0], [0.0, 1.0]],
            grid_counts=[8, 8],
            train_resolution=[16, 16],
            test_resolution=[32, 32],
        )
    if name == "rosenbrock":
        return ExperimentConfig(
            name=name,
            beta=5.0,
            bounds=[[-1.0, 1.0], [-1.0, 1.0]],
            grid_counts=[8, 8],
            train_resolution=[16, 16],
            test_resolution=[32, 32],
        )
    if name == "lorenz":
        return ExperimentConfig(
            name=name,
            beta=0.002,
            grid_counts=[5, 5, 5],
            n_train=500,
            augment_count=100,
            t_end=5.0,
            oversample=10,
            dict_degree=2,
            dict_trig=False,
        )
    if name == "orbit":
        return ExperimentConfig(
            name=name,
            beta=0.1,
            grid_counts=[5, 5, 5, 5],
            n_train=500,
            augment_count=100,
            oversample=10,
        )
    if name == "orbit-sparse":
        return ExperimentConfig(
            name=name,
            beta=0.01,
            grid_counts=[5, 5, 5, 5],
            n_train=20,
            augment_count=20,
            oversample=10,
            rollout_periods=1.0,
        )
    raise ConfigError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")


def apply_overrides(config: ExperimentConfig, overrides: dict | None) -> ExperimentConfig:
    """Return a copy of ``config`` with override keys applied; unknown keys rejected."""
    if not overrides:
        return config
    valid = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")
    if "name" in overrides and overrides["name"] != config.name:
        raise ConfigError("the experiment name cannot be overridden")
    return dataclasses.replace(config, **overrides)


# ---------------------------------------------------------------------------
# Problem definitions
# ---------------------------------------------------------------------------

def _sine_fn(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * x[:, 0])


def _gauss2d_fn(x: np.ndarray, caption_variant: bool = False) -> np.ndarray:
    sq = np.sum(x**2, axis=1)
    if caption_variant:
        return x[:, 0] * np.exp(-sq)
    return 2.0 * x[:, 0] * np.exp(-4.0 * sq)


def _rosenbrock_fn(x: np.ndarray) -> np.ndarray:
    return (1.0 - x[:, 0]) ** 2 + 100.0 * (x[:, 1] - x[:, 0] ** 2) ** 2


def lorenz_rhs(sigma: float = 10.0, rho: float = 28.0, gamma: float = 8.0 / 3.0):
    """Right-hand side of the Lorenz system as a state -> derivative callable."""
    return lambda s: _lorenz_rhs_batch(np.asarray(s, dtype=float)[None], sigma, rho, gamma)[0]


def _lorenz_rhs_batch(states, sigma, rho, gamma):
    out = np.empty_like(states)
    out[:, 0] = sigma * (states[:, 1] - states[:, 0])
    out[:, 1] = states[:, 0] * (rho - states[:, 2]) - states[:, 1]
    out[:, 2] = states[:, 0] * states[:, 1] - gamma * states[:, 2]
    return out


def orbit_rhs(mu: float, ecc: float, h0: float):
    """Planar two-body dynamics in ``(r, rdot, theta, thetadot)`` coordinates.

    ``rddot = (mu ecc / h0) thetadot cos(theta)`` and
    ``thetaddot = -2 thetadot rdot / r``; angular momentum ``r^2 thetadot``
    is a constant of motion of this system.
    """
    return lambda s: _orbit_rhs_batch(np.asarray(s, dtype=float)[None], mu, ecc, h0)[0]


def _orbit_rhs_batch(states, mu, ecc, h0):
    out = np.empty_like(states)
    out[:, 0] = states[:, 1]
    out[:, 1] = (mu * ecc / h0) * states[:, 3] * np.cos(states[:, 2])
    out[:, 2] = states[:, 3]
    out[:, 3] = -2.0 * states[:, 3] * states[:, 1] / states[:, 0]
    return out


def orbit_constants(config: ExperimentConfig) -> dict:
    """Derived orbital quantities: angular momentum, semi-major axis, period."""
    mu, ecc, rp = config.orbit_mu, config.orbit_ecc, config.orbit_perigee
    if ecc >= 1.0 or ecc < 0.0:
        raise ConfigError(f"eccentricity must lie in [0, 1), got {ecc}")
    if rp <= 0 or mu <= 0:
        raise ConfigError("orbit_mu and orbit_perigee must be positive")
    h0 = float(np.sqrt(mu * rp * (1.0 + ecc)))
    a = rp / (1.0 - ecc)
    period = float(2.0 * np.pi * np.sqrt(a**3 / mu))
    return {"h0": h0, "semi_major_axis": a, "period": period}


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _tensor_points(bounds, counts, centered=False) -> np.ndarray:
    axes = []
    for (lo, hi), c in zip(bounds, counts):
        c = int(c)
        if centered:
            axes.append(lo + (hi - lo) * (np.arange(c) + 0.5) / c)
        else:
            axes.append(np.linspace(lo, hi, c))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def gen_sine(config: ExperimentConfig):
    """1-D sine target: seeded uniform training points, uniform test grid."""
    if config.n_train < 1:
        raise ConfigError(f"n_train must be at least 1, got {config.n_train}")
    rng = np.random.default_rng(config.seed)
    lo, hi = config.bounds[0]
    train_x = np.sort(rng.uniform(lo, hi, config.n_train))[:, None]
    test_x = np.linspace(lo, hi, int(config.test_resolution))[:, None]
    train = Dataset(train_x, _sine_fn(train_x))
    test = Dataset(test_x, _sine_fn(test_x))
    nodes = grid_nodes(config.bounds, config.grid_counts)
    return train, test, nodes


def _gen_tensor(config: ExperimentConfig, fn):
    """Target ``fn`` sampled on train/test tensor grids, with a node grid over ``bounds``."""
    train_x = _tensor_points(config.bounds, config.train_resolution, config.interior_grids)
    test_x = _tensor_points(config.bounds, config.test_resolution, config.interior_grids)
    train = Dataset(train_x, fn(train_x))
    test = Dataset(test_x, fn(test_x))
    nodes = grid_nodes(config.bounds, config.grid_counts)
    return train, test, nodes


def gen_gauss2d(config: ExperimentConfig):
    """2-D damped-exponential target on tensor grids over the unit square."""
    return _gen_tensor(config, lambda p: _gauss2d_fn(p, config.caption_variant))


def gen_rosenbrock(config: ExperimentConfig):
    """Rosenbrock target on tensor grids over ``[-1, 1]^2``."""
    return _gen_tensor(config, _rosenbrock_fn)


def _padded_bounds(states: np.ndarray, pad_fraction: float) -> list:
    lo = states.min(axis=0)
    hi = states.max(axis=0)
    # Zero-extent axes (conserved coordinates) still need a usable box.
    floor = pad_fraction * np.maximum(1.0, np.abs(0.5 * (lo + hi)))
    pad = np.where(hi > lo, pad_fraction * (hi - lo), floor)
    return [[float(l - p), float(h + p)] for l, h, p in zip(lo, hi, pad)]


def _dynamics_nodes(config: ExperimentConfig, states: np.ndarray) -> NodeSet:
    """Grid over the (padded) trajectory bounding box, augmented with data points.

    Every training point must land inside the hull; if the first padding is
    somehow insufficient the box is repadded once before giving up.
    """
    for attempt, pad in enumerate([config.pad_fraction, 2.0 * config.pad_fraction]):
        bounds = config.bounds if config.bounds is not None else _padded_bounds(states, pad)
        grid = grid_nodes(bounds, config.grid_counts)
        nodes = augment_nodes(grid, states, config.augment_count, seed=config.seed)
        outside = [
            i
            for i, p in enumerate(states)
            if in_hull(nodes, p, config.hull_tol) is HullLocation.OUTSIDE
        ]
        if not outside:
            return nodes
        if config.bounds is not None or attempt == 1:
            raise ConfigError(
                f"{len(outside)} training points fall outside the node hull; "
                "widen bounds or pad_fraction"
            )
    raise AssertionError("unreachable")


def gen_lorenz(config: ExperimentConfig):
    """Lorenz trajectory samples with exact derivatives, plus basis nodes.

    The truth trajectory starts from a seeded initial state near the
    attractor and is integrated with RK4 micro-steps (``oversample`` per
    output step) on the sampling grid. Nodes are a grid over the padded
    trajectory bounding box, augmented with ``augment_count`` trajectory
    points picked by farthest-point subsampling.
    """
    sigma, rho, gamma = config.lorenz_sigma, config.lorenz_rho, config.lorenz_gamma
    if config.x0 is not None:
        x0 = np.asarray(config.x0, dtype=float)
    else:
        rng = np.random.default_rng(config.seed)
        x0 = np.array([-8.0, 8.0, 27.0]) + rng.uniform(-0.5, 0.5, 3)
    n = config.n_train
    dt = config.t_end / (n - 1)
    truth = integrate(lorenz_rhs(sigma, rho, gamma), x0, (0.0, config.t_end), dt,
                      substeps=config.oversample)
    derivs = _lorenz_rhs_batch(truth.states, sigma, rho, gamma)
    train = Dataset(truth.states, derivs)
    nodes = _dynamics_nodes(config, truth.states)
    return train, truth, nodes


def gen_orbit(config: ExperimentConfig):
    """Planar-orbit trajectory samples with exact derivatives, plus basis nodes.

    Normalized units: gravitational parameter 1, lengths in Earth radii.
    The trajectory starts at perigee and spans ``orbit_periods`` periods.
    """
    consts = orbit_constants(config)
    h0, period = consts["h0"], consts["period"]
    mu, ecc, rp = config.orbit_mu, config.orbit_ecc, config.orbit_perigee
    x0 = np.array([rp, 0.0, 0.0, h0 / rp**2])
    t_end = config.t_end if config.t_end is not None else config.orbit_periods * period
    n = config.n_train
    dt = t_end / (n - 1)
    truth = integrate(orbit_rhs(mu, ecc, h0), x0, (0.0, t_end), dt, substeps=config.oversample)
    derivs = _orbit_rhs_batch(truth.states, mu, ecc, h0)
    train = Dataset(truth.states, derivs)
    nodes = _dynamics_nodes(config, truth.states)
    return train, truth, nodes


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

_STATIC_GENERATORS = {"sine": gen_sine, "gauss2d": gen_gauss2d, "rosenbrock": gen_rosenbrock}


def _fit_dictionary(config: ExperimentConfig, train: Dataset):
    """The dictionary-regression baseline fitted to the training data."""
    return dict_fit(config.dictionary(train.d), train, config.dict_threshold, config.dict_sweeps)


def _run_static(config: ExperimentConfig, baseline: bool):
    train, test, nodes = _STATIC_GENERATORS[config.name](config)
    opts = config.solver_options()
    model = fit(nodes, train, config.beta, config.alpha, opts=opts, hull_tol=config.hull_tol)
    test_pred = predict_batch(model, test.points, opts=opts)
    test_rms = float(np.sqrt(np.mean((test.component(0) - test_pred) ** 2)))
    extras: dict = {"n_nodes": nodes.n, "n_train": train.n, "n_test": test.n}
    artifacts = {
        "train": train,
        "test": test,
        "test_pred": test_pred,
    }
    if baseline:
        dmodel = _fit_dictionary(config, train)
        base_train = dict_predict_batch(dmodel, train.points)[:, 0]
        base_test = dict_predict_batch(dmodel, test.points)[:, 0]
        extras["baseline_training_rms"] = float(
            np.sqrt(np.mean((train.component(0) - base_train) ** 2))
        )
        extras["baseline_test_rms"] = float(
            np.sqrt(np.mean((test.component(0) - base_test) ** 2))
        )
        artifacts["test_pred_baseline"] = base_test
    report = Report(
        name=config.name,
        config=config.to_dict(),
        training_rms=model.fit_report.training_rms,
        test_rms=test_rms,
        extras=extras,
    )
    return report, artifacts


def _prefix(traj: Trajectory, n: int) -> Trajectory:
    return Trajectory(traj.times[:n], traj.states[:n])


def _windowed_rms(model_traj: Trajectory, truth: Trajectory, t_max: float) -> float:
    n = min(model_traj.n_samples, truth.n_samples)
    mask = truth.times[:n] <= t_max + 1e-12
    m = int(mask.sum())
    if m == 0:
        return float("inf")
    return trajectory_rms(_prefix(model_traj, m), _prefix(truth, m))


def _max_deviation(model_traj: Trajectory, truth: Trajectory, t_max: float) -> float:
    """Largest Euclidean state deviation within ``[0, t_max]``.

    A rollout that ended (hull exit or blowup) before ``t_max`` deviates
    maximally: returns inf.
    """
    n = min(model_traj.n_samples, truth.n_samples)
    mask = truth.times[:n] <= t_max + 1e-12
    m = int(mask.sum())
    if m == 0 or model_traj.times[-1] < t_max - 1e-9:
        return float("inf")
    dev = np.linalg.norm(model_traj.states[:m] - truth.states[:m], axis=1)
    return float(dev.max())


def _safe_rollout(field, x0, t_span, dt):
    """Integrate, converting a numerical blowup into the valid prefix."""
    try:
        return integrate(field, x0, t_span, dt), False
    except NumericalBlowup as err:
        if err.times is None or len(err.times) == 0:
            raise
        return Trajectory(err.times, err.states), True


def _fit_and_roll(config: ExperimentConfig, train: Dataset, nodes: NodeSet, rhs, horizon, dt):
    """Fit the field surrogate, then roll it and the true field ``rhs`` out.

    Both rollouts start from the first training state and run over
    ``[0, horizon]`` at output step ``dt``. Returns the report holding the
    extras every dynamics experiment shares, the trajectory artifacts, and
    whether the surrogate rollout blew up.
    """
    model = fit_dynamics(
        nodes, train, config.beta, config.alpha,
        opts=config.solver_options(), hull_tol=config.hull_tol,
    )
    per_component = [r.training_rms for r in model.fit_reports]
    x0 = train.points[0]
    truth_roll = integrate(rhs, x0, (0.0, horizon), dt, substeps=config.oversample)
    model_traj, blew_up = _safe_rollout(model, x0, (0.0, horizon), dt)

    n = min(model_traj.n_samples, truth_roll.n_samples)
    rms_full = trajectory_rms(_prefix(model_traj, n), _prefix(truth_roll, n))
    extras = {
        "n_nodes": nodes.n,
        "n_train": train.n,
        "derivative_rms_per_component": per_component,
        "trajectory_rms_full": rms_full,
        "rollout_samples": model_traj.n_samples,
        "rollout_exit_time": (
            model_traj.domain_exit.time if model_traj.domain_exit is not None else None
        ),
    }
    report = Report(
        name=config.name,
        config=config.to_dict(),
        training_rms=float(np.sqrt(np.mean(np.square(per_component)))),
        test_rms=rms_full,
        extras=extras,
    )
    artifacts = {"train": train, "truth_traj": truth_roll, "model_traj": model_traj}
    return report, artifacts, blew_up


def _baseline_rollout(config: ExperimentConfig, train: Dataset, horizon, dt):
    """Fit the dictionary baseline and roll it out like the surrogate.

    Returns the baseline model, its trajectory, and whether it blew up.
    """
    dmodel = _fit_dictionary(config, train)
    base_field = lambda s: dict_predict(dmodel, s)  # noqa: E731
    base_traj, blew_up = _safe_rollout(base_field, train.points[0], (0.0, horizon), dt)
    return dmodel, base_traj, blew_up


def _run_lorenz(config: ExperimentConfig, baseline: bool):
    train, _, nodes = gen_lorenz(config)
    dt = config.rollout_dt if config.rollout_dt is not None else config.t_end / (config.n_train - 1)
    rhs = lorenz_rhs(config.lorenz_sigma, config.lorenz_rho, config.lorenz_gamma)
    report, artifacts, blew_up = _fit_and_roll(config, train, nodes, rhs, config.t_end, dt)
    truth_roll = artifacts["truth_traj"]
    extras = report.extras
    extras["trajectory_rms_early"] = _windowed_rms(
        artifacts["model_traj"], truth_roll, 0.2 * config.t_end
    )
    extras["early_window_fraction"] = 0.2
    extras["rollout_blowup"] = blew_up
    if baseline:
        dmodel, base_traj, base_blowup = _baseline_rollout(config, train, config.t_end, dt)
        nb = min(base_traj.n_samples, truth_roll.n_samples)
        extras["baseline_trajectory_rms_full"] = trajectory_rms(
            _prefix(base_traj, nb), _prefix(truth_roll, nb)
        )
        extras["baseline_rollout_blowup"] = base_blowup
        base_pred = dict_predict_batch(dmodel, train.points)
        extras["baseline_derivative_rms_per_component"] = [
            float(np.sqrt(np.mean((train.values[:, j] - base_pred[:, j]) ** 2)))
            for j in range(train.d)
        ]
        artifacts["baseline_traj"] = base_traj
    return report, artifacts


def _run_orbit(config: ExperimentConfig, baseline: bool):
    train, _, nodes = gen_orbit(config)
    consts = orbit_constants(config)
    h0, period = consts["h0"], consts["period"]
    data_t_end = config.t_end if config.t_end is not None else config.orbit_periods * period
    horizon = (
        config.rollout_periods * period if config.rollout_periods is not None else data_t_end
    )
    dt = config.rollout_dt if config.rollout_dt is not None else min(
        data_t_end / (config.n_train - 1), period / 200.0
    )
    rhs = orbit_rhs(config.orbit_mu, config.orbit_ecc, h0)
    report, artifacts, blew_up = _fit_and_roll(config, train, nodes, rhs, horizon, dt)
    model_traj, truth_roll = artifacts["model_traj"], artifacts["truth_traj"]

    n = min(model_traj.n_samples, truth_roll.n_samples)
    h_err = angular_momentum_error(_prefix(model_traj, n), h0)
    h_err_truth = angular_momentum_error(truth_roll, h0)
    extras = report.extras
    extras.update(
        {
            "period": period,
            "h0": h0,
            "rollout_horizon": horizon,
            "rollout_completed": bool(
                model_traj.domain_exit is None
                and not blew_up
                and model_traj.n_samples == truth_roll.n_samples
            ),
            "max_angular_momentum_error": float(h_err.max()) if h_err.size else float("inf"),
            "truth_max_angular_momentum_error": float(h_err_truth.max()),
        }
    )
    artifacts["h_err_model"] = h_err
    artifacts["h_err_truth"] = h_err_truth
    if baseline:
        _, base_traj, base_blowup = _baseline_rollout(config, train, horizon, dt)
        window = 0.1 * period
        maxent_dev = _max_deviation(model_traj, truth_roll, window)
        base_dev = _max_deviation(base_traj, truth_roll, window)
        extras["deviation_window"] = window
        extras["maxent_deviation"] = maxent_dev
        extras["baseline_deviation"] = base_dev
        extras["baseline_rollout_blowup"] = base_blowup
        extras["baseline_deviation_ratio"] = (
            base_dev / maxent_dev if maxent_dev > 0 else float("inf")
        )
        # Both trajectories hold at least the initial state, so nb >= 1.
        nb = min(base_traj.n_samples, truth_roll.n_samples)
        with np.errstate(over="ignore", invalid="ignore"):
            r_ok = np.all(base_traj.states[:nb, 0] > 0)
        extras["baseline_trajectory_rms_prefix"] = trajectory_rms(
            _prefix(base_traj, nb), _prefix(truth_roll, nb)
        )
        if r_ok:
            artifacts["h_err_baseline"] = angular_momentum_error(_prefix(base_traj, nb), h0)
        artifacts["baseline_traj"] = base_traj
    return report, artifacts


def run_experiment(
    name: str,
    overrides: dict | None = None,
    baseline: bool = False,
    out_dir=None,
) -> Report:
    """Run one named experiment end to end.

    Generates the data, fits the approximant or surrogate, evaluates the
    headline errors, and (optionally) writes the artifact bundle to
    ``out_dir``: ``report.json``, ``train.csv``, and either
    ``test_predictions.csv`` or the trajectory CSV pair.
    """
    config = apply_overrides(default_config(name), overrides)
    start = time.perf_counter()
    if name in _STATIC_GENERATORS:
        report, artifacts = _run_static(config, baseline)
    elif name == "lorenz":
        report, artifacts = _run_lorenz(config, baseline)
    else:
        report, artifacts = _run_orbit(config, baseline)
    report.runtime_s = time.perf_counter() - start
    if out_dir is not None:
        from . import fileio

        fileio.write_experiment_artifacts(out_dir, report, artifacts)
    return report
