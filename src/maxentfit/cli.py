"""Command-line interface.

Subcommands
-----------
fit        fit a model (scalar approximant or vector-field surrogate) to a CSV dataset
eval       evaluate a saved model at CSV query points
simulate   roll a saved field model forward in time with fixed-step RK4
bench      run a named benchmark experiment and write its artifact bundle

Exit codes: 0 success, 2 parse/config error, 3 point outside the node hull,
4 solver failure, 5 simulation left the hull, 6 numerical blowup. When
``simulate`` stops early (4, 5 or 6) it writes the valid partial trajectory.

Every RunConfig key can be overridden through the environment as
``MAXENTFIT_<KEY>`` (upper-cased, JSON-encoded value), e.g.
``MAXENTFIT_BETA=50`` or ``MAXENTFIT_GRID_COUNTS="[10]"``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, bench, fileio
from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    FitError,
    OutsideHullError,
)
from .geometry import NodeSet, augment_nodes, grid_nodes
from .geometry import in_hull  # noqa: F401  (perfbench/test_perfbench.py traces this binding)
from .maxent import SolverOptions, basis_matrix
from .approximator import Approximant, check_converged, fit
from .dynamics import SurrogateModel, fit_dynamics, integrate

ENV_PREFIX = "MAXENTFIT_"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OUTSIDE_HULL = 3
EXIT_SOLVER = 4
EXIT_LEFT_HULL = 5
EXIT_BLOWUP = 6

# Exit code of `simulate` per DomainExit reason; each writes the valid prefix.
_EXIT_EARLY_STOP = {
    "left_hull": EXIT_LEFT_HULL, "nonconverged": EXIT_SOLVER, "blowup": EXIT_BLOWUP
}


@dataclass
class RunConfig:
    """Configuration for fit/eval/simulate; all defaults are explicit here.

    ``grid_bounds = None`` derives the node grid from the data bounding box
    padded by ``pad_fraction`` per axis; ``nodes_from_data`` uses the data
    points themselves as nodes instead of a grid.
    """

    seed: int = 0
    beta: float = 1.0
    alpha: float = 0.0
    grid_bounds: list[tuple[float, float]] | None = None
    grid_counts: list[int] | None = None
    nodes_from_data: bool = False
    augment_count: int = 0
    pad_fraction: float = 0.1
    solver_tol: float = 1e-10
    solver_max_iter: int = 100
    hull_tol: float = 1e-9

    def __post_init__(self):
        # the config file and the environment both reach here through
        # dataclasses.replace
        fileio.check_json_types(self)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True) + "\n"

    def solver_options(self) -> SolverOptions:
        return SolverOptions(tol=self.solver_tol, max_iter=self.solver_max_iter)


def load_run_config(path=None, env=None) -> RunConfig:
    """Merge defaults, an optional JSON config file, and environment overrides."""
    config = RunConfig()
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    if path is not None:
        p = Path(path)
        try:
            payload = json.loads(p.read_text(encoding="utf-8"))
        except OSError as err:
            raise ConfigError(f"cannot read config file {p}: {err}") from None
        except json.JSONDecodeError as err:
            raise ConfigError(f"{p}: invalid JSON: {err}") from None
        if not isinstance(payload, dict):
            raise ConfigError(f"{p}: config must be a JSON object")
        unknown = sorted(set(payload) - set(fields))
        if unknown:
            raise ConfigError(f"{p}: unknown config keys: {unknown}")
        config = dataclasses.replace(config, **payload)
    env = os.environ if env is None else env
    for name in fields:
        var = ENV_PREFIX + name.upper()
        if var in env:
            try:
                value = json.loads(env[var])
            except json.JSONDecodeError:
                raise ConfigError(f"{var}: value must be JSON, got {env[var]!r}") from None
            config = dataclasses.replace(config, **{name: value})
    return config


def _build_nodes(config: RunConfig, points: np.ndarray) -> NodeSet:
    if config.nodes_from_data:
        return NodeSet(points)
    if config.grid_counts is None:
        raise ConfigError("grid_counts is required unless nodes_from_data is true")
    if config.grid_bounds is not None:
        bounds = config.grid_bounds
        if len(bounds) != points.shape[1]:
            raise ConfigError(
                f"grid_bounds has {len(bounds)} axes for {points.shape[1]}-dimensional data"
            )
    else:
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        pad = config.pad_fraction * (hi - lo)
        pad = np.where(pad > 0, pad, 1.0)  # degenerate extent: pad by a unit
        bounds = [[float(l - p), float(h + p)] for l, h, p in zip(lo, hi, pad)]
    grid = grid_nodes(bounds, config.grid_counts)
    if config.augment_count > 0:
        grid = augment_nodes(grid, points, config.augment_count, seed=config.seed)
    return grid


def _csv_rows(indices) -> str:
    # +2: one for the header line, one for 1-based numbering.
    return ", ".join(str(i + 2) for i in indices)


@contextlib.contextmanager
def _naming_csv_rows(path):
    """Re-raise per-row hull and convergence failures naming the CSV lines of ``path``."""
    try:
        yield
    except OutsideHullError as err:
        raise OutsideHullError(
            f"{path}: rows {_csv_rows(err.indices)} lie outside the node hull",
            point=err.point,
            index=err.index,
            indices=err.indices,
        ) from None
    except FitError as err:
        if not err.failed_indices:
            raise
        raise FitError(
            f"{path}: basis solve failed to converge at rows {_csv_rows(err.failed_indices)}",
            failed_indices=err.failed_indices,
        ) from None


def cmd_fit(args) -> int:
    config = load_run_config(args.config)
    if args.print_config:
        sys.stdout.write(config.to_json())
        return EXIT_OK
    data = fileio.read_dataset_csv(args.data)
    nodes = _build_nodes(config, data.points)
    opts = config.solver_options()
    with _naming_csv_rows(args.data):
        if data.values.ndim == 1:  # 'f' column: scalar approximant
            model = fit(nodes, data, config.beta, config.alpha, opts=opts, hull_tol=config.hull_tol)
            rms = model.fit_report.training_rms
        else:  # 'dx*' columns: vector-field surrogate
            model = fit_dynamics(
                nodes, data, config.beta, config.alpha, opts=opts, hull_tol=config.hull_tol
            )
            rms = float(np.sqrt(np.mean([r.training_rms**2 for r in model.fit_reports])))
    fileio.save_model(args.out, model)
    print(f"fit: {data.n} points, {nodes.n} nodes, training_rms={rms:.6e} -> {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = fileio.load_model(args.model)
    points = fileio.read_points_csv(args.points)
    config = load_run_config(args.config)
    with _naming_csv_rows(args.points):
        psi_mat, evals = basis_matrix(
            model.nodes, points, model.beta,
            opts=config.solver_options(), hull_tol=config.hull_tol,
        )
        check_converged(evals, points)
    if isinstance(model, Approximant):
        columns = {"f_pred": psi_mat @ model.coefficients}
    else:
        pred = psi_mat @ model.coeff_matrix
        columns = {f"dx{j + 1}_pred": pred[:, j] for j in range(pred.shape[1])}
    fileio.write_predictions_csv(args.out, points, columns)
    print(f"eval: {len(points)} points -> {args.out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = fileio.load_model(args.model)
    if not isinstance(model, SurrogateModel):
        raise ConfigError("simulate requires a field model (fit on dx1..dxd data)")
    try:
        x0 = [float(tok) for tok in args.x0.split(",")]
    except ValueError:
        raise ConfigError(f"--x0 must be comma-separated numbers, got {args.x0!r}") from None
    traj = integrate(model, x0, (0.0, args.t1), args.dt)
    fileio.write_trajectory_csv(args.out, traj)
    stop = traj.domain_exit
    if stop is not None:
        print(
            f"simulate: rollout stopped ({stop.reason}); last valid time "
            f"t={stop.time!r}; partial trajectory -> {args.out}",
            file=sys.stderr,
        )
        return _EXIT_EARLY_STOP[stop.reason]
    print(f"simulate: {traj.n_samples} samples to t={args.t1} -> {args.out}")
    return EXIT_OK


def _parse_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            raise ConfigError(f"--set {key}: value must be JSON, got {raw!r}") from None
    return overrides


def cmd_bench(args) -> int:
    overrides = _parse_overrides(args.set)
    if args.print_config:
        config = bench.apply_overrides(bench.default_config(args.experiment), overrides)
        sys.stdout.write(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    out_dir = args.out if args.out is not None else f"bench_{args.experiment}"
    report = bench.run_experiment(
        args.experiment, overrides, baseline=args.baseline, out_dir=out_dir
    )
    line = (
        f"{report.name:<13s} training_rms={report.training_rms:.3e} "
        f"test_rms={report.test_rms:.3e} runtime={report.runtime_s:.2f}s"
    )
    if "baseline_test_rms" in report.extras:
        line += f" baseline_test_rms={report.extras['baseline_test_rms']:.3e}"
    if "max_angular_momentum_error" in report.extras:
        line += f" h_err={report.extras['max_angular_momentum_error']:.3e}"
    print(line + f" -> {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxentfit",
        description="Maximum-entropy basis approximants and surrogate dynamics models.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"maxentfit {__version__} (model format {fileio.MODEL_FORMAT})",
    )
    parser.add_argument(
        "--print-config",
        action="store_true",
        help="print the default run configuration as JSON and exit",
    )
    sub = parser.add_subparsers(dest="command")

    p_fit = sub.add_parser("fit", help="fit a model to a CSV dataset")
    p_fit.add_argument("--data", required=True, help="training CSV (x1..xd,f or x1..xd,dx1..dxd)")
    p_fit.add_argument("--config", default=None, help="JSON run-config file")
    p_fit.add_argument("--out", required=True, help="output model file (JSON)")
    p_fit.add_argument(
        "--print-config",
        action="store_true",
        help="print the merged configuration instead of fitting",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="evaluate a model at CSV query points")
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--points", required=True, help="CSV with columns x1..xd")
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument(
        "--config", default=None, help="JSON run-config file (hull tolerance, solver keys)"
    )
    p_eval.set_defaults(func=cmd_eval)

    p_sim = sub.add_parser("simulate", help="integrate a field model forward in time")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--x0", required=True, help="comma-separated initial state")
    p_sim.add_argument("--t1", type=float, required=True, help="end time (start is 0)")
    p_sim.add_argument("--dt", type=float, required=True, help="fixed RK4 step")
    p_sim.add_argument("--out", required=True, help="output trajectory CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="run a named benchmark experiment")
    p_bench.add_argument("--experiment", required=True, help=f"one of {bench.EXPERIMENTS}")
    p_bench.add_argument("--baseline", action="store_true", help="also run the dictionary baseline")
    p_bench.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    p_bench.add_argument("--out", default=None, help="artifact directory (default bench_<name>)")
    p_bench.add_argument(
        "--print-config",
        action="store_true",
        help="print the experiment configuration instead of running",
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        if args.print_config:
            sys.stdout.write(load_run_config().to_json())
            return EXIT_OK
        parser.print_help()
        return EXIT_CONFIG
    try:
        return args.func(args)
    except (ConfigError, DimensionError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OutsideHullError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OUTSIDE_HULL
    except FitError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
