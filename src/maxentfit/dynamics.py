"""Vector-field surrogates and fixed-step time integration.

A surrogate model approximates an unknown vector field ``f: X -> R^d``
from samples ``(y_i, dy_i)``: each component is fitted independently as a
scalar approximant, all components sharing one cached basis-weight matrix.
The fitted field can be evaluated anywhere inside the node hull and rolled
forward in time with classical fourth-order Runge-Kutta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, FitError, OutsideHullError
from .geometry import DEFAULT_HULL_TOL, NodeSet, as_point
from .maxent import DEFAULT_OPTIONS, SolverOptions, solve_basis
from .approximator import Dataset, FitReport, _fit_columns, check_converged


@dataclass(frozen=True, eq=False)
class SurrogateModel:
    """Component-wise approximant of a vector field on a shared node set.

    ``coeff_matrix`` has shape ``(n_nodes, d)``; column ``j`` holds the
    coefficients of component ``j``.
    """

    nodes: NodeSet
    beta: float
    alpha: float
    coeff_matrix: np.ndarray
    fit_reports: tuple[FitReport, ...]


@dataclass(frozen=True)
class DomainExit:
    """Why and where a rollout stopped before its end time.

    ``reason`` is ``"left_hull"`` (a Runge-Kutta stage left the node hull;
    ``exit_point`` is that stage), ``"nonconverged"`` (a basis solve at a
    stage did not converge) or ``"blowup"`` (the step came out
    non-finite). ``time`` and ``state`` are the last valid sample.
    """

    reason: str
    time: float
    state: np.ndarray
    exit_point: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time grid and states of one integrated trajectory.

    ``domain_exit`` is set when the rollout stopped early; the stored
    samples are then the valid prefix.
    """

    times: np.ndarray
    states: np.ndarray
    domain_exit: DomainExit | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise DimensionError(
                f"times and states must be (n,) and (n, d), got {times.shape} and {states.shape}"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise DimensionError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise DimensionError("trajectory contains non-finite entries")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def n_samples(self) -> int:
        return self.times.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]


def fit_dynamics(
    nodes: NodeSet,
    data: Dataset,
    beta: float,
    alpha: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
    hull_tol: float = DEFAULT_HULL_TOL,
) -> SurrogateModel:
    """Fit a vector-field surrogate from ``(point, derivative)`` pairs.

    Basis weights are evaluated once per data point and reused across all
    components, so the result is identical to fitting each component
    separately with the scalar path.
    """
    if data.n_components != data.d:
        raise DimensionError(
            f"field data needs d = {data.d} value columns, got {data.n_components}"
        )
    coeff, reports = _fit_columns(nodes, data, beta, alpha, opts, hull_tol)
    return SurrogateModel(
        nodes=nodes,
        beta=float(beta),
        alpha=float(alpha),
        coeff_matrix=coeff,
        fit_reports=reports,
    )


def eval_field(model: SurrogateModel, x, opts: SolverOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """Surrogate field at one point: one basis solve, d inner products; FitError if unconverged."""
    ev = solve_basis(model.nodes, x, model.beta, opts=opts)
    check_converged([ev], [x])
    return model.coeff_matrix.T @ ev.weights


def _time_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    span = t1 - t0
    n_full = int(np.floor(span / dt + 1e-9))
    times = t0 + dt * np.arange(n_full + 1)
    if t1 - times[-1] > 1e-9 * dt:
        times = np.append(times, t1)
    else:
        times[-1] = t1
    return times


def _rk4_step(f, x: np.ndarray, h: float) -> np.ndarray:
    k1 = np.asarray(f(x), dtype=float)
    k2 = np.asarray(f(x + 0.5 * h * k1), dtype=float)
    k3 = np.asarray(f(x + 0.5 * h * k2), dtype=float)
    k4 = np.asarray(f(x + h * k3), dtype=float)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(field, x0, t_span, dt: float, substeps: int = 1) -> Trajectory:
    """Integrate ``dx/dt = field(x)`` with fixed-step classical RK4.

    Parameters
    ----------
    field : SurrogateModel or callable
        Surrogate fields are hull-checked and their basis solves must
        converge. Plain callables map a state vector to its derivative and
        are trusted.
    x0 : array_like
        Initial state; must be inside the hull for surrogate fields.
    t_span : (t0, t1)
    dt : float
        Output step; the final step is shortened to land exactly on ``t1``.
    substeps : int
        Internal RK4 micro-steps per output step. Use > 1 to generate
        reference trajectories on the same output grid with less
        integration error.

    A step that leaves the hull, meets a non-converged basis solve or comes
    out non-finite ends the rollout: the returned trajectory holds the
    valid prefix and a :class:`DomainExit` record saying which of the three
    happened. Only bad arguments raise (``DomainError``, ``DimensionError``).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not dt > 0:
        raise DomainError(f"dt must be positive, got {dt}")
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got ({t0}, {t1})")
    if substeps < 1:
        raise DomainError(f"substeps must be at least 1, got {substeps}")

    if isinstance(field, SurrogateModel):
        x = as_point(x0, field.nodes.d)

        def f(s):
            # a non-finite stage is divergence, not a malformed query: pass
            # it on so the step comes out non-finite
            if not np.all(np.isfinite(s)):
                return s
            return eval_field(field, s)

    else:
        x = as_point(x0)
        f = field

    times = _time_grid(t0, t1, dt)
    states = [x]
    # A step that overflows is caught below and reported as "blowup", so
    # numpy's floating-point warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i in range(times.size - 1):
            h = (times[i + 1] - times[i]) / substeps
            cur = states[-1]
            reason = point = None
            try:
                for _ in range(substeps):
                    cur = _rk4_step(f, cur, h)
            except OutsideHullError as err:
                reason, point = "left_hull", err.point
            except FitError:
                reason = "nonconverged"
            if reason is None and not np.all(np.isfinite(cur)):
                reason = "blowup"
            if reason is not None:
                stop = DomainExit(reason, float(times[i]), states[-1], point)
                return Trajectory(times[: i + 1], np.vstack(states), stop)
            states.append(cur)
    return Trajectory(times=times, states=np.vstack(states))


def trajectory_rms(a: Trajectory, b: Trajectory) -> float:
    """RMS state difference of two trajectories on one shared time grid."""
    if not np.array_equal(a.times, b.times):
        raise DomainError("trajectories are on different time grids")
    if a.states.shape != b.states.shape:
        raise DomainError(
            f"state shapes differ: {a.states.shape} vs {b.states.shape}"
        )
    return float(np.sqrt(np.mean((a.states - b.states) ** 2)))


def angular_momentum_error(traj: Trajectory, h0: float) -> np.ndarray:
    """Normalized angular-momentum drift ``|r^2 thetadot - h0| / h0`` per sample.

    Expects satellite coordinates ``(r, rdot, theta, thetadot)``.
    """
    if not h0 > 0:
        raise DomainError(f"h0 must be positive, got {h0}")
    if traj.d != 4:
        raise DimensionError(f"expected 4 state components (r, rdot, theta, thetadot), got {traj.d}")
    r = traj.states[:, 0]
    if np.any(r <= 0):
        raise DomainError("radial distance must stay positive")
    h = r**2 * traj.states[:, 3]
    return np.abs(h - h0) / h0
