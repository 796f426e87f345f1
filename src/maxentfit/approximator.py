"""Scattered-data approximants on maximum-entropy bases.

An approximant is ``fhat(x) = a . psi(x)`` where ``psi`` are the basis
weights of ``x`` against a node set and the coefficient vector ``a``
minimizes ``||eps||_2 + alpha ||a||_1`` over the training data, ``eps``
being the vector of training residuals. With ``alpha = 0`` this is plain
least squares on the stacked basis matrix; ``alpha > 0`` adds an l1 penalty
that damps coefficient growth and can zero out unneeded nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, FitError
from .geometry import DEFAULT_HULL_TOL, NodeSet
from .maxent import DEFAULT_OPTIONS, SolverOptions, basis_matrix, solve_basis

_L1_MAX_ITER = 20000
_L1_OPT_TOL = 1e-8
_L1_REL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sample points with scalar or vector observations.

    ``values`` is ``(n,)`` for scalar targets (function values) or
    ``(n, m)`` for vector targets (one column per component, e.g. state
    derivatives).
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        if points.ndim != 2 or points.shape[0] < 1:
            raise DimensionError(f"points must be a non-empty (n, d) array, got shape {points.shape}")
        if values.ndim not in (1, 2) or values.shape[0] != points.shape[0]:
            raise DimensionError(
                f"values must have one row per point: {values.shape} vs {points.shape[0]} points"
            )
        if not np.all(np.isfinite(points)):
            raise DimensionError("points contain non-finite values")
        if not np.all(np.isfinite(values)):
            raise DimensionError("values contain non-finite entries")
        points = points.copy()
        points.setflags(write=False)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    @property
    def n_components(self) -> int:
        return 1 if self.values.ndim == 1 else self.values.shape[1]

    def component(self, j: int) -> np.ndarray:
        """Column ``j`` of the values as a 1-D vector."""
        if self.values.ndim == 1:
            if j != 0:
                raise DimensionError(f"scalar dataset has no component {j}")
            return self.values
        return self.values[:, j]


@dataclass(frozen=True)
class FitReport:
    training_rms: float
    objective: float
    solver_iterations: int


@dataclass(frozen=True, eq=False)
class Approximant:
    """A fitted scalar approximant: nodes, locality, and coefficients."""

    nodes: NodeSet
    beta: float
    alpha: float
    coefficients: np.ndarray
    fit_report: FitReport


def _soft_threshold(v: np.ndarray, t: float) -> np.ndarray:
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def _l1_objective(psi_mat, y, a, alpha):
    return float(np.linalg.norm(psi_mat @ a - y) + alpha * np.abs(a).sum())


def l1_optimality_residual(psi_mat, y, alpha, a, guard=None) -> float:
    """Max subgradient-optimality violation of ``||eps||_2 + alpha ||a||_1`` at ``a``.

    Zero residual means: for active coefficients the smooth gradient
    cancels ``alpha * sign(a_i)`` exactly, and for zero coefficients it
    stays within ``[-alpha, alpha]``.
    """
    r = psi_mat @ a - y
    if guard is None:
        guard = 1e-12 * (1.0 + float(np.linalg.norm(y)))
    g = psi_mat.T @ r / max(float(np.linalg.norm(r)), guard)
    active = a != 0
    res = np.where(active, np.abs(g + alpha * np.sign(a)), np.maximum(np.abs(g) - alpha, 0.0))
    return float(res.max()) if res.size else 0.0


def l1_fit(psi_mat, y, alpha, rel_tol=_L1_REL_TOL, max_iter=_L1_MAX_ITER):
    """Minimize ``||psi_mat a - y||_2 + alpha ||a||_1`` by proximal gradient.

    Warm-starts from the least-squares solution and takes monotone
    soft-thresholded gradient steps with backtracking on the majorizing
    model of the smooth part; the objective never increases. The smooth
    term ``||eps||_2`` is nonsmooth at zero residual, so its gradient uses
    a guarded denominator ``max(||eps||, guard)``.

    Returns
    -------
    a : (n,) ndarray
    iterations : int
    history : list of float
        Objective value per accepted iterate (including the start).
    """
    psi_mat = np.asarray(psi_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.linalg.lstsq(psi_mat, y, rcond=None)[0]
    if alpha == 0:
        return a, 0, [_l1_objective(psi_mat, y, a, alpha)]

    guard = 1e-12 * (1.0 + float(np.linalg.norm(y)))
    sigma_sq = float(np.linalg.norm(psi_mat, 2)) ** 2
    obj = _l1_objective(psi_mat, y, a, alpha)
    history = [obj]
    stalled = 0
    iterations = 0

    for iterations in range(1, max_iter + 1):
        r = psi_mat @ a - y
        nr = max(float(np.linalg.norm(r)), guard)
        g = psi_mat.T @ r / nr
        t = nr / sigma_sq  # local curvature scale of ||eps||_2
        accepted = None
        for _ in range(60):
            cand = _soft_threshold(a - t * g, t * alpha)
            dh = cand - a
            h_cand = float(np.linalg.norm(psi_mat @ cand - y))
            # Majorization test on the smooth part guarantees descent of the
            # full objective after the prox step.
            if h_cand <= nr + float(g @ dh) + float(dh @ dh) / (2.0 * t) + 1e-15:
                accepted = cand
                break
            t *= 0.5
        if accepted is None:
            break
        new_obj = _l1_objective(psi_mat, y, accepted, alpha)
        if new_obj > obj:
            break
        a, prev_obj, obj = accepted, obj, new_obj
        history.append(obj)
        if l1_optimality_residual(psi_mat, y, alpha, a, guard) <= _L1_OPT_TOL * (
            1.0 + float(np.abs(a).max(initial=0.0))
        ):
            break
        # Stall guard at float resolution only; the certificate above is the
        # real stationarity test.
        if prev_obj - obj <= rel_tol * 1e-7 * max(1.0, obj):
            stalled += 1
            if stalled >= 10:
                break
        else:
            stalled = 0
    return a, iterations, history


def solve_coefficients(psi_mat, y, alpha):
    """Coefficient solve shared by scalar and vector-field fits.

    ``alpha = 0``: minimum-norm least squares via SVD (deterministic and
    bounded even when there are more nodes than distinct data points).
    ``alpha > 0``: the proximal solver of :func:`l1_fit`.

    Returns ``(coefficients, iterations)``.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    a, iterations, _ = l1_fit(psi_mat, y, alpha)
    return a, iterations


def check_converged(evals, points) -> None:
    """Raise FitError naming each row of ``points`` whose basis solve in ``evals`` failed."""
    failed = [i for i, ev in enumerate(evals) if not ev.converged]
    if failed:
        raise FitError(
            f"basis solve failed to converge at rows {failed} "
            f"(first at {np.asarray(points, dtype=float)[failed[0]].tolist()})",
            failed_indices=failed,
        )


def _fit_columns(nodes, data, beta, alpha, opts, hull_tol):
    """Coefficients and fit reports for every value column of ``data``.

    The basis matrix is evaluated once and shared by all columns, so a
    column's coefficients do not depend on which other columns are fitted.

    Returns
    -------
    coeff : (n_nodes, n_components) ndarray
    reports : tuple of FitReport, one per column
    """
    if data.d != nodes.d:
        raise DimensionError(f"data dimension {data.d} does not match nodes dimension {nodes.d}")
    psi_mat, evals = basis_matrix(nodes, data.points, beta, opts=opts, hull_tol=hull_tol)
    check_converged(evals, data.points)
    coeff = np.empty((nodes.n, data.n_components))
    reports = []
    for j in range(data.n_components):
        y = data.component(j)
        try:
            coeff[:, j], iterations = solve_coefficients(psi_mat, y, alpha)
        except np.linalg.LinAlgError as err:
            raise FitError(f"coefficient solve failed for component {j}: {err}", component=j) from err
        residual = y - psi_mat @ coeff[:, j]
        reports.append(
            FitReport(
                training_rms=float(np.sqrt(np.mean(residual**2))),
                objective=float(np.linalg.norm(residual) + alpha * np.abs(coeff[:, j]).sum()),
                solver_iterations=iterations,
            )
        )
    return coeff, tuple(reports)


def fit(
    nodes: NodeSet,
    data: Dataset,
    beta: float,
    alpha: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
    hull_tol: float = DEFAULT_HULL_TOL,
) -> Approximant:
    """Fit coefficients of a scalar approximant over ``data``.

    Basis weights are evaluated once per data point and cached for the
    coefficient solve. Every data point must lie inside the hull of
    ``nodes`` and every basis solve must converge.

    Raises
    ------
    OutsideHullError
        Data points are outside the hull (``indices`` identifies them).
    FitError
        The basis solver failed to converge at one or more points.
    """
    if data.n_components != 1:
        raise DimensionError(
            f"fit expects scalar observations, got {data.n_components} components"
        )
    coeff, reports = _fit_columns(nodes, data, beta, alpha, opts, hull_tol)
    return Approximant(
        nodes=nodes,
        beta=float(beta),
        alpha=float(alpha),
        coefficients=coeff[:, 0],
        fit_report=reports[0],
    )


def predict(model: Approximant, x, opts: SolverOptions = DEFAULT_OPTIONS) -> float:
    """Evaluate the approximant at a single point inside the hull (FitError if unconverged)."""
    ev = solve_basis(model.nodes, x, model.beta, opts=opts)
    check_converged([ev], [x])
    return float(model.coefficients @ ev.weights)


def predict_batch(model: Approximant, points, opts: SolverOptions = DEFAULT_OPTIONS) -> np.ndarray:
    """Evaluate the approximant at many points; FitError names the unconverged rows."""
    psi_mat, evals = basis_matrix(model.nodes, points, model.beta, opts=opts)
    check_converged(evals, points)
    return psi_mat @ model.coefficients
