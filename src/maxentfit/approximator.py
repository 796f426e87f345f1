"""Scattered-data approximants on maximum-entropy bases.

An approximant is ``fhat(x) = a . psi(x)`` where ``psi`` are the basis
weights of ``x`` against a node set and the coefficient vector ``a``
minimizes ``||eps||_2 + alpha ||a||_1`` over the training data, ``eps``
being the vector of training residuals: least squares at ``alpha = 0``, and
at ``alpha > 0`` an exact, certified square-root lasso whose l1 penalty
damps coefficient growth and can zero out unneeded nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, FitError
from .geometry import DEFAULT_HULL_TOL, NodeSet
from .maxent import DEFAULT_OPTIONS, SolverOptions, basis_matrix, solve_basis

_L1_MAX_ITER = 2000  # support steps; the most seen is 285 (Lorenz basis, alpha 1e-4)
_L1_OPT_TOL = 1e-8
_ZERO_TOL = 1e-12  # relative size at which a training residual or a QR pivot is zero


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


def _certificate(psi_mat, y, alpha, a):
    """Optimality residual at ``a`` and the dual gradient ``g`` behind it."""
    active = a != 0
    r = psi_mat @ a - y
    nr = float(np.linalg.norm(r))
    if nr > _ZERO_TOL * (1.0 + float(np.linalg.norm(y))):
        u = r / nr
    else:
        u = np.linalg.lstsq(psi_mat[:, active].T, -alpha * np.sign(a[active]), rcond=None)[0]
    g = psi_mat.T @ u
    res = np.where(active, np.abs(g + alpha * np.sign(a)), np.maximum(np.abs(g) - alpha, 0.0))
    return float(max(res.max(initial=0.0), np.linalg.norm(u) - 1.0)), g


def l1_optimality_residual(psi_mat, y, alpha, a) -> float:
    """Max subgradient-optimality violation of ``||eps||_2 + alpha ||a||_1`` at ``a``.

    Zero means ``g = psi_mat^T u`` is ``-alpha sign(a_i)`` on the support and
    within ``[-alpha, alpha]`` off it, for ``u = eps / ||eps||`` or, at an
    interpolant (``||eps|| <= 1e-12 (1 + ||y||)``), the least-norm ``u`` doing so.
    """
    return _certificate(psi_mat, y, alpha, a)[0]


def _support_step(psi_s, y, alpha, b, signs):
    """Direction from ``b`` toward the minimizer of ``||psi_s b - y|| + alpha signs . b``.

    From a QR of ``psi_s``, the minimizer ``b_ls - alpha ||r|| G^-1 signs`` with
    ``||r|| = ||r_ls|| / sqrt(1 - alpha^2 signs^T G^-1 signs)`` lies at step 1.
    Without a real root, or with dependent columns, it returns a descent ray (length inf).
    """
    q, r = np.linalg.qr(psi_s)
    pivots = np.pad(np.abs(np.diag(r)), (0, len(b) - len(r)))
    dependent = np.flatnonzero(pivots <= _ZERO_TOL * np.linalg.norm(psi_s, axis=0))
    if dependent.size:
        # psi_s z = 0: the fit is flat along z and the penalty linear.
        i = dependent[0]
        z = np.zeros(len(b))
        z[: i + 1] = np.append(-np.linalg.solve(r[:i, :i], r[:i, i]), 1.0)
        return -np.sign(signs @ z) * z, np.inf
    qty = q.T @ y
    w = np.linalg.solve(r.T, signs)
    shrink = 1.0 - alpha**2 * float(w @ w)
    if shrink <= 0.0:
        return -np.linalg.solve(r, w), np.inf
    nr = float(np.linalg.norm(y - q @ qty)) / np.sqrt(shrink)
    return np.linalg.solve(r, qty - alpha * nr * w) - b, 1.0


def solve_coefficients(psi_mat, y, alpha):
    """Coefficients minimizing ``||psi_mat a - y|| + alpha ||a||_1``, for one column ``y``.

    ``alpha = 0``: minimum-norm least squares via SVD (deterministic and
    bounded even when there are more nodes than distinct data points).
    ``alpha > 0``: the square-root lasso, by an exact active-set walk from
    ``a = 0``. At each support's optimum, return ``a`` if
    :func:`l1_optimality_residual` is ``<= 1e-8 (1 + max|a|)``, else add the
    zero coefficient most past ``|g_j| <= alpha``, signed ``-sign(g_j)``, and
    step toward the new optimum, dropping coefficients that reach zero.
    Raises :class:`FitError` if it cannot certify.

    Returns ``(coefficients, iterations)``; ``iterations`` counts support steps.
    """
    if alpha < 0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if alpha == 0:
        return np.linalg.lstsq(psi_mat, y, rcond=None)[0], 0
    a = np.zeros(psi_mat.shape[1])
    support, signs = np.zeros(0, dtype=int), np.zeros(0)
    at_optimum = True
    for iterations in range(_L1_MAX_ITER + 1):
        if at_optimum:
            residual, g = _certificate(psi_mat, y, alpha, a)
            tol = _L1_OPT_TOL * (1.0 + float(np.abs(a).max(initial=0.0)))
            if residual <= tol:
                return a, iterations
            violation = np.where(a == 0, np.abs(g) - alpha, -np.inf)
            j = int(np.argmax(violation))
            # Only the support's own equations miss: rounding no step can fix.
            if violation[j] <= tol:
                break
            support = np.append(support, j)
            signs = np.append(signs, -np.sign(g[j]))
        if iterations == _L1_MAX_ITER:
            break
        b = a[support]
        e, t = _support_step(psi_mat[:, support], y, alpha, b, signs)
        crossings = np.divide(-b, e, out=np.full(len(b), np.inf), where=signs * e < 0)
        t_cross = crossings.min(initial=np.inf)
        at_optimum = t <= t_cross
        t = min(t, t_cross)
        # A new coefficient starting with the wrong sign (t = 0) or a ray
        # that never crosses zero happens only in rounding.
        if not 0.0 < t < np.inf:
            break
        b = b + t * e
        keep = (signs * b > 0) & (crossings > t)
        a[support] = np.where(keep, b, 0.0)
        support, signs = support[keep], signs[keep]
    raise FitError(f"l1 solve not certified after {iterations} steps (residual {residual:.3g})")


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
        except (np.linalg.LinAlgError, FitError) as err:
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
