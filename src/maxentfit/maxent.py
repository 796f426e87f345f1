"""Global and local maximum-entropy basis functions.

Each query point ``x`` inside the hull of a node set gets a weight vector
``psi`` that is nonnegative, sums to one, and reproduces ``x`` from the
nodes. Among all such weight vectors, ``psi`` maximizes Shannon entropy
(global form) or minimizes relative entropy to a Gaussian prior whose decay
rate ``beta`` controls locality; ``beta = 0`` recovers the global form.

The weights are computed by minimizing the smooth convex dual in the
Lagrange multipliers of the reproduction constraints: a d-dimensional
problem regardless of the number of nodes, solved by a damped Newton
iteration with log-sum-exp shifting for overflow safety.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, OutsideHullError
from .geometry import (
    DEFAULT_HULL_TOL,
    HullLocation,
    NodeSet,
    ShiftedNodes,
    as_point,
    as_points,
    in_hull,
    shift,
)

# Multiplier magnitude beyond which a query is treated as effectively on the
# hull boundary with no finite solution; the solver stops and reports
# non-convergence instead of looping.
_LAMBDA_CAP = 1e8

_ARMIJO_C = 1e-4
_MAX_BACKTRACKS = 60
_LINE_SEARCH_SHRINK = 0.5

# Ridge on the dual Hessian, relative to its mean diagonal (at least 1).
_HESSIAN_RIDGE = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    """Newton solver controls for the dual problem.

    tol is the infinity-norm bound on the constraint residual
    ``sum_i psi_i * (x_i - x)`` at convergence.
    """

    tol: float = 1e-10
    max_iter: int = 100

    def __post_init__(self):
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise DomainError(f"max_iter must be at least 1, got {self.max_iter}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class Prior:
    """Gaussian per-node prior ``m_i = exp(-beta * ||x_i - x||^2)``.

    Stored in log form: for large ``beta`` the raw values underflow long
    before the log does, and the dual solver only ever needs the logs.
    """

    beta: float
    log_values: np.ndarray

    @property
    def n(self) -> int:
        return self.log_values.shape[0]


def gaussian_prior(shifted: ShiftedNodes, beta: float) -> Prior:
    """Gaussian prior of decay rate ``beta`` centered at the shift origin."""
    if beta < 0:
        raise DomainError(f"beta must be nonnegative, got {beta}")
    sq = np.sum(shifted.tilde**2, axis=0)
    return Prior(beta=float(beta), log_values=-float(beta) * sq)


@dataclass(frozen=True, eq=False)
class BasisEval:
    """Basis weights at one query point, with solver diagnostics.

    Attributes
    ----------
    weights : (n,) ndarray
        Nonnegative weights summing to one.
    lam : (d,) ndarray
        Lagrange multipliers of the reproduction constraints.
    residual : float
        Infinity norm of the constraint residual at ``lam``.
    iterations : int
    converged : bool
    """

    weights: np.ndarray
    lam: np.ndarray
    residual: float
    iterations: int
    converged: bool


def entropy(weights) -> float:
    """Shannon entropy ``-sum p_i log p_i`` with the convention ``0 log 0 = 0``."""
    p = np.asarray(weights, dtype=float)
    if p.ndim != 1:
        raise DimensionError(f"weights must be a vector, got shape {p.shape}")
    # Against the uniform prior m_i = 1 the relative entropy is sum p_i log p_i.
    return -relative_entropy(p, np.ones_like(p))


def relative_entropy(weights, prior) -> float:
    """Relative entropy ``sum psi_i log(psi_i / m_i)`` against a positive prior."""
    p = np.asarray(weights, dtype=float)
    m = np.asarray(prior, dtype=float)
    if p.shape != m.shape or p.ndim != 1:
        raise DimensionError(
            f"weights and prior must be vectors of equal length, got {p.shape} and {m.shape}"
        )
    if np.any(m <= 0):
        raise DomainError("prior entries must be strictly positive")
    if p.size and p.min() < -1e-14:
        raise DomainError(f"weights must be nonnegative, min is {p.min()}")
    if abs(p.sum() - 1.0) > 1e-12:
        raise DomainError(f"weights must sum to 1, got {p.sum()}")
    p = np.maximum(p, 0.0)
    mask = p > 0
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(m[mask]))))


def _dual_eval(lam: np.ndarray, shifted: ShiftedNodes, prior: Prior):
    """Dual value, gradient, Hessian, and weights at multipliers ``lam``."""
    tilde = shifted.tilde
    exponents = prior.log_values - lam @ tilde
    emax = exponents.max()
    z = np.exp(exponents - emax)
    zsum = z.sum()
    value = float(emax + np.log(zsum))
    psi = z / zsum
    mean = tilde @ psi
    grad = -mean
    hess = (tilde * psi) @ tilde.T - np.outer(mean, mean)
    return value, grad, hess, psi


def dual_objective(lam, shifted: ShiftedNodes, prior: Prior):
    """Dual function ``log Z`` with its gradient and Hessian.

    ``Z = sum_j m_j exp(-lam . xt_j)`` over the shifted nodes ``xt_j``; the
    gradient is ``-sum_i psi_i xt_i`` so a zero gradient is exactly the
    reproduction constraint, and the Hessian is the weight covariance of the
    shifted nodes (positive semidefinite: the dual is convex). Evaluation
    shifts exponents by their maximum, so large ``beta`` or ``lam`` cannot
    overflow.

    Returns
    -------
    (value, gradient, hessian)
    """
    lam = as_point(lam, shifted.d)
    if prior.n != shifted.n:
        raise DimensionError(
            f"prior has {prior.n} entries for {shifted.n} shifted nodes"
        )
    value, grad, hess, _ = _dual_eval(lam, shifted, prior)
    return value, grad, hess


def _newton(shifted: ShiftedNodes, prior: Prior, opts: SolverOptions) -> BasisEval:
    d = shifted.d
    lam = np.zeros(d)
    value, grad, hess, psi = _dual_eval(lam, shifted, prior)
    iterations = 0
    eye = np.eye(d)
    converged = bool(np.abs(grad).max() <= opts.tol)

    while not converged and iterations < opts.max_iter:
        ridge = _HESSIAN_RIDGE * max(1.0, np.trace(hess) / d)
        try:
            step = -np.linalg.solve(hess + ridge * eye, grad)
        except np.linalg.LinAlgError:
            step = -grad
        slope = float(grad @ step)
        if slope >= 0.0:
            # Numerically non-descent direction; fall back to steepest descent.
            step = -grad
            slope = -float(grad @ grad)

        # Near the optimum the Armijo decrease is below what doubles can
        # resolve; the slack lets the final quadratic-convergence step land.
        slack = 4.0 * np.finfo(float).eps * (1.0 + abs(value))
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = lam + t * step
            v_c, g_c, h_c, p_c = _dual_eval(cand, shifted, prior)
            if v_c <= value + _ARMIJO_C * t * slope + slack:
                lam, value, grad, hess, psi = cand, v_c, g_c, h_c, p_c
                accepted = True
                break
            t *= _LINE_SEARCH_SHRINK
        iterations += 1
        if not accepted:
            break
        if np.abs(lam).max() > _LAMBDA_CAP:
            break
        converged = bool(np.abs(grad).max() <= opts.tol)

    return BasisEval(
        weights=psi,
        lam=lam,
        residual=float(np.abs(grad).max()),
        iterations=iterations,
        converged=converged,
    )


def solve_basis(
    nodes: NodeSet,
    x,
    beta: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
    hull_tol: float = DEFAULT_HULL_TOL,
) -> BasisEval:
    """Basis weights of ``x`` against ``nodes`` at locality ``beta``.

    Solves the convex dual by damped Newton iteration from ``lam = 0``:
    steps are ``-(H + ridge I)^{-1} g`` with backtracking line search on the
    dual value. Queries outside the hull raise OutsideHullError before the
    solver runs; boundary queries are solved as-is (multipliers may grow
    large, so the iteration stops once they exceed 1e8 and reports
    ``converged = False``).

    Returns
    -------
    BasisEval
        Best iterate; check ``converged`` when the caller needs the
        constraint residual below ``opts.tol``.
    """
    x = as_point(x, nodes.d)
    location = in_hull(nodes, x, hull_tol)
    if location is HullLocation.OUTSIDE:
        raise OutsideHullError(
            f"query point {x.tolist()} lies outside the convex hull of the nodes",
            point=x,
        )
    shifted = shift(nodes, x)
    prior = gaussian_prior(shifted, beta)
    return _newton(shifted, prior, opts)


def basis_matrix(
    nodes: NodeSet,
    queries,
    beta: float,
    opts: SolverOptions = DEFAULT_OPTIONS,
    hull_tol: float = DEFAULT_HULL_TOL,
):
    """Stack basis weights for a batch of query points.

    Row ``i`` of the returned matrix is ``solve_basis`` at ``queries[i]``;
    rows are independent, so results do not depend on evaluation order.

    Returns
    -------
    matrix : (n_q, n) ndarray
    evals : list of BasisEval
        Per-row solver diagnostics.

    Raises
    ------
    OutsideHullError
        If any query is outside the hull, once every row has been checked:
        ``indices`` names all outside rows, ``index`` the first.
    """
    pts = np.asarray(queries, dtype=float)
    if pts.size == 0:
        return np.zeros((0, nodes.n)), []
    pts = as_points(pts, nodes.d, "queries")
    rows = np.empty((pts.shape[0], nodes.n))
    evals: list[BasisEval] = []
    outside: list[int] = []
    for i, q in enumerate(pts):
        try:
            ev = solve_basis(nodes, q, beta, opts=opts, hull_tol=hull_tol)
        except OutsideHullError:
            outside.append(i)
            continue
        rows[i] = ev.weights
        evals.append(ev)
    if outside:
        first = outside[0]
        raise OutsideHullError(
            f"queries {outside} lie outside the convex hull of the nodes "
            f"(query {first} at {pts[first].tolist()})",
            point=pts[first],
            index=first,
            indices=outside,
        )
    return rows, evals
