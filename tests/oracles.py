"""Independent oracles used to cross-check the production solvers.

Everything here deliberately avoids the code paths under test: the 1-D
basis weights come from bisection on the scalar dual gradient, the dual
derivatives from central finite differences of the dual value, the
large-beta limit from Qhull's Delaunay triangulation, and l1 coefficients
from a bound-constrained quasi-Newton solve over split variables.
"""

from __future__ import annotations

import numpy as np


def entropy(weights) -> float:
    """Shannon entropy ``-sum p_i log p_i`` with the convention ``0 log 0 = 0``."""
    p = np.asarray(weights, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def dual_inputs(nodes, x, beta):
    """Shifted nodes ``tilde`` (column i is ``nodes[i] - x``) and the log Gaussian prior."""
    tilde = (np.asarray(nodes, dtype=float) - np.asarray(x, dtype=float)).T
    return tilde, -beta * np.sum(tilde**2, axis=0)


def dual_value(lam, tilde, log_prior):
    """log-sum-exp dual value; shared kernel for the finite-difference oracle."""
    e = log_prior - lam @ tilde
    emax = e.max()
    return float(emax + np.log(np.exp(e - emax).sum()))


def fd_gradient(lam, tilde, log_prior, h=1e-5):
    """Central finite differences of the dual value."""
    lam = np.asarray(lam, dtype=float)
    g = np.zeros_like(lam)
    for i in range(lam.size):
        e = np.zeros_like(lam)
        e[i] = h
        g[i] = (dual_value(lam + e, tilde, log_prior) - dual_value(lam - e, tilde, log_prior)) / (
            2 * h
        )
    return g


def fd_hessian(lam, tilde, log_prior, h=1e-5):
    """Central finite differences of the analytic dual gradient."""
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    hess = np.zeros((d, d))

    def grad(l):
        e = log_prior - l @ tilde
        e = e - e.max()
        z = np.exp(e)
        psi = z / z.sum()
        return -(tilde @ psi)

    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        hess[:, i] = (grad(lam + e) - grad(lam - e)) / (2 * h)
    return 0.5 * (hess + hess.T)


def bisect_basis_1d(nodes_1d, x, beta, width_tol=1e-14, max_doublings=80):
    """1-D basis weights by bisection on the scalar dual gradient.

    The gradient g(lam) = -sum_i psi_i(lam) (x_i - x) is monotone
    non-decreasing in lam, so a sign-changing bracket pins the root.
    Requires x strictly between min(nodes) and max(nodes).
    """
    nodes_1d = np.asarray(nodes_1d, dtype=float).ravel()
    xt = nodes_1d - float(x)
    log_m = -beta * xt**2

    def weights(lam):
        e = log_m - lam * xt
        e = e - e.max()
        z = np.exp(e)
        return z / z.sum()

    def grad(lam):
        return -float(weights(lam) @ xt)

    lo, hi = -1.0, 1.0
    for _ in range(max_doublings):
        if grad(lo) < 0.0:
            break
        lo *= 2.0
    for _ in range(max_doublings):
        if grad(hi) > 0.0:
            break
        hi *= 2.0
    assert grad(lo) < 0.0 < grad(hi), "bisection bracket failed"
    while hi - lo > width_tol * max(1.0, abs(lo), abs(hi)):
        mid = 0.5 * (lo + hi)
        if grad(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return weights(lam), lam


def random_interior_instance(rng, d_max=4, n_max=30, margin=0.05):
    """Random node set with a safely interior query point.

    The query is a Dirichlet-weighted convex combination pulled toward the
    centroid by ``margin`` so it cannot sit on the hull boundary.
    """
    d = int(rng.integers(1, d_max + 1))
    n = int(rng.integers(d + 1, n_max + 1))
    nodes = rng.uniform(-1.0, 1.0, (n, d))
    w = rng.dirichlet(np.ones(n))
    x = (1.0 - margin) * (w @ nodes) + margin * nodes.mean(axis=0)
    return nodes, x


def maxent_primal_weights(nodes, x):
    """Global maximum-entropy weights from the primal problem, by SLSQP.

    Maximizes ``-sum p_i log p_i`` subject to ``sum p = 1``,
    ``nodes^T p = x`` and ``p >= 0`` directly over the ``n`` weights, so it
    shares nothing with the production solver's d-dimensional dual.
    """
    from scipy.optimize import minimize

    nodes = np.asarray(nodes, dtype=float)
    x = np.asarray(x, dtype=float)
    n = nodes.shape[0]

    def neg_entropy(p):
        q = np.maximum(p, 1e-300)
        return float(np.sum(q * np.log(q)))

    def neg_entropy_grad(p):
        return np.log(np.maximum(p, 1e-300)) + 1.0

    constraints = [
        {"type": "eq", "fun": lambda p: np.sum(p) - 1.0, "jac": lambda p: np.ones((1, n))},
        {"type": "eq", "fun": lambda p: nodes.T @ p - x, "jac": lambda p: nodes.T},
    ]
    res = minimize(
        neg_entropy,
        np.full(n, 1.0 / n),
        jac=neg_entropy_grad,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * n,
        constraints=constraints,
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert res.success, f"primal oracle failed: {res.message}"
    return res.x


def delaunay_weights(nodes, x):
    """Barycentric weights of each row of ``x`` in its Delaunay simplex, as ``(m, n)`` rows.

    As beta grows, local max-ent weights tend to these (Arroyo & Ortiz 2006),
    provided the Delaunay triangulation of the nodes is unique.
    """
    from scipy.spatial import Delaunay

    nodes = np.asarray(nodes, dtype=float)
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = nodes.shape[1]
    tri = Delaunay(nodes)
    simplex = tri.find_simplex(x)
    assert np.all(simplex >= 0), "query outside the triangulation"
    transform = tri.transform[simplex]
    bary = np.einsum("mij,mj->mi", transform[:, :d], x - transform[:, d])
    weights = np.zeros((x.shape[0], nodes.shape[0]))
    np.put_along_axis(
        weights, tri.simplices[simplex], np.column_stack([bary, 1.0 - bary.sum(axis=1)]), axis=1
    )
    return weights


def sqrt_lasso_reference(psi_mat, y, alpha, maxiter=20000):
    """Coefficients minimizing ``||psi_mat a - y|| + alpha ||a||_1``, by L-BFGS-B.

    Splits ``a = u - v`` with ``u, v >= 0`` so the penalty is the smooth
    ``alpha * sum(u + v)``, and minimizes over the ``2 p`` bounded
    variables from zero. Any point's objective bounds the optimum from
    above, so a solver that claims the optimum may not end above this one.
    """
    from scipy.optimize import minimize

    psi_mat = np.asarray(psi_mat, dtype=float)
    y = np.asarray(y, dtype=float)
    p = psi_mat.shape[1]

    def objective(uv):
        r = psi_mat @ (uv[:p] - uv[p:]) - y
        nr = float(np.linalg.norm(r))
        grad = psi_mat.T @ r / nr if nr > 0 else np.zeros(p)
        return nr + alpha * uv.sum(), np.concatenate([grad, -grad]) + alpha

    res = minimize(
        objective,
        np.zeros(2 * p),
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * p),
        options={"maxiter": maxiter, "maxfun": 2 * maxiter, "ftol": 1e-15, "gtol": 1e-12},
    )
    return res.x[:p] - res.x[p:]
