import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentfit import (
    DomainError,
    NodeSet,
    OutsideHullError,
    SolverOptions,
    basis_matrix,
    grid_nodes,
    hull_weights,
    solve_basis,
)
from maxentfit.maxent import _dual_eval

from .oracles import (
    bisect_basis_1d,
    delaunay_weights,
    dual_inputs,
    entropy,
    fd_gradient,
    fd_hessian,
    random_interior_instance,
)


def nodes_1d(*xs):
    return NodeSet(np.asarray(xs, dtype=float)[:, None])


class TestEntropy:
    """The test oracle ``entropy``, which the maximality property relies on."""

    def test_degenerate_distribution(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_two(self):
        assert entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-15)

    def test_uniform_three(self):
        assert entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(np.log(3), abs=1e-15)

    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, raw):
        p = np.asarray(raw)
        p = p / p.sum()
        h = entropy(p)
        assert -1e-12 <= h <= np.log(len(p)) + 1e-12


class TestDualObjective:
    def test_symmetric_pair(self):
        tilde, log_prior = dual_inputs([[-1.0], [1.0]], [0.0], 0.0)
        value, grad, hess, _ = _dual_eval(np.zeros(1), tilde, log_prior)
        assert value == pytest.approx(np.log(2), abs=1e-15)
        assert grad[0] == pytest.approx(0.0, abs=1e-15)
        assert hess[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_asymmetric_gradient(self):
        tilde, log_prior = dual_inputs([[0.0], [1.0]], [0.25], 0.0)
        _, grad, _, _ = _dual_eval(np.zeros(1), tilde, log_prior)
        assert grad[0] == pytest.approx(-0.25, abs=1e-15)

    def test_log_sum_exp_guards_overflow(self):
        tilde, log_prior = dual_inputs([[0.0], [1.0]], [0.5], 1e6)
        value, grad, _, _ = _dual_eval(np.array([1e4]), tilde, log_prior)
        assert np.isfinite(value) and np.all(np.isfinite(grad))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            nodes, _ = random_interior_instance(rng)
            d = nodes.shape[1]
            x = nodes.mean(axis=0)
            beta = float(rng.choice([0.0, 1.0, 10.0]))
            tilde, log_prior = dual_inputs(nodes, x, beta)
            lam = rng.normal(0.0, 1.0, d)
            _, grad, hess, _ = _dual_eval(lam, tilde, log_prior)
            g_fd = fd_gradient(lam, tilde, log_prior)
            h_fd = fd_hessian(lam, tilde, log_prior)
            assert np.abs(grad - g_fd).max() <= 1e-6 * (1.0 + np.abs(grad).max())
            assert np.abs(hess - h_fd).max() <= 1e-5 * (1.0 + np.abs(hess).max())


class TestSolveBasis:
    def test_two_nodes_any_beta(self):
        ns = nodes_1d(0.0, 1.0)
        for beta in (0.0, 1.0, 10.0, 100.0):
            ev = solve_basis(ns, [0.25], beta)
            assert ev.converged
            np.testing.assert_allclose(ev.weights, [0.75, 0.25], atol=1e-9)

    def test_three_nodes_symmetric(self):
        ev = solve_basis(nodes_1d(0.0, 0.5, 1.0), [0.5], 0.0)
        np.testing.assert_allclose(ev.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)
        np.testing.assert_allclose(ev.lam, [0.0], atol=1e-10)

    def test_three_nodes_against_frozen_oracle(self):
        # frozen from the scalar-lambda bisection oracle
        expected = [0.5539722776343136, 0.2920554344845606, 0.1539722878811258]
        ev = solve_basis(nodes_1d(0.0, 0.5, 1.0), [0.3], 0.0)
        assert ev.converged
        np.testing.assert_allclose(ev.weights, expected, atol=1e-10)

    def test_simplex_barycentric(self):
        tri = NodeSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        for beta in (0.0, 3.0, 100.0):
            ev = solve_basis(tri, [0.25, 0.25], beta)
            assert ev.converged
            np.testing.assert_allclose(ev.weights, [0.5, 0.25, 0.25], atol=1e-9)

    def test_outside_hull_raises_before_solving(self):
        with pytest.raises(OutsideHullError):
            solve_basis(nodes_1d(0.0, 1.0), [1.5], 0.0)

    def test_boundary_vertex_weight(self):
        ev = solve_basis(nodes_1d(0.0, 1.0), [0.0], 0.0)
        assert ev.converged
        np.testing.assert_allclose(ev.weights, [1.0, 0.0], atol=1e-9)

    def test_newton_matches_bisection_oracle(self):
        rng = np.random.default_rng(2024)
        # Tighter residual tolerance than the default so weight-space
        # agreement with the oracle is pinned at 1e-10.
        opts = SolverOptions(tol=1e-12)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            xs = np.sort(rng.uniform(0.0, 1.0, n))
            xs[0], xs[-1] = 0.0, 1.0  # pin the hull
            x = float(rng.uniform(0.05, 0.95))
            beta = float(rng.choice([0.0, 1.0, 10.0, 100.0]))
            expected, _ = bisect_basis_1d(xs, x, beta)
            ev = solve_basis(NodeSet(xs[:, None]), [x], beta, opts=opts)
            assert ev.converged
            assert np.abs(ev.weights - expected).max() <= 1e-10

    def test_partition_and_reproduction_randomized(self):
        rng = np.random.default_rng(99)
        opts = SolverOptions()
        for i in range(200):
            nodes, x = random_interior_instance(rng)
            beta = [0.0, 1.0, 10.0, 100.0][i % 4]
            ns = NodeSet(nodes)
            ev = solve_basis(ns, x, beta, opts=opts)
            assert ev.converged
            assert np.all(ev.weights >= 0.0)
            assert abs(ev.weights.sum() - 1.0) <= 1e-12
            assert np.abs(ns.nodes.T @ ev.weights - x).max() <= 10 * opts.tol

    def test_locality_increases_with_beta(self):
        ns = grid_nodes([(0.0, 1.0)], [11])
        center = 5  # node at 0.5, symmetric surroundings
        previous = -1.0
        for beta in (0.0, 1.0, 10.0, 100.0):
            ev = solve_basis(ns, [0.5], beta)
            assert ev.converged
            w_center = ev.weights[center]
            assert w_center >= previous - 1e-12
            previous = w_center

    def test_entropy_is_maximal_among_feasible_weights(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            nodes, x = random_interior_instance(rng, d_max=3, n_max=15)
            ns = NodeSet(nodes)
            _, cert = hull_weights(ns, x)
            ev = solve_basis(ns, x, 0.0)
            cert = np.maximum(cert, 0.0)
            cert = cert / cert.sum()
            assert entropy(ev.weights) >= entropy(cert) - 1e-9

    def test_nonconvergence_reports_best_iterate(self):
        ev = solve_basis(nodes_1d(0.0, 1.0), [0.0], 0.0, opts=SolverOptions(max_iter=3))
        assert not ev.converged
        assert ev.iterations == 3
        assert np.isfinite(ev.residual)


@functools.lru_cache(maxsize=None)
def large_beta_draw(d):
    """Nodes (box corners plus uniform points) and 100 interior queries in ``d`` = 2 or 3.

    One generator draws d = 2 first, then d = 3, so each draw is fixed.
    """
    rng = np.random.default_rng(0)
    for dim, extra in ((2, 30), (3, 40)):
        corners = np.array(list(itertools.product([0.0, 1.0], repeat=dim)))
        nodes = np.vstack([corners, rng.uniform(0.05, 0.95, (extra, dim))])
        queries = rng.uniform(0.1, 0.9, (100, dim))
        if dim == d:
            return nodes, queries


def large_beta_errors(d, gamma):
    """Max |psi - Delaunay weights| and the non-converged query indices at beta = gamma n^(2/d)."""
    nodes, queries = large_beta_draw(d)
    ns = NodeSet(nodes)
    beta = gamma * ns.n ** (2 / d)
    evals = [solve_basis(ns, x, beta) for x in queries]
    err = np.abs(np.array([ev.weights for ev in evals]) - delaunay_weights(nodes, queries)).max()
    return err, [i for i, ev in enumerate(evals) if not ev.converged]


class TestLargeBetaLimit:
    """Local max-ent weights approach the Delaunay barycentric weights as beta grows."""

    @pytest.mark.parametrize("d, gamma, gate", [(2, 1e3, 1e-5), (3, 1e3, 1e-5), (3, 1e4, 1e-8)])
    def test_matches_delaunay(self, d, gamma, gate):
        err, failed = large_beta_errors(d, gamma)
        assert failed == []
        assert err <= gate

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND in CHANGES.md: at beta = 3.4e5, d = 2, query 80 stops at the "
        "100-iteration cap with residual 0.074; it converges only after 322 iterations",
    )
    def test_converges_at_gamma_1e4_in_2d(self):
        _, failed = large_beta_errors(2, 1e4)
        assert failed == []


class TestBasisMatrix:
    def test_vertex_rows_identity_like(self):
        ns = nodes_1d(0.0, 1.0)
        mat, evals = basis_matrix(ns, ns.nodes, 0.0)
        np.testing.assert_allclose(mat, np.eye(2), atol=1e-9)
        assert all(ev.converged for ev in evals)

    def test_empty_batch(self):
        ns = nodes_1d(0.0, 1.0)
        mat, evals = basis_matrix(ns, [], 0.0)
        assert mat.shape == (0, 2)
        assert evals == []

    def test_random_batch_constraints(self):
        ns = grid_nodes([(0.0, 1.0)], [10])
        rng = np.random.default_rng(17)
        queries = rng.uniform(0.0, 1.0, (20, 1))
        mat, evals = basis_matrix(ns, queries, 100.0)
        assert all(ev.converged for ev in evals)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)
        reproduced = mat @ ns.nodes
        np.testing.assert_allclose(reproduced, queries, atol=1e-8)

    def test_outside_query_names_index(self):
        ns = nodes_1d(0.0, 1.0)
        with pytest.raises(OutsideHullError) as exc:
            basis_matrix(ns, np.array([[0.5], [2.0]]), 0.0)
        assert exc.value.index == 1
        assert exc.value.indices == (1,)

    def test_order_independent(self):
        ns = grid_nodes([(0.0, 1.0)], [6])
        queries = np.array([[0.21], [0.7], [0.11]])
        mat, _ = basis_matrix(ns, queries, 10.0)
        perm = [2, 0, 1]
        mat_perm, _ = basis_matrix(ns, queries[perm], 10.0)
        np.testing.assert_array_equal(mat[perm], mat_perm)


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(DomainError):
            SolverOptions(tol=0.0)
        with pytest.raises(DomainError):
            SolverOptions(max_iter=0)

    def test_prior_rejects_negative_beta(self):
        with pytest.raises(DomainError):
            solve_basis(nodes_1d(0.0, 1.0), [0.5], beta=-1.0)
