import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxentfit import (
    DimensionError,
    DomainError,
    NodeSet,
    OutsideHullError,
    SolverOptions,
    basis_matrix,
    dual_objective,
    entropy,
    gaussian_prior,
    grid_nodes,
    hull_weights,
    relative_entropy,
    shift,
    solve_basis,
)

from .oracles import bisect_basis_1d, fd_gradient, fd_hessian, random_interior_instance


def nodes_1d(*xs):
    return NodeSet(np.asarray(xs, dtype=float)[:, None])


class TestEntropy:
    def test_degenerate_distribution(self):
        assert entropy([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_two(self):
        assert entropy([0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-15)

    def test_uniform_three(self):
        assert entropy([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(np.log(3), abs=1e-15)

    def test_negative_weight_rejected(self):
        with pytest.raises(DomainError):
            entropy([1.1, -0.1])

    def test_unnormalized_rejected(self):
        with pytest.raises(DomainError):
            entropy([0.5, 0.6])

    @given(st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_bounds(self, raw):
        p = np.asarray(raw)
        p = p / p.sum()
        h = entropy(p)
        assert -1e-12 <= h <= np.log(len(p)) + 1e-12


class TestRelativeEntropy:
    def test_uniform_prior_half_half(self):
        assert relative_entropy([0.5, 0.5], [1.0, 1.0]) == pytest.approx(-np.log(2), abs=1e-15)

    def test_point_mass_uniform_prior(self):
        assert relative_entropy([1.0, 0.0], [1.0, 1.0]) == 0.0

    def test_skewed_weights(self):
        # 0.75*log(0.75) + 0.25*log(0.25), frozen analytic value
        got = relative_entropy([0.75, 0.25], [1.0, 1.0])
        assert got == pytest.approx(-0.5623351446188083, abs=1e-15)

    def test_zero_prior_rejected(self):
        with pytest.raises(DomainError):
            relative_entropy([0.5, 0.5], [1.0, 0.0])


class TestDualObjective:
    def test_symmetric_pair(self):
        ns = nodes_1d(-1.0, 1.0)
        s = shift(ns, [0.0])
        prior = gaussian_prior(s, 0.0)
        value, grad, hess = dual_objective([0.0], s, prior)
        assert value == pytest.approx(np.log(2), abs=1e-15)
        assert grad[0] == pytest.approx(0.0, abs=1e-15)
        assert hess[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_asymmetric_gradient(self):
        ns = nodes_1d(0.0, 1.0)
        s = shift(ns, [0.25])
        prior = gaussian_prior(s, 0.0)
        _, grad, _ = dual_objective([0.0], s, prior)
        assert grad[0] == pytest.approx(-0.25, abs=1e-15)

    def test_log_sum_exp_guards_overflow(self):
        ns = nodes_1d(0.0, 1.0)
        s = shift(ns, [0.5])
        prior = gaussian_prior(s, 1e6)
        value, grad, _ = dual_objective([1e4], s, prior)
        assert np.isfinite(value) and np.all(np.isfinite(grad))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            nodes, _ = random_interior_instance(rng)
            d = nodes.shape[1]
            x = nodes.mean(axis=0)
            s = shift(NodeSet(nodes), x)
            beta = float(rng.choice([0.0, 1.0, 10.0]))
            prior = gaussian_prior(s, beta)
            lam = rng.normal(0.0, 1.0, d)
            _, grad, hess = dual_objective(lam, s, prior)
            g_fd = fd_gradient(lam, s.tilde, prior.log_values)
            h_fd = fd_hessian(lam, s.tilde, prior.log_values)
            assert np.abs(grad - g_fd).max() <= 1e-6 * (1.0 + np.abs(grad).max())
            assert np.abs(hess - h_fd).max() <= 1e-5 * (1.0 + np.abs(hess).max())

    def test_dimension_check(self):
        ns = nodes_1d(0.0, 1.0)
        s = shift(ns, [0.5])
        with pytest.raises(DimensionError):
            dual_objective([0.0, 0.0], s, gaussian_prior(s, 0.0))


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
        from maxentfit import entropy as H

        rng = np.random.default_rng(8)
        for _ in range(20):
            nodes, x = random_interior_instance(rng, d_max=3, n_max=15)
            ns = NodeSet(nodes)
            _, cert = hull_weights(ns, x)
            ev = solve_basis(ns, x, 0.0)
            cert = np.maximum(cert, 0.0)
            cert = cert / cert.sum()
            assert H(ev.weights) >= H(cert) - 1e-9

    def test_nonconvergence_reports_best_iterate(self):
        ev = solve_basis(nodes_1d(0.0, 1.0), [0.0], 0.0, opts=SolverOptions(max_iter=3))
        assert not ev.converged
        assert ev.iterations == 3
        assert np.isfinite(ev.residual)


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
        with pytest.raises(DomainError):
            SolverOptions(line_search_shrink=1.0)

    def test_prior_rejects_negative_beta(self):
        s = shift(nodes_1d(0.0, 1.0), [0.5])
        with pytest.raises(DomainError):
            gaussian_prior(s, -1.0)
