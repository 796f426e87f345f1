import numpy as np
import pytest

from maxentfit import (
    Approximant,
    Dataset,
    DimensionError,
    DomainError,
    FitError,
    FitReport,
    NodeSet,
    OutsideHullError,
    SolverOptions,
    fit,
    grid_nodes,
    predict,
    predict_batch,
)
from maxentfit.approximator import l1_fit, l1_optimality_residual, solve_coefficients
from maxentfit.maxent import basis_matrix


def rms(model, data):
    """Root-mean-square prediction error of ``model`` over a scalar ``data``."""
    return float(np.sqrt(np.mean((data.component(0) - predict_batch(model, data.points)) ** 2)))


def make_model(nodes, coefficients, beta=0.0, alpha=0.0):
    return Approximant(
        nodes=nodes,
        beta=beta,
        alpha=alpha,
        coefficients=np.asarray(coefficients, dtype=float),
        fit_report=FitReport(0.0, 0.0, 0),
    )


class TestDataset:
    def test_rejects_mismatched_rows(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((3, 1)), np.zeros(2))

    def test_rejects_nonfinite_values(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((2, 1)), np.array([1.0, np.inf]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionError):
            Dataset(np.zeros((0, 1)), np.zeros(0))

    def test_components(self):
        ds = Dataset(np.zeros((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert ds.n_components == 2
        np.testing.assert_array_equal(ds.component(1), [2.0, 4.0])


class TestFit:
    def test_constant_data_exact(self):
        nodes = grid_nodes([(0.0, 1.0)], [6])
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (15, 1))
        data = Dataset(pts, np.full(15, 3.25))
        model = fit(nodes, data, beta=20.0, alpha=0.0)
        assert model.fit_report.training_rms <= 1e-12

    def test_linear_data_recovers_node_values(self):
        nodes = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [4, 4])
        rng = np.random.default_rng(2)
        pts = rng.uniform(0.05, 0.95, (40, 2))
        w, b = np.array([2.0, -1.5]), 0.75
        data = Dataset(pts, pts @ w + b)
        model = fit(nodes, data, beta=5.0, alpha=0.0)
        assert model.fit_report.training_rms <= 1e-8
        np.testing.assert_allclose(model.coefficients, nodes.nodes @ w + b, atol=1e-6)

    def test_affine_exactness_on_test_points(self):
        nodes = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [5, 5])
        train_pts = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [9, 9]).nodes
        w, b = np.array([0.3, -2.0]), -0.2
        model = fit(nodes, Dataset(train_pts, train_pts @ w + b), beta=1.0, alpha=0.0)
        rng = np.random.default_rng(3)
        test_pts = rng.uniform(-0.99, 0.99, (50, 2))
        test = Dataset(test_pts, test_pts @ w + b)
        assert rms(model, test) <= 1e-8

    def test_outside_point_reports_index(self):
        nodes = grid_nodes([(0.0, 1.0)], [5])
        data = Dataset(np.array([[0.5], [1.5], [0.2], [-0.5]]), np.zeros(4))
        with pytest.raises(OutsideHullError) as exc:
            fit(nodes, data, beta=0.0, alpha=0.0)
        assert exc.value.index == 1
        assert exc.value.indices == (1, 3)

    def test_nonconverged_basis_raises_fit_error(self):
        nodes = grid_nodes([(0.0, 1.0)], [5])
        data = Dataset(np.array([[0.3]]), np.array([1.0]))
        with pytest.raises(FitError):
            fit(nodes, data, beta=0.0, alpha=0.0, opts=SolverOptions(max_iter=1))

    def test_negative_alpha_rejected(self):
        nodes = grid_nodes([(0.0, 1.0)], [5])
        data = Dataset(np.array([[0.3]]), np.array([1.0]))
        with pytest.raises(DomainError):
            fit(nodes, data, beta=0.0, alpha=-1.0)

    def test_vector_values_rejected(self):
        nodes = grid_nodes([(0.0, 1.0)], [5])
        data = Dataset(np.array([[0.3]]), np.array([[1.0, 2.0]]))
        with pytest.raises(DimensionError):
            fit(nodes, data, beta=0.0, alpha=0.0)


class TestPredict:
    def test_vertex_returns_node_coefficient(self):
        nodes = NodeSet(np.array([[0.0], [1.0]]))
        model = make_model(nodes, [2.5, -1.0])
        assert predict(model, [0.0]) == pytest.approx(2.5, abs=1e-9)

    def test_constant_model_everywhere(self):
        nodes = grid_nodes([(0.0, 1.0)], [7])
        model = make_model(nodes, np.full(7, 4.0), beta=30.0)
        for x in (0.0, 0.21, 0.5, 0.93, 1.0):
            assert predict(model, [x]) == pytest.approx(4.0, abs=1e-10)

    def test_outside_hull(self):
        model = make_model(NodeSet(np.array([[0.0], [1.0]])), [1.0, 1.0])
        with pytest.raises(OutsideHullError):
            predict(model, [2.0])

    def test_linear_in_coefficients(self):
        nodes = grid_nodes([(0.0, 1.0)], [6])
        rng = np.random.default_rng(4)
        a1, a2 = rng.normal(size=6), rng.normal(size=6)
        pts = rng.uniform(0, 1, (9, 1))
        p1 = predict_batch(make_model(nodes, a1, beta=10.0), pts)
        p2 = predict_batch(make_model(nodes, a2, beta=10.0), pts)
        p12 = predict_batch(make_model(nodes, a1 + a2, beta=10.0), pts)
        np.testing.assert_allclose(p12, p1 + p2, atol=1e-12)

    # 5e-10 past the edge of a box grid is within the hull tolerance, but
    # the basis solve there runs out of iterations at beta = 10.
    GRAZING = [1 + 5e-10, 0.5]

    def test_nonconverged_point_raises_fit_error(self):
        model = make_model(grid_nodes([(0.0, 1.0)] * 2, [4, 4]), np.ones(16), beta=10.0)
        with pytest.raises(FitError, match=r"1\.0000000005"):
            predict(model, self.GRAZING)

    def test_nonconverged_batch_row_raises_fit_error(self):
        model = make_model(grid_nodes([(0.0, 1.0)] * 2, [4, 4]), np.ones(16), beta=10.0)
        with pytest.raises(FitError) as exc:
            predict_batch(model, [[0.5, 0.5], self.GRAZING, [0.25, 0.75]])
        assert exc.value.failed_indices == (1,)


class TestL1Solver:
    @staticmethod
    def random_instance(rng, n=30, p=8):
        psi = rng.uniform(0, 1, (n, p))
        psi = psi / psi.sum(axis=1, keepdims=True)  # rows behave like basis weights
        y = rng.normal(size=n)
        return psi, y

    def test_objective_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            psi, y = self.random_instance(rng)
            _, _, history = l1_fit(psi, y, alpha=0.01)
            diffs = np.diff(history)
            assert np.all(diffs <= 1e-12)

    def test_optimality_certificate(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            psi, y = self.random_instance(rng)
            a, _, _ = l1_fit(psi, y, alpha=0.05)
            res = l1_optimality_residual(psi, y, 0.05, a)
            assert res <= 1e-6 * (1.0 + np.abs(a).max(initial=0.0))

    def test_matches_dense_grid_search_two_coefficients(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            psi, y = self.random_instance(rng, n=20, p=2)
            alpha = 0.1
            a, _, _ = l1_fit(psi, y, alpha)
            grid = np.linspace(-3.0, 3.0, 601)
            aa, bb = np.meshgrid(grid, grid, indexing="ij")
            cand = np.stack([aa.ravel(), bb.ravel()], axis=1)
            resid = cand @ psi.T - y
            objs = np.linalg.norm(resid, axis=1) + alpha * np.abs(cand).sum(axis=1)
            best = objs.min()
            mine = float(np.linalg.norm(psi @ a - y) + alpha * np.abs(a).sum())
            # grid spacing 0.01 bounds how close the dense search can get
            assert mine <= best + 1e-3

    def test_alpha_zero_matches_direct_least_squares(self):
        rng = np.random.default_rng(10)
        psi, y = self.random_instance(rng)
        a_iter, _, _ = l1_fit(psi, y, alpha=0.0)
        a_direct = np.linalg.lstsq(psi, y, rcond=None)[0]
        np.testing.assert_allclose(a_iter, a_direct, rtol=1e-8)

    def test_large_alpha_zeroes_out(self):
        rng = np.random.default_rng(11)
        psi, y = self.random_instance(rng)
        a, _, _ = l1_fit(psi, y, alpha=1e3)
        np.testing.assert_allclose(a, 0.0, atol=1e-9)

    def test_solve_coefficients_min_norm_on_rank_deficient(self):
        rng = np.random.default_rng(12)
        psi = np.tile(rng.uniform(0, 1, (5, 1)), (1, 4))  # rank one
        y = rng.normal(size=5)
        a, _ = solve_coefficients(psi, y, alpha=0.0)
        # minimum-norm solution spreads evenly over identical columns
        np.testing.assert_allclose(a, np.full(4, a[0]), atol=1e-12)


class TestSparsificationWorkflow:
    def test_l1_refit_does_not_blow_up_error(self):
        nodes = grid_nodes([(0.0, 1.0)], [20])
        rng = np.random.default_rng(13)
        pts = np.sort(rng.uniform(0.0, 1.0, 40))[:, None]
        data = Dataset(pts, np.sin(2 * np.pi * pts[:, 0]))
        dense = fit(nodes, data, beta=100.0, alpha=1e-3)
        a = np.abs(dense.coefficients)
        keep = np.flatnonzero(a > 0.02 * a.max())
        assert 0 < len(keep) < 20
        reduced_nodes = NodeSet(nodes.nodes[keep])
        # pruning can drop hull-vertex nodes, so restrict data to the
        # reduced hull before refitting
        lo = reduced_nodes.nodes[:, 0].min()
        hi = reduced_nodes.nodes[:, 0].max()
        inside = (pts[:, 0] >= lo) & (pts[:, 0] <= hi)
        reduced_data = Dataset(pts[inside], data.values[inside])
        refit = fit(reduced_nodes, reduced_data, beta=100.0, alpha=0.0)
        test_pts = np.linspace(lo, hi, 30)[:, None]
        test = Dataset(test_pts, np.sin(2 * np.pi * test_pts[:, 0]))
        assert rms(refit, test) <= 10 * max(rms(dense, test), 1e-3)


class TestFitCaching:
    def test_report_objective_consistent(self):
        nodes = grid_nodes([(0.0, 1.0)], [10])
        rng = np.random.default_rng(14)
        pts = rng.uniform(0, 1, (20, 1))
        data = Dataset(pts, np.sin(2 * np.pi * pts[:, 0]))
        model = fit(nodes, data, beta=100.0, alpha=1e-4)
        psi, _ = basis_matrix(nodes, data.points, 100.0)
        resid = data.component(0) - psi @ model.coefficients
        expect_obj = np.linalg.norm(resid) + 1e-4 * np.abs(model.coefficients).sum()
        assert model.fit_report.objective == pytest.approx(expect_obj, rel=1e-12)
        assert model.fit_report.training_rms == pytest.approx(
            float(np.sqrt(np.mean(resid**2))), rel=1e-12
        )
