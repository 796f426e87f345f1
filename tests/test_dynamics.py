import numpy as np
import pytest

from maxentfit import (
    Dataset,
    DimensionError,
    DomainError,
    FitError,
    NodeSet,
    SurrogateModel,
    Trajectory,
    angular_momentum_error,
    eval_field,
    fit,
    fit_dynamics,
    grid_nodes,
    integrate,
    trajectory_rms,
)
from maxentfit.bench import default_config, orbit_constants, orbit_rhs


def linear_field_data(a_mat, b=None, n_side=7, lo=-1.0, hi=1.0):
    d = a_mat.shape[0]
    pts = grid_nodes([(lo, hi)] * d, [n_side] * d).nodes
    vals = pts @ a_mat.T
    if b is not None:
        vals = vals + b
    return Dataset(pts, vals)


def zero_field_model():
    """Zero field on a 4x4 box grid over the unit square at beta = 10."""
    pts = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [6, 6]).nodes
    nodes = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [4, 4])
    return fit_dynamics(nodes, Dataset(pts, np.zeros_like(pts)), beta=10.0, alpha=0.0)


class TestFitDynamics:
    def test_linear_system_reproduced_at_training_points(self):
        a_mat = np.array([[0.0, 1.0], [-2.0, -0.3]])
        nodes = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [5, 5])
        data = linear_field_data(a_mat)
        model = fit_dynamics(nodes, data, beta=1.0, alpha=0.0)
        for rep in model.fit_reports:
            assert rep.training_rms <= 1e-8

    def test_zero_field(self):
        nodes = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [4, 4])
        pts = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [6, 6]).nodes
        model = fit_dynamics(nodes, Dataset(pts, np.zeros_like(pts)), beta=2.0, alpha=0.0)
        np.testing.assert_allclose(model.coeff_matrix, 0.0, atol=1e-10)
        np.testing.assert_allclose(eval_field(model, [0.4, 0.7]), 0.0, atol=1e-10)

    def test_matches_componentwise_scalar_fits(self):
        a_mat = np.array([[0.5, -1.0], [2.0, 0.1]])
        nodes = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [4, 4])
        data = linear_field_data(a_mat, n_side=6)
        model = fit_dynamics(nodes, data, beta=3.0, alpha=0.0)
        for j in range(2):
            scalar = fit(
                nodes, Dataset(data.points, data.component(j)), beta=3.0, alpha=0.0
            )
            assert np.abs(model.coeff_matrix[:, j] - scalar.coefficients).max() <= 1e-12

    def test_component_independence(self):
        a_mat = np.array([[0.5, -1.0], [2.0, 0.1]])
        nodes = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [4, 4])
        data = linear_field_data(a_mat, n_side=6)
        model = fit_dynamics(nodes, data, beta=3.0, alpha=0.0)
        shuffled = Dataset(
            data.points, np.column_stack([data.component(0), -3.0 * data.component(1)])
        )
        model2 = fit_dynamics(nodes, shuffled, beta=3.0, alpha=0.0)
        np.testing.assert_array_equal(model.coeff_matrix[:, 0], model2.coeff_matrix[:, 0])

    def test_requires_square_values(self):
        nodes = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [4, 4])
        with pytest.raises(DimensionError):
            fit_dynamics(nodes, Dataset(np.full((3, 2), 0.5), np.zeros(3)), beta=0.0, alpha=0.0)


class TestEvalField:
    def test_constant_field_everywhere(self):
        nodes = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [4, 4])
        pts = grid_nodes([(0.0, 1.0), (0.0, 1.0)], [6, 6]).nodes
        c = np.array([2.0, -1.0])
        model = fit_dynamics(nodes, Dataset(pts, np.tile(c, (len(pts), 1))), beta=4.0, alpha=0.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(0.05, 0.95, 2)
            np.testing.assert_allclose(eval_field(model, x), c, atol=1e-9)

    def test_affine_field_exactness(self):
        a_mat = np.array([[0.2, 1.3], [-0.7, 0.9]])
        b = np.array([0.4, -1.1])
        nodes = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [5, 5])
        data = linear_field_data(a_mat, b=b, n_side=9)
        model = fit_dynamics(nodes, data, beta=1.0, alpha=0.0)
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.uniform(-0.95, 0.95, 2)
            expected = a_mat @ x + b
            assert np.abs(eval_field(model, x) - expected).max() <= 1e-7

    def test_nonconverged_point_raises_fit_error(self):
        # 5e-10 past the box edge: inside the hull tolerance, but the basis
        # solve runs out of iterations at beta = 10.
        model = zero_field_model()
        with pytest.raises(FitError, match=r"1\.0000000005"):
            eval_field(model, [1 + 5e-10, 0.5])


class TestIntegrate:
    def test_exponential_decay(self):
        traj = integrate(lambda s: -s, [1.0], (0.0, 1.0), 0.01)
        assert traj.times[-1] == 1.0
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) <= 1e-8

    def test_zero_field_constant(self):
        traj = integrate(lambda s: 0.0 * s, [3.0, 4.0], (0.0, 2.0), 0.25)
        np.testing.assert_array_equal(traj.states, np.tile([3.0, 4.0], (traj.n_samples, 1)))

    def test_rk4_observed_order(self):
        errs = []
        for dt in (0.04, 0.02, 0.01):
            traj = integrate(lambda s: -s, [1.0], (0.0, 1.0), dt)
            errs.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for order in orders:
            assert 3.7 <= order <= 4.3

    def test_final_partial_step_lands_on_t1(self):
        traj = integrate(lambda s: -s, [1.0], (0.0, 0.95), 0.1)
        assert traj.times[-1] == 0.95
        assert abs(traj.states[-1, 0] - np.exp(-0.95)) <= 1e-5

    def test_substeps_reduce_error(self):
        coarse = integrate(lambda s: -s, [1.0], (0.0, 1.0), 0.1)
        fine = integrate(lambda s: -s, [1.0], (0.0, 1.0), 0.1, substeps=10)
        np.testing.assert_array_equal(coarse.times, fine.times)
        truth = np.exp(-1.0)
        assert abs(fine.states[-1, 0] - truth) < abs(coarse.states[-1, 0] - truth)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            integrate(lambda s: -s, [1.0], (0.0, 1.0), 0.0)
        with pytest.raises(DomainError):
            integrate(lambda s: -s, [1.0], (1.0, 0.0), 0.1)

    def test_surrogate_rollout_domain_exit(self):
        nodes = grid_nodes([(0.0, 1.0)], [5])
        pts = np.linspace(0.0, 1.0, 9)[:, None]
        model = fit_dynamics(nodes, Dataset(pts, np.ones_like(pts)), beta=0.0, alpha=0.0)
        traj = integrate(model, [0.5], (0.0, 5.0), 0.05)
        assert traj.domain_exit.reason == "left_hull"
        assert traj.times[-1] == traj.domain_exit.time
        assert traj.states[-1, 0] <= 1.0 + 1e-6
        assert traj.n_samples < 101

    def test_nonconverged_stage_stops_with_prefix(self):
        traj = integrate(zero_field_model(), [1 + 5e-10, 0.5], (0.0, 1.0), 0.1)
        assert traj.domain_exit.reason == "nonconverged"
        assert traj.n_samples == 1 and traj.domain_exit.time == 0.0
        np.testing.assert_array_equal(traj.states[0], [1 + 5e-10, 0.5])

    def test_blowup_stops_with_finite_prefix(self):
        # x' = x^2 from x = 1 diverges at t = 1
        with np.errstate(over="ignore", invalid="ignore"):
            traj = integrate(lambda s: s**2, [1.0], (0.0, 2.0), 0.05)
        assert traj.domain_exit.reason == "blowup"
        assert traj.times[-1] == traj.domain_exit.time < 2.0
        assert np.all(np.isfinite(traj.states))


class TestTrajectoryRms:
    def test_identical(self):
        t = np.linspace(0, 1, 11)
        s = np.random.default_rng(3).normal(size=(11, 2))
        assert trajectory_rms(Trajectory(t, s), Trajectory(t, s.copy())) == 0.0

    def test_constant_offset_one_component(self):
        t = np.linspace(0, 1, 7)
        s = np.zeros((7, 3))
        s2 = s.copy()
        s2[:, 1] += 0.6
        assert trajectory_rms(Trajectory(t, s), Trajectory(t, s2)) == pytest.approx(
            0.6 / np.sqrt(3), abs=1e-15
        )

    def test_grid_mismatch(self):
        a = Trajectory(np.linspace(0, 1, 5), np.zeros((5, 1)))
        b = Trajectory(np.linspace(0, 2, 5), np.zeros((5, 1)))
        with pytest.raises(DomainError):
            trajectory_rms(a, b)


class TestAngularMomentum:
    @staticmethod
    def keplerian_truth(n_train=200, periods=1.0):
        config = default_config("orbit")
        consts = orbit_constants(config)
        h0, period = consts["h0"], consts["period"]
        rp = config.orbit_perigee
        x0 = [rp, 0.0, 0.0, h0 / rp**2]
        rhs = orbit_rhs(config.orbit_mu, config.orbit_ecc, h0)
        dt = periods * period / n_train
        traj = integrate(rhs, x0, (0.0, periods * period), dt, substeps=20)
        return traj, h0

    def test_conserved_on_true_trajectory(self):
        traj, h0 = self.keplerian_truth()
        assert angular_momentum_error(traj, h0).max() <= 1e-8

    def test_scaled_thetadot(self):
        traj, h0 = self.keplerian_truth(n_train=50)
        delta = 3e-3
        scaled = Trajectory(traj.times, traj.states * [1.0, 1.0, 1.0, 1.0 + delta])
        err = angular_momentum_error(scaled, h0)
        np.testing.assert_allclose(err, delta, rtol=1e-6)

    def test_nonpositive_radius_rejected(self):
        t = np.array([0.0, 1.0])
        s = np.array([[1.0, 0.0, 0.0, 1.0], [-0.1, 0.0, 1.0, 1.0]])
        with pytest.raises(DomainError):
            angular_momentum_error(Trajectory(t, s), 1.0)

    def test_h0_must_be_positive(self):
        t = np.array([0.0])
        s = np.array([[1.0, 0.0, 0.0, 1.0]])
        with pytest.raises(DomainError):
            angular_momentum_error(Trajectory(t, s), 0.0)


class TestTrajectoryValidation:
    def test_times_must_increase(self):
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 0.0]), np.zeros((2, 1)))

    def test_shape_agreement(self):
        with pytest.raises(DimensionError):
            Trajectory(np.array([0.0, 1.0]), np.zeros((3, 1)))
