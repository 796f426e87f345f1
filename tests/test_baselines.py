import numpy as np
import pytest

from maxentfit import (
    ConfigError,
    Dataset,
    Dictionary,
    DictionaryModel,
    dict_fit,
    dict_predict,
    dict_predict_batch,
    integrate,
    trajectory_rms,
)
from maxentfit.bench import _lorenz_rhs_batch, lorenz_rhs


class TestDictionary:
    def test_constant_feature_first(self):
        d = Dictionary(dimension=2, degree=3)
        assert d.feature_names()[0] == "1"
        np.testing.assert_array_equal(d.evaluate([[0.7, -0.3]])[0, 0], 1.0)

    def test_feature_count_poly_only(self):
        d = Dictionary(dimension=2, degree=4, trig=False)
        assert d.n_features == 15  # C(2+4, 4)

    def test_trig_features_appended(self):
        d = Dictionary(dimension=2, degree=1, trig=True, trig_frequency=2.0)
        names = d.feature_names()
        assert names == ["1", "x1", "x2", "sin(2*x1)", "sin(2*x2)", "cos(2*x1)", "cos(2*x2)"]
        row = d.evaluate([[0.25, 0.5]])[0]
        np.testing.assert_allclose(
            row, [1.0, 0.25, 0.5, np.sin(0.5), np.sin(1.0), np.cos(0.5), np.cos(1.0)]
        )

    def test_order_stable(self):
        a = Dictionary(dimension=3, degree=2).feature_names()
        b = Dictionary(dimension=3, degree=2).feature_names()
        assert a == b


class TestDictFit:
    def test_recovers_affine_function(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, (50, 1))
        data = Dataset(pts, 2.0 * pts[:, 0] + 1.0)
        d = Dictionary(dimension=1, degree=2, trig=False)
        model = dict_fit(d, data, threshold=0.1)
        c = model.coefficients[:, 0]
        np.testing.assert_allclose(c, [1.0, 2.0, 0.0], atol=1e-10)

    def test_rosenbrock_in_span(self):
        pts = np.stack(
            np.meshgrid(np.linspace(-1, 1, 16), np.linspace(-1, 1, 16), indexing="ij"),
            axis=-1,
        ).reshape(-1, 2)
        vals = (1 - pts[:, 0]) ** 2 + 100 * (pts[:, 1] - pts[:, 0] ** 2) ** 2
        d = Dictionary(dimension=2, degree=4, trig=True)
        model = dict_fit(d, Dataset(pts, vals), threshold=0.05)
        test = np.random.default_rng(1).uniform(-1, 1, (200, 2))
        truth = (1 - test[:, 0]) ** 2 + 100 * (test[:, 1] - test[:, 0] ** 2) ** 2
        pred = dict_predict_batch(model, test)[:, 0]
        assert np.sqrt(np.mean((pred - truth) ** 2)) <= 1e-10

    def test_lorenz_coefficient_recovery(self):
        sigma, rho, gamma = 10.0, 28.0, 8.0 / 3.0
        traj = integrate(lorenz_rhs(sigma, rho, gamma), [-8.0, 8.0, 27.0], (0.0, 5.0), 0.01)
        states = traj.states
        derivs = _lorenz_rhs_batch(states, sigma, rho, gamma)
        d = Dictionary(dimension=3, degree=2, trig=False)
        model = dict_fit(d, Dataset(states, derivs), threshold=0.05)
        c = model.coefficients
        # features: 1, x1, x2, x3, x1^2, x1x2, x1x3, x2^2, x2x3, x3^2
        assert c[1, 0] == pytest.approx(-sigma, abs=1e-6)
        assert c[2, 0] == pytest.approx(sigma, abs=1e-6)
        assert c[1, 1] == pytest.approx(rho, abs=1e-6)
        assert c[2, 1] == pytest.approx(-1.0, abs=1e-6)
        assert c[6, 1] == pytest.approx(-1.0, abs=1e-6)
        assert c[5, 2] == pytest.approx(1.0, abs=1e-6)
        assert c[3, 2] == pytest.approx(-gamma, abs=1e-6)

    def test_recovered_lorenz_rollout_matches_truth(self):
        sigma, rho, gamma = 10.0, 28.0, 8.0 / 3.0
        rhs = lorenz_rhs(sigma, rho, gamma)
        traj = integrate(rhs, [-8.0, 8.0, 27.0], (0.0, 5.0), 0.01)
        derivs = _lorenz_rhs_batch(traj.states, sigma, rho, gamma)
        d = Dictionary(dimension=3, degree=2, trig=False)
        model = dict_fit(d, Dataset(traj.states, derivs), threshold=0.05)
        x0 = [1.0, 1.0, 1.0]
        truth = integrate(rhs, x0, (0.0, 1.0), 0.01)
        recovered = integrate(lambda s: dict_predict(model, s), x0, (0.0, 1.0), 0.01)
        assert trajectory_rms(truth, recovered) <= 1e-6

    def test_in_span_exactness_random(self):
        rng = np.random.default_rng(5)
        d = Dictionary(dimension=2, degree=3, trig=True)
        pts = rng.uniform(-1, 1, (80, 2))
        phi = d.evaluate(pts)
        c_true = np.zeros(d.n_features)
        c_true[[0, 2, 5, d.n_features - 1]] = [1.5, -2.0, 0.7, 3.0]
        y = phi @ c_true
        model = dict_fit(d, Dataset(pts, y), threshold=0.05)
        resid = phi @ model.coefficients[:, 0] - y
        assert np.abs(resid).max() <= 1e-8

    def test_threshold_idempotence(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, (40, 1))
        data = Dataset(pts, 2.0 * pts[:, 0] + 1.0 + 0.01 * np.sin(5 * pts[:, 0]))
        d = Dictionary(dimension=1, degree=3, trig=False)
        m1 = dict_fit(d, data, threshold=0.05, n_sweeps=3)
        m2 = dict_fit(d, data, threshold=0.05, n_sweeps=30)
        np.testing.assert_array_equal(m1.coefficients, m2.coefficients)

    def test_all_below_threshold_warns_zero_model(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, (30, 1))
        data = Dataset(pts, 1e-6 * pts[:, 0])
        d = Dictionary(dimension=1, degree=2, trig=False)
        with pytest.warns(UserWarning):
            model = dict_fit(d, data, threshold=0.5)
        np.testing.assert_array_equal(model.coefficients, 0.0)

    def test_sweeps_validated(self):
        d = Dictionary(dimension=1, degree=1, trig=False)
        data = Dataset(np.array([[0.0], [1.0]]), np.array([0.0, 1.0]))
        with pytest.raises(ConfigError):
            dict_fit(d, data, n_sweeps=0)


class TestDictPredict:
    def test_zero_model(self):
        d = Dictionary(dimension=2, degree=1, trig=False)
        model = DictionaryModel(d, np.zeros((d.n_features, 2)), 0.1)
        np.testing.assert_array_equal(dict_predict(model, [0.3, -0.4]), [0.0, 0.0])

    def test_constant_model(self):
        d = Dictionary(dimension=1, degree=2, trig=False)
        coeff = np.zeros((d.n_features, 1))
        coeff[0, 0] = 7.5
        model = DictionaryModel(d, coeff, 0.1)
        for x in (-1.0, 0.0, 2.0):
            assert dict_predict(model, [x])[0] == 7.5
