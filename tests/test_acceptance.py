"""Acceptance suite: every release gate in one place.

Each test prints one ``[PASS]``/``[FAIL]`` line with the measured numbers
and its wall-clock budget; run with ``pytest -s tests/test_acceptance.py``
to see the full table.
"""

import time

import numpy as np
import pytest

from maxentfit import (
    Dataset,
    NodeSet,
    SolverOptions,
    fit,
    integrate,
    solve_basis,
)
from maxentfit.bench import default_config, gen_sine, run_experiment
from maxentfit.maxent import _dual_eval

from .oracles import (
    bisect_basis_1d,
    dual_inputs,
    fd_gradient,
    fd_hessian,
    maxent_primal_weights,
    random_interior_instance,
)


def _gate(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def sine_report():
    return run_experiment("sine", baseline=True)


@pytest.fixture(scope="module")
def gauss2d_report():
    return run_experiment("gauss2d", baseline=True)


@pytest.fixture(scope="module")
def rosenbrock_report():
    return run_experiment("rosenbrock", baseline=True)


@pytest.fixture(scope="module")
def lorenz_report():
    return run_experiment("lorenz")


@pytest.fixture(scope="module")
def orbit_sparse_report():
    return run_experiment("orbit-sparse", baseline=True)


def test_criterion_1_sine(sine_report):
    r = sine_report
    ok = r.training_rms <= 1e-3 and r.test_rms <= 1e-2 and r.runtime_s < 10.0
    _gate(
        "criterion 1 (sine)",
        ok,
        f"training_rms={r.training_rms:.3e} (gate 1e-3, target order 1e-4), "
        f"test_rms={r.test_rms:.3e} (gate 1e-2, target order 1e-3), "
        f"runtime={r.runtime_s:.2f}s (< 10 s)",
    )


def test_criterion_2_gauss2d(gauss2d_report):
    r = gauss2d_report
    ok = r.training_rms <= 1e-3 and r.test_rms <= 1e-3 and r.runtime_s < 60.0
    _gate(
        "criterion 2 (gauss2d)",
        ok,
        f"training_rms={r.training_rms:.3e}, test_rms={r.test_rms:.3e} "
        f"(gates 1e-3, target order 1e-4), runtime={r.runtime_s:.2f}s (< 60 s)",
    )


def test_criterion_3_rosenbrock(rosenbrock_report):
    r = rosenbrock_report
    ok = r.training_rms <= 1e-1 and r.test_rms <= 1e-1 and r.runtime_s < 60.0
    _gate(
        "criterion 3 (rosenbrock)",
        ok,
        f"training_rms={r.training_rms:.3e}, test_rms={r.test_rms:.3e} "
        f"(gates 1e-1, target order 1e-2), runtime={r.runtime_s:.2f}s (< 60 s)",
    )


def test_criterion_4_interpolation_limit():
    config = default_config("sine")
    train, _, _ = gen_sine(config)
    nodes = NodeSet(train.points)  # basis nodes at the data points
    model = fit(nodes, train, beta=100.0, alpha=0.0)
    rms = model.fit_report.training_rms
    _gate(
        "criterion 4 (interpolation limit, nodes = data)",
        rms <= 1e-10,
        f"training_rms={rms:.3e} (gate 1e-10)",
    )


def test_criterion_5_lorenz(lorenz_report):
    r = lorenz_report
    per_component = r.extras["derivative_rms_per_component"]
    early = r.extras["trajectory_rms_early"]
    full = r.extras["trajectory_rms_full"]
    completed = r.extras["rollout_exit_time"] is None and not r.extras["rollout_blowup"]
    ok = (
        max(per_component) <= 1e-3
        and early <= 1e-2
        and completed
        and r.runtime_s < 600.0
    )
    _gate(
        "criterion 5 (lorenz)",
        ok,
        f"derivative_rms={[f'{v:.2e}' for v in per_component]} (gate 1e-3/component), "
        f"rollout_rms_20pct={early:.3e} (gate 1e-2), "
        f"rollout_rms_full={full:.3e} (reported, not gated), "
        f"runtime={r.runtime_s:.1f}s (< 600 s)",
    )


def test_criterion_6_orbit_sparse(orbit_sparse_report):
    r = orbit_sparse_report
    h_err = r.extras["max_angular_momentum_error"]
    completed = r.extras["rollout_completed"]
    ratio = r.extras["baseline_deviation_ratio"]
    ok = completed and h_err <= 1e-2 and ratio >= 10.0 and r.runtime_s < 600.0
    _gate(
        "criterion 6 (orbit sparse)",
        ok,
        f"completed_period={completed}, max_h_error={h_err:.3e} (gate 1e-2), "
        f"baseline_deviation_ratio={ratio:.1f}x (gate >= 10x within first 10% of period), "
        f"runtime={r.runtime_s:.1f}s (< 600 s)",
    )


def test_criterion_7_out_of_span_comparison(sine_report, gauss2d_report, rosenbrock_report):
    gauss_ratio = gauss2d_report.extras["baseline_test_rms"] / gauss2d_report.test_rms
    sine_base = sine_report.extras["baseline_test_rms"]
    rosen_base = rosenbrock_report.extras["baseline_test_rms"]
    ok = gauss_ratio >= 5.0 and sine_base <= 1e-8 and rosen_base <= 1e-8
    _gate(
        "criterion 7 (dictionary baseline comparison)",
        ok,
        f"gauss2d baseline/maxent test-RMS ratio={gauss_ratio:.1f}x (gate >= 5x), "
        f"sine baseline_test_rms={sine_base:.2e}, "
        f"rosenbrock baseline_test_rms={rosen_base:.2e} (gates 1e-8, in-span recovery)",
    )


def test_criterion_8a_partition_and_reproduction():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    opts = SolverOptions()
    worst_partition = 0.0
    worst_reproduction = 0.0
    for i in range(1000):
        nodes, x = random_interior_instance(rng)
        ns = NodeSet(nodes)
        ev = solve_basis(ns, x, beta=[0.0, 1.0, 10.0, 100.0][i % 4], opts=opts)
        assert ev.converged and np.all(ev.weights >= 0.0)
        worst_partition = max(worst_partition, abs(ev.weights.sum() - 1.0))
        worst_reproduction = max(
            worst_reproduction, np.abs(ns.nodes.T @ ev.weights - x).max()
        )
    ok = worst_partition <= 1e-12 and worst_reproduction <= 1e-8
    _gate(
        "criterion 8a (partition of unity / linear reproduction, 1000 solves)",
        ok,
        f"max |sum(psi)-1|={worst_partition:.2e} (gate 1e-12), "
        f"max reproduction error={worst_reproduction:.2e} (gate 1e-8), "
        f"elapsed={time.perf_counter() - start:.1f}s",
    )


def test_criterion_8b_dual_derivatives_match_finite_differences():
    rng = np.random.default_rng(20241)
    worst_g = 0.0
    worst_h = 0.0
    for _ in range(50):
        nodes, x = random_interior_instance(rng)
        tilde, log_prior = dual_inputs(nodes, x, float(rng.choice([0.0, 1.0, 10.0])))
        lam = rng.normal(0.0, 1.0, nodes.shape[1])
        _, grad, hess, _ = _dual_eval(lam, tilde, log_prior)
        g_err = np.abs(grad - fd_gradient(lam, tilde, log_prior)).max()
        h_err = np.abs(hess - fd_hessian(lam, tilde, log_prior)).max()
        worst_g = max(worst_g, g_err / (1.0 + np.abs(grad).max()))
        worst_h = max(worst_h, h_err / (1.0 + np.abs(hess).max()))
    ok = worst_g <= 1e-6 and worst_h <= 1e-5
    _gate(
        "criterion 8b (dual gradient/Hessian vs finite differences)",
        ok,
        f"max rel gradient err={worst_g:.2e} (gate 1e-6), "
        f"max rel Hessian err={worst_h:.2e} (gate 1e-5)",
    )


def test_criterion_8c_newton_vs_bisection():
    rng = np.random.default_rng(20242)
    opts = SolverOptions(tol=1e-12)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 13))
        xs = np.sort(rng.uniform(0.0, 1.0, n))
        xs[0], xs[-1] = 0.0, 1.0
        x = float(rng.uniform(0.05, 0.95))
        beta = float(rng.choice([0.0, 1.0, 10.0, 100.0]))
        expected, _ = bisect_basis_1d(xs, x, beta)
        ev = solve_basis(NodeSet(xs[:, None]), [x], beta, opts=opts)
        assert ev.converged
        worst = max(worst, float(np.abs(ev.weights - expected).max()))
    _gate(
        "criterion 8c (1-D Newton vs bisection oracle, 100 instances)",
        worst <= 1e-10,
        f"max weight disagreement={worst:.2e} (gate 1e-10)",
    )


def test_criterion_8d_global_local_equivalence():
    # The local solver at beta = 0 against the global max-entropy weights
    # solved independently in the primal.
    rng = np.random.default_rng(20243)
    worst = 0.0
    for _ in range(50):
        nodes, x = random_interior_instance(rng)
        local = solve_basis(NodeSet(nodes), x, 0.0)
        glob = maxent_primal_weights(nodes, x)
        worst = max(worst, float(np.abs(local.weights - glob).max()))
    _gate(
        "criterion 8d (beta=0 equals primal max-entropy weights, 50 instances)",
        worst <= 1e-6,
        f"max weight difference={worst:.2e} (gate 1e-6)",
    )


def test_criterion_8e_rk4_observed_order():
    errs = []
    for dt in (0.04, 0.02, 0.01):
        traj = integrate(lambda s: -s, [1.0], (0.0, 1.0), dt)
        errs.append(abs(traj.states[-1, 0] - np.exp(-1.0)))
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    ok = all(3.7 <= o <= 4.3 for o in orders)
    _gate(
        "criterion 8e (RK4 observed order)",
        ok,
        f"orders={[f'{o:.2f}' for o in orders]} (gate [3.7, 4.3])",
    )


def test_criterion_8f_affine_field_surrogate_exactness():
    from maxentfit import eval_field, fit_dynamics, grid_nodes

    a_mat = np.array([[0.2, 1.3], [-0.7, 0.9]])
    b = np.array([0.4, -1.1])
    nodes = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [5, 5])
    pts = grid_nodes([(-1.0, 1.0), (-1.0, 1.0)], [9, 9]).nodes
    model = fit_dynamics(nodes, Dataset(pts, pts @ a_mat.T + b), beta=1.0, alpha=0.0)
    rng = np.random.default_rng(20244)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-0.95, 0.95, 2)
        worst = max(worst, float(np.abs(eval_field(model, x) - (a_mat @ x + b)).max()))
    _gate(
        "criterion 8f (affine vector-field exactness)",
        worst <= 1e-7,
        f"max field error={worst:.2e} (gate 1e-7)",
    )


def test_criterion_8g_determinism(tmp_path):
    files_checked = []
    mismatched = []
    for name, baseline, artifact_names in (
        ("sine", True, ["report.json", "train.csv", "test_predictions.csv"]),
        (
            "lorenz",
            False,
            ["report.json", "train.csv", "trajectory_true.csv", "trajectory_model.csv"],
        ),
    ):
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        run_experiment(name, baseline=baseline, out_dir=a)
        run_experiment(name, baseline=baseline, out_dir=b)
        for fname in artifact_names:
            files_checked.append(f"{name}/{fname}")
            if (a / fname).read_bytes() != (b / fname).read_bytes():
                mismatched.append(f"{name}/{fname}")
    _gate(
        "criterion 8g (byte-identical artifacts under fixed seed)",
        not mismatched,
        f"{len(files_checked)} files compared, mismatches={mismatched or 'none'}",
    )
