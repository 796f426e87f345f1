"""The four benchmark workloads: seeded inputs, set-up, and one iteration each.

Every workload does what a user of maxentfit waits on: a fit, a batch
evaluation, single-point predictions and an RK4 rollout. They differ in which
layer does the work; ``BENCHMARK.json`` says why each was chosen. Inputs are
made here with numpy from the seed; the library only ever receives the
generated arrays or CSV files. An iteration reuses the same inputs, so every
iteration does identical work.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
from pathlib import Path

import numpy as np

import maxentfit as mf

from layers import l1_certificate

#: Single-point predictions timed per run at least: two iterations of 1000, so
#: each iteration's p99 has ten samples beyond it and the median has two values.
MIN_PREDICT_SAMPLES = 2000

# Held-out relative RMS at this commit was at most these values over seeds 0-9.
# A check fails when a run's test_rms exceeds twice the reference.
TEST_RMS_REFERENCE = {
    "grid-scalar": 4.3e-4,
    "scattered-cli": 5.0e-2,
    "orbit-rollout": 4.4e-2,
    "l1-certify": 2.6e-3,
}


# -- helpers ----------------------------------------------------------------

def rk4(f, x0, h, n, substeps=1):
    """Fixed-step RK4 reference integrator: ``n`` output steps of size ``h``."""
    x = np.asarray(x0, dtype=float)
    out = [x]
    hh = h / substeps
    for _ in range(n):
        for _ in range(substeps):
            k1 = f(x)
            k2 = f(x + 0.5 * hh * k1)
            k3 = f(x + 0.5 * hh * k2)
            k4 = f(x + hh * k3)
            x = x + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(x)
    return np.array(out)


def stratified_square(rng, k, lo, hi, jitter=1.0):
    """One point in each cell of a k x k grid over ``[lo, hi]^2``.

    The point is uniform in the central ``jitter`` fraction of its cell.
    """
    i, j = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
    u = 0.5 * (1.0 - jitter) + jitter * rng.uniform(size=(2, k, k))
    return lo + (hi - lo) * np.stack([i + u[0], j + u[1]], axis=-1).reshape(-1, 2) / k


def relative_rms(pred, true) -> float:
    pred, true = np.asarray(pred), np.asarray(true)
    return float(np.sqrt(np.mean((pred - true) ** 2)) / np.sqrt(np.mean(true**2)))


def same_values(a, b, tol=1e-12) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol * (1.0 + np.abs(b))))


def padded_bounds(states, fraction=0.1):
    lo, hi = states.min(axis=0), states.max(axis=0)
    pad = fraction * (hi - lo)
    return [(float(a - p), float(b + p)) for a, b, p in zip(lo, hi, pad)]


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def read_csv(path):
    """Header and float matrix of a CSV file the CLI wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


def lorenz(s):
    x, y, z = s[..., 0], s[..., 1], s[..., 2]
    return np.stack([10.0 * (y - x), x * (28.0 - z) - y, x * y - (8.0 / 3.0) * z], axis=-1)


def gauss2d(p):
    return 2.0 * p[..., 0] * np.exp(-4.0 * np.sum(p**2, axis=-1))


def gauss2d_flow(p):
    """Hamiltonian field of ``gauss2d``: its orbits are the target's contour lines."""
    x, y = p[..., 0], p[..., 1]
    e = np.exp(-4.0 * (x**2 + y**2))
    return np.stack([-16.0 * x * y * e, -2.0 * e * (1.0 - 8.0 * x**2)], axis=-1)


class Iteration:
    """What one workload iteration did: phase times, counts, failures, digest."""

    def __init__(self, tracer=None):
        self.phases: dict[str, float] = {}
        self.eval_points = 0
        self.rollout_steps = 0
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.digest: dict = {}
        self.l1_uncertified = 0
        self._tracer = tracer

    @contextlib.contextmanager
    def phase(self, name):
        span = self._tracer.span("phase." + name) if self._tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            yield
        self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - start

    def op(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` attempted operations; one failure if ``ok`` is false."""
        self.attempted += count
        if not ok:
            self.failures.append(what)

    def check_test_rms(self, workload: str, value: float) -> None:
        self.digest["test_rms"] = value
        bound = 2.0 * TEST_RMS_REFERENCE[workload]
        self.op(value <= bound, f"test_rms {value:.3e} above {bound:.3e}")


def time_calls(fn, args_list, rec: Iteration):
    """Call ``fn(*args)`` for each entry, timing each call alone."""
    out = []
    clock = time.perf_counter
    for args in args_list:
        start = clock()
        value = fn(*args)
        rec.latencies.append(clock() - start)
        out.append(value)
    return out


def check_rollout(rec: Iteration, traj, t_end, truth=None, tol=None) -> None:
    reached = traj.domain_exit is None and abs(traj.times[-1] - t_end) <= 1e-9 * max(1.0, t_end)
    rec.op(reached, f"rollout stopped at t={traj.times[-1]!r} before {t_end!r}")
    if reached and truth is not None:
        err = relative_rms(traj.states, truth)
        rec.op(err <= tol, f"rollout relative RMS {err:.3e} above {tol:.1e}")
    rec.rollout_steps += traj.n_samples - 1


# -- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    #: single-point predictions per iteration
    PREDICTS = 1000
    #: modules the set-up probe imports before building the node set
    imports = ("maxentfit",)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def node_inputs(self) -> dict:
        """Arrays the node-set build needs, for the set-up probe."""
        raise NotImplementedError

    @staticmethod
    def build_nodes(inputs: dict):
        raise NotImplementedError

    def setup(self) -> None:
        self.nodes = self.build_nodes(self.node_inputs())

    def iteration(self, rec: Iteration) -> None:
        raise NotImplementedError


class GridScalar(Workload):
    """gauss2d on a 12x12 tensor grid: scalar fit plus the target's contour flow."""

    name = "grid-scalar"
    BETA = 10.0
    BOX = [(-1.0, 1.0), (-1.0, 1.0)]
    T_END, DT = 3.0, 0.03

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        train = stratified_square(rng, 32, -1.0, 1.0, jitter=0.5)
        self.test = stratified_square(rng, 45, -1.0, 1.0, jitter=0.5)
        self.train = mf.Dataset(train, gauss2d(train))
        self.flow = mf.Dataset(train, gauss2d_flow(train))
        self.picks = rng.permutation(len(self.test))[: self.PREDICTS]
        self.starts = []
        for sign in (1.0, -1.0, 1.0):
            r = 1.0 / np.sqrt(8.0) + rng.uniform(0.1, 0.3)
            self.starts.append(np.array([sign * r, rng.uniform(-0.05, 0.05)]))

    def node_inputs(self):
        return {"box": np.array(self.BOX), "counts": np.array([12, 12])}

    @staticmethod
    def build_nodes(inputs):
        return mf.grid_nodes(inputs["box"].tolist(), inputs["counts"].tolist())

    def setup(self):
        super().setup()
        n = round(self.T_END / self.DT)
        self.truth = [rk4(gauss2d_flow, x0, self.DT, n, substeps=10) for x0 in self.starts]

    def iteration(self, rec):
        with rec.phase("fit"):
            model = mf.fit(self.nodes, self.train, self.BETA, 0.0)
            field = mf.fit_dynamics(self.nodes, self.flow, self.BETA, 0.0)
        rec.op(True, "fit", count=2)
        with rec.phase("eval"):
            pred = mf.predict_batch(model, self.test)
        rec.eval_points += len(self.test)
        rec.op(True, "predict_batch")
        rec.check_test_rms(self.name, relative_rms(pred, gauss2d(self.test)))
        with rec.phase("predict"):
            single = time_calls(mf.predict, [(model, self.test[i]) for i in self.picks], rec)
        rec.op(same_values(single, pred[self.picks]), "predict differs from predict_batch",
               len(single))
        with rec.phase("rollout"):
            trajs = [mf.integrate(field, x0, (0.0, self.T_END), self.DT) for x0 in self.starts]
        for traj, truth in zip(trajs, self.truth):
            check_rollout(rec, traj, self.T_END, truth, tol=1e-3)


class ScatteredCli(Workload):
    """CLI fit/eval/simulate on Lorenz samples with ``nodes_from_data`` (LP hull test)."""

    name = "scattered-cli"
    imports = ("maxentfit", "maxentfit.cli")
    N_NODES, N_QUERIES = 100, 80
    T1, DT = 0.15, 0.005

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        x0 = np.array([-8.0, 8.0, 27.0]) + rng.uniform(-0.5, 0.5, 3)
        orbit = rk4(lorenz, x0, 0.01, 2000, substeps=5)[200:]
        # Farthest-point picks spread the samples evenly over the attractor.
        picks = [int(rng.integers(len(orbit)))]
        dist = np.linalg.norm(orbit - orbit[picks[0]], axis=1)
        for _ in range(self.N_NODES - 1):
            picks.append(int(np.argmax(dist)))
            dist = np.minimum(dist, np.linalg.norm(orbit - orbit[picks[-1]], axis=1))
        self.points = orbit[picks]
        centre = self.points.mean(axis=0)
        # Held-out states every `step` along the orbit, pulled 10% into the hull.
        step = len(orbit) // self.N_QUERIES
        held = orbit[int(rng.integers(step))::step][: self.N_QUERIES]
        self.queries = 0.9 * held + 0.1 * centre
        self.x0 = 0.8 * self.points[int(rng.integers(self.N_NODES))] + 0.2 * centre
        paths = {k: str(workdir / f"{k}") for k in
                 ("train.csv", "points.csv", "config.json", "model.json", "preds.csv", "traj.csv")}
        self.paths = paths
        write_csv(paths["train.csv"], ["x1", "x2", "x3", "dx1", "dx2", "dx3"],
                  np.hstack([self.points, lorenz(self.points)]))
        write_csv(paths["points.csv"], ["x1", "x2", "x3"], self.queries)
        Path(paths["config.json"]).write_text(
            json.dumps({"nodes_from_data": True, "beta": 0.2}), encoding="utf-8")

    def node_inputs(self):
        return {"points": self.points}

    @staticmethod
    def build_nodes(inputs):
        return mf.NodeSet(inputs["points"])

    def _cli(self, rec, argv) -> bool:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mf.cli.main(argv)
        rec.op(code == 0, f"maxentfit {argv[0]} exited {code}: {err.getvalue().strip()}")
        return code == 0

    def iteration(self, rec):
        p = self.paths
        with rec.phase("fit"):
            ok = self._cli(rec, ["fit", "--data", p["train.csv"], "--config", p["config.json"],
                                 "--out", p["model.json"]])
        if not ok:
            return
        with rec.phase("eval"):
            ok = self._cli(rec, ["eval", "--model", p["model.json"], "--points", p["points.csv"],
                                 "--out", p["preds.csv"]])
        if not ok:
            return
        header, table = read_csv(p["preds.csv"])
        parsed = header == ["x1", "x2", "x3", "dx1_pred", "dx2_pred", "dx3_pred"] and \
            table.shape == (self.N_QUERIES, 6) and np.array_equal(table[:, :3], self.queries)
        rec.op(parsed, "eval CSV does not parse back to the queried points")
        if not parsed:
            return
        rec.eval_points += self.N_QUERIES
        rec.check_test_rms(self.name, relative_rms(table[:, 3:], lorenz(self.queries)))
        x0 = ",".join(repr(float(v)) for v in self.x0)
        with rec.phase("rollout"):
            ok = self._cli(rec, ["simulate", "--model", p["model.json"], f"--x0={x0}",
                                 "--t1", repr(self.T1), "--dt", repr(self.DT),
                                 "--out", p["traj.csv"]])
        if ok:
            header, traj = read_csv(p["traj.csv"])
            steps = round(self.T1 / self.DT)
            reached = header == ["t", "x1", "x2", "x3"] and traj.shape == (steps + 1, 4) \
                and traj[-1, 0] == self.T1
            rec.op(reached, "simulate CSV does not reach t1")
            rec.rollout_steps += steps
        idx = [i % self.N_QUERIES for i in range(self.PREDICTS)]
        with rec.phase("predict"):
            model = mf.fileio.load_model(p["model.json"])
            single = time_calls(mf.eval_field, [(model, self.queries[i]) for i in idx], rec)
        rec.op(same_values(single, table[idx, 3:]), "eval_field differs from CLI eval", len(idx))


class OrbitRollout(Workload):
    """Kepler orbit field on 5^4 + 100 nodes: 4-component fit, rollouts, baseline."""

    name = "orbit-rollout"
    BETA = 0.1
    N_SAMPLES, N_STARTS = 500, 3

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        mu, rp = 1.0, 1.1
        ecc = 0.2 + rng.uniform(-0.01, 0.01)
        h0 = np.sqrt(mu * rp * (1.0 + ecc))
        self.period = float(2.0 * np.pi * np.sqrt((rp / (1.0 - ecc)) ** 3 / mu))
        k = mu * ecc / h0

        def rhs(s):
            return np.stack([s[..., 1], k * s[..., 3] * np.cos(s[..., 2]), s[..., 3],
                             -2.0 * s[..., 3] * s[..., 1] / s[..., 0]], axis=-1)

        self.rhs = rhs
        dt = 2.0 * self.period / (self.N_SAMPLES - 1)
        half = rk4(rhs, [rp, 0.0, 0.0, h0 / rp**2], dt / 2, 2 * (self.N_SAMPLES - 1), substeps=5)
        states = half[::2]
        self.data = mf.Dataset(states, rhs(states))
        self.bounds = padded_bounds(states)
        # Held-out queries: mid-step states pushed off the orbit in a random
        # direction, 3% of the orbit's extent along each axis.
        lo, hi = states.min(axis=0), states.max(axis=0)
        box = np.array(self.bounds)
        direction = rng.standard_normal(half[1::2].shape)
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        off = half[1::2] + 0.03 * (hi - lo) * direction
        self.queries = np.clip(off, box[:, 0] + 0.05 * (hi - lo), box[:, 1] - 0.05 * (hi - lo))
        self.starts = states[rng.choice(self.N_SAMPLES // 2, self.N_STARTS, replace=False)]
        self.dt = self.period / 200.0

    def node_inputs(self):
        return {"bounds": np.array(self.bounds), "states": self.data.points,
                "seed": np.array(self.seed)}

    @staticmethod
    def build_nodes(inputs):
        grid = mf.grid_nodes(inputs["bounds"].tolist(), [5, 5, 5, 5])
        return mf.augment_nodes(grid, inputs["states"], 100, seed=int(inputs["seed"]))

    def setup(self):
        super().setup()
        n = round(self.period / self.dt)
        self.truth = [rk4(self.rhs, x0, self.dt, n, substeps=10) for x0 in self.starts]
        self.dictionary = mf.Dictionary(dimension=4, degree=4, trig=True)

    def iteration(self, rec):
        with rec.phase("fit"):
            field = mf.fit_dynamics(self.nodes, self.data, self.BETA, 0.0)
        rec.op(True, "fit_dynamics")
        with rec.phase("eval"):
            psi, evals = mf.basis_matrix(self.nodes, self.queries, self.BETA)
            pred = psi @ field.coeff_matrix
        rec.eval_points += len(self.queries)
        rec.op(all(ev.converged for ev in evals), "basis solve did not converge")
        rec.check_test_rms(self.name, relative_rms(pred, self.rhs(self.queries)))
        idx = [i % len(self.queries) for i in range(self.PREDICTS)]
        with rec.phase("predict"):
            single = time_calls(mf.eval_field, [(field, self.queries[i]) for i in idx], rec)
        rec.op(same_values(single, pred[idx]), "eval_field differs from basis_matrix rows",
               len(idx))
        with rec.phase("rollout"):
            trajs = [mf.integrate(field, x0, (0.0, self.period), self.dt) for x0 in self.starts]
        for traj, truth in zip(trajs, self.truth):
            check_rollout(rec, traj, self.period, truth, tol=1e-5)
        with rec.phase("baseline"):
            base = mf.dict_fit(self.dictionary, self.data)
            base_pred = mf.dict_predict_batch(base, self.queries)
            base_traj = mf.integrate(lambda s: mf.dict_predict(base, s), self.starts[0],
                                     (0.0, self.period), self.dt)
        rec.op(bool(np.all(np.isfinite(base_pred))), "baseline prediction is not finite")
        reached = abs(base_traj.times[-1] - self.period) <= 1e-9 * self.period
        rec.op(reached, "baseline rollout stopped early")


class L1Certify(Workload):
    """alpha > 0 fits on the gauss2d basis (scalar) and the Lorenz basis (field)."""

    name = "l1-certify"
    G_BETA, L_BETA = 10.0, 0.002
    G_ALPHAS = (1e-4, 1e-2, 1e-1)
    # Lorenz at alpha = 1e-1 alone runs about 7.5 s; it is left out to fit the run.
    L_ALPHAS = (1e-4, 1e-2)
    T_END, DT = 1.0, 0.004
    # Rollouts of the alpha = 1e-4 field start at these samples; from some later
    # samples the orbit passes close enough to the box to leave it.
    ROLLOUT_STARTS = (0, 125)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = self.rng
        # The gauss2d basis matrix is the same for every seed (cell centres of a
        # 16x16 grid), so the l1 work does not change with the seed.
        train = (np.stack(np.meshgrid(np.arange(16), np.arange(16), indexing="ij"), -1)
                 .reshape(-1, 2) + 0.5) / 16.0
        self.g_train = mf.Dataset(train, gauss2d(train))
        self.test = stratified_square(rng, 32, 0.0, 1.0, jitter=0.5)
        x0 = np.array([-8.0, 8.0, 27.0]) + rng.uniform(-0.5, 0.5, 3)
        states = rk4(lorenz, x0, 5.0 / 499, 499, substeps=10)
        self.l_train = mf.Dataset(states, lorenz(states))
        self.l_bounds = padded_bounds(states)

    def node_inputs(self):
        return {"bounds": np.array(self.l_bounds), "states": self.l_train.points,
                "seed": np.array(self.seed)}

    @staticmethod
    def build_nodes(inputs):
        g_nodes = mf.grid_nodes([(0.0, 1.0), (0.0, 1.0)], [8, 8])
        grid = mf.grid_nodes(inputs["bounds"].tolist(), [5, 5, 5])
        return g_nodes, mf.augment_nodes(grid, inputs["states"], 100, seed=int(inputs["seed"]))

    def setup(self):
        super().setup()
        self.g_nodes, self.l_nodes = self.nodes
        # Reference basis matrices: the fits evaluate the same solves internally.
        self.g_psi, _ = mf.basis_matrix(self.g_nodes, self.g_train.points, self.G_BETA)
        self.l_psi, _ = mf.basis_matrix(self.l_nodes, self.l_train.points, self.L_BETA)
        self.g_ls = np.linalg.lstsq(self.g_psi, self.g_train.values, rcond=None)[0]
        self.l_ls = np.linalg.lstsq(self.l_psi, self.l_train.values, rcond=None)[0]

    def _check_l1(self, rec, psi_mat, y, a_ls, alpha, a, what) -> None:
        """The fit may not end above the least-squares start; record its certificate."""

        def objective(c):
            return float(np.linalg.norm(psi_mat @ c - y) + alpha * np.abs(c).sum())

        start, end = objective(a_ls), objective(a)
        rec.op(end <= start * (1.0 + 1e-12), f"{what}: l1 objective {end!r} above start {start!r}")
        certificate, certified = l1_certificate(psi_mat, y, alpha, a)
        rec.l1_uncertified += not certified
        rec.digest.setdefault("l1_certificates", []).append(certificate)

    def iteration(self, rec):
        with rec.phase("fit"):
            scalars = [mf.fit(self.g_nodes, self.g_train, self.G_BETA, a) for a in self.G_ALPHAS]
            fields = [mf.fit_dynamics(self.l_nodes, self.l_train, self.L_BETA, a)
                      for a in self.L_ALPHAS]
        rec.op(True, "fit", count=len(scalars) + len(fields))
        iterations = []
        for alpha, model in zip(self.G_ALPHAS, scalars):
            self._check_l1(rec, self.g_psi, self.g_train.values, self.g_ls, alpha, model.coefficients,
                           f"gauss2d alpha={alpha}")
            iterations.append(model.fit_report.solver_iterations)
        for alpha, field in zip(self.L_ALPHAS, fields):
            for j, report in enumerate(field.fit_reports):
                self._check_l1(rec, self.l_psi, self.l_train.values[:, j], self.l_ls[:, j],
                               alpha, field.coeff_matrix[:, j], f"lorenz alpha={alpha} x{j + 1}")
                iterations.append(report.solver_iterations)
        rec.digest["l1_iters_total"] = sum(iterations)
        model = scalars[-1]
        with rec.phase("eval"):
            pred = mf.predict_batch(model, self.test)
        rec.eval_points += len(self.test)
        rec.op(True, "predict_batch")
        rec.check_test_rms(self.name, relative_rms(pred, gauss2d(self.test)))
        with rec.phase("predict"):
            single = time_calls(mf.predict, [(model, q) for q in self.test[: self.PREDICTS]], rec)
        rec.op(same_values(single, pred[: self.PREDICTS]), "predict differs from predict_batch",
               len(single))
        with rec.phase("rollout"):
            trajs = [mf.integrate(fields[0], self.l_train.points[k], (0.0, self.T_END), self.DT)
                     for k in self.ROLLOUT_STARTS]
        for traj in trajs:
            check_rollout(rec, traj, self.T_END)


WORKLOADS = {w.name: w for w in (GridScalar, ScatteredCli, OrbitRollout, L1Certify)}
