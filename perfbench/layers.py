"""Which maxentfit functions the traced run wraps, and the per-layer metrics.

The layers are the package modules. Every public function the workloads
reach is wrapped in each module that imports it, so a call from
``approximator.fit`` to ``maxent.basis_matrix`` to ``maxent.solve_basis`` to
``geometry.in_hull`` to ``geometry.hull_weights`` nests as spans.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

import maxentfit
from maxentfit import approximator, baselines, cli, dynamics, fileio, geometry, maxent
from maxentfit.approximator import l1_optimality_residual

from spans import Tracer, ancestors, median, self_times, tail_percentile

LAYERS = ("geometry", "maxent", "approximator", "dynamics", "baselines", "fileio", "cli")
MODULES = (
    maxentfit, geometry, maxent, approximator, dynamics, baselines, fileio, cli, maxentfit.bench,
)
NODE_BUILD = ("geometry.grid_nodes", "geometry.augment_nodes", "geometry.NodeSet")
READS = ("fileio.read_dataset_csv", "fileio.read_points_csv", "fileio.load_model")
WRITES = ("fileio.write_predictions_csv", "fileio.write_trajectory_csv", "fileio.save_model")

#: The l1 certificate tolerance the library's own solver stops at.
L1_CERT_TOL = 1e-8


def l1_certificate(psi_mat, y, alpha, a) -> tuple[float, bool]:
    """The public l1 optimality residual at ``a``, and whether it certifies ``a``."""
    certificate = l1_optimality_residual(psi_mat, y, alpha, a)
    return certificate, certificate <= L1_CERT_TOL * (1.0 + float(np.abs(a).max(initial=0.0)))


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


# on_return hooks run inside the caller's span: they only keep references.
def _keep_point(args, kwargs, result):
    return _arg(args, kwargs, 1, "x")


def _basis_eval(args, kwargs, result):
    return (result.iterations, result.converged)


def _coefficient_solve(args, kwargs, result):
    return (args[0], args[1], args[2], result[0], result[1])


def _rollout_steps(args, kwargs, result):
    return result.n_samples - 1


def _path(args, kwargs, result):
    return _arg(args, kwargs, 0, "path")


TRACED = (
    (geometry.in_hull, "geometry.in_hull", _keep_point),
    (geometry.hull_weights, "geometry.hull_weights", None),
    (geometry.grid_nodes, "geometry.grid_nodes", None),
    (geometry.augment_nodes, "geometry.augment_nodes", None),
    (maxent.solve_basis, "maxent.solve_basis", _basis_eval),
    (maxent.basis_matrix, "maxent.basis_matrix", None),
    (approximator.fit, "approximator.fit", None),
    (approximator.predict, "approximator.predict", None),
    (approximator.predict_batch, "approximator.predict_batch", None),
    (approximator.solve_coefficients, "approximator.solve_coefficients", _coefficient_solve),
    (dynamics.fit_dynamics, "dynamics.fit_dynamics", None),
    (dynamics.eval_field, "dynamics.eval_field", None),
    (dynamics.integrate, "dynamics.integrate", _rollout_steps),
    (baselines.dict_fit, "baselines.dict_fit", None),
    (baselines.dict_predict, "baselines.dict_predict", None),
    (baselines.dict_predict_batch, "baselines.dict_predict_batch", None),
    (fileio.read_dataset_csv, "fileio.read_dataset_csv", _path),
    (fileio.read_points_csv, "fileio.read_points_csv", _path),
    (fileio.write_predictions_csv, "fileio.write_predictions_csv", _path),
    (fileio.write_trajectory_csv, "fileio.write_trajectory_csv", _path),
    (fileio.save_model, "fileio.save_model", _path),
    (fileio.load_model, "fileio.load_model", _path),
    (cli.cmd_fit, "cli.fit", None),
    (cli.cmd_eval, "cli.eval", None),
    (cli.cmd_simulate, "cli.simulate", None),
)


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever the package binds it."""
    for original, name, hook in TRACED:
        if tracer.patch_function(MODULES, original, name, hook) == 0:
            raise RuntimeError(f"{name} is bound in no maxentfit module")
    tracer.patch_attribute(geometry.NodeSet, "__init__", "geometry.NodeSet")


# -- metrics ---------------------------------------------------------------

PER_LAYER = (
    ("geometry.in_hull.calls", "count"),
    ("geometry.in_hull.busy_s", "s"),
    ("geometry.in_hull.p50_us", "us"),
    ("geometry.in_hull.p99_us", "us"),
    ("geometry.hull_weights.calls", "count"),
    ("geometry.hull_weights.busy_s", "s"),
    ("geometry.lp_fraction", "1"),
    ("geometry.checks_per_point", "1"),
    ("geometry.node_build_s", "s"),
    ("geometry.self_s", "s"),
    ("maxent.solve_basis.calls", "count"),
    ("maxent.solve_basis.self_s", "s"),
    ("maxent.solve_basis.p50_us", "us"),
    ("maxent.solve_basis.p99_us", "us"),
    ("maxent.basis_matrix.busy_s", "s"),
    ("maxent.newton_iters.mean", "1"),
    ("maxent.newton_iters.p50", "1"),
    ("maxent.newton_iters.p99", "1"),
    ("maxent.newton_iters.max", "1"),
    ("maxent.nonconverged", "count"),
    ("maxent.self_s", "s"),
    ("approximator.solve_coefficients.alpha0.calls", "count"),
    ("approximator.solve_coefficients.alpha0.busy_s", "s"),
    ("approximator.solve_coefficients.l1.calls", "count"),
    ("approximator.solve_coefficients.l1.busy_s", "s"),
    ("approximator.l1.iters_total", "count"),
    ("approximator.l1.certificate_max", "1"),
    ("approximator.l1.certified_fraction", "1"),
    ("approximator.fit.self_s", "s"),
    ("approximator.predict_batch.self_s", "s"),
    ("approximator.self_s", "s"),
    ("dynamics.fit_dynamics.self_s", "s"),
    ("dynamics.integrate.self_s", "s"),
    ("dynamics.eval_field.calls", "count"),
    ("dynamics.eval_field.p50_us", "us"),
    ("dynamics.eval_field.p99_us", "us"),
    ("dynamics.solves_per_step", "1"),
    ("dynamics.self_s", "s"),
    ("baselines.dict_fit.busy_s", "s"),
    ("baselines.dict_predict.calls", "count"),
    ("baselines.dict_predict.busy_s", "s"),
    ("baselines.dict_predict_batch.busy_s", "s"),
    ("baselines.self_s", "s"),
    ("fileio.read.busy_s", "s"),
    ("fileio.write.busy_s", "s"),
    ("fileio.save_model.busy_s", "s"),
    ("fileio.load_model.busy_s", "s"),
    ("fileio.bytes_read", "file_bytes"),
    ("fileio.bytes_written", "file_bytes"),
    ("fileio.self_s", "s"),
    ("cli.fit.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.self_s", "s"),
)


def _outermost(spans, indices, names):
    """Indices whose span has no enclosing span among ``names``."""
    return [i for i in indices if all(spans[a].name not in names for a in ancestors(spans, i))]


def _has_ancestor(spans, index, name) -> bool:
    return any(spans[a].name == name for a in ancestors(spans, index))


def _outermost_call(spans, index) -> int:
    """The outermost enclosing library span (phase spans are not library calls)."""
    calls = [a for a in ancestors(spans, index) if not spans[a].name.startswith("phase.")]
    return calls[-1] if calls else index


def _iteration_metrics(spans, idx, selfs, pooled) -> dict:
    """Per-iteration values; latency samples are added to ``pooled``."""
    by_name = defaultdict(list)
    for i in idx:
        by_name[spans[i].name].append(i)

    def busy(*names):
        picked = [i for n in names for i in by_name[n]]
        return sum(spans[i].duration for i in _outermost(spans, picked, set(names)))

    def self_of(name):
        return sum(selfs[i] for i in by_name[name])

    m = {}
    hull = by_name["geometry.in_hull"]
    lp = by_name["geometry.hull_weights"]
    m["geometry.in_hull.calls"] = len(hull)
    m["geometry.in_hull.busy_s"] = busy("geometry.in_hull")
    m["geometry.hull_weights.calls"] = len(lp)
    m["geometry.hull_weights.busy_s"] = busy("geometry.hull_weights")
    lp_from_hull = sum(1 for i in lp if _has_ancestor(spans, i, "geometry.in_hull"))
    m["geometry.lp_fraction"] = lp_from_hull / len(hull) if hull else 0.0
    # A point checked again by a later call (predict after predict_batch) is a
    # new query; a point checked twice within one outermost library call is not.
    distinct = {(_outermost_call(spans, i), np.asarray(spans[i].info, dtype=float).tobytes())
                for i in hull}
    m["geometry.checks_per_point"] = len(hull) / len(distinct) if distinct else 0.0
    pooled["geometry.in_hull"].extend(spans[i].duration for i in hull)

    solves = by_name["maxent.solve_basis"]
    iters = [spans[i].info[0] for i in solves]
    m["maxent.solve_basis.calls"] = len(solves)
    m["maxent.solve_basis.self_s"] = self_of("maxent.solve_basis")
    m["maxent.basis_matrix.busy_s"] = busy("maxent.basis_matrix")
    m["maxent.newton_iters.mean"] = float(np.mean(iters)) if iters else 0.0
    m["maxent.newton_iters.p50"] = tail_percentile(iters, 50.0)[0]
    m["maxent.newton_iters.p99"] = tail_percentile(iters, 99.0)[0]
    m["maxent.newton_iters.max"] = max(iters, default=0)
    m["maxent.nonconverged"] = sum(1 for i in solves if not spans[i].info[1])
    pooled["maxent.solve_basis"].extend(selfs[i] for i in solves)

    l1_calls = [i for i in by_name["approximator.solve_coefficients"] if spans[i].info[2] > 0]
    ls_calls = [i for i in by_name["approximator.solve_coefficients"] if spans[i].info[2] == 0]
    m["approximator.solve_coefficients.alpha0.calls"] = len(ls_calls)
    m["approximator.solve_coefficients.alpha0.busy_s"] = sum(spans[i].duration for i in ls_calls)
    m["approximator.solve_coefficients.l1.calls"] = len(l1_calls)
    m["approximator.solve_coefficients.l1.busy_s"] = sum(spans[i].duration for i in l1_calls)
    certificates, certified = [], 0
    for i in l1_calls:
        certificate, ok = l1_certificate(*spans[i].info[:4])
        certificates.append(certificate)
        certified += ok
    m["approximator.l1.iters_total"] = sum(spans[i].info[4] for i in l1_calls)
    m["approximator.l1.certificate_max"] = max(certificates, default=0.0)
    m["approximator.l1.certified_fraction"] = certified / len(l1_calls) if l1_calls else 0.0
    m["approximator.fit.self_s"] = self_of("approximator.fit")
    m["approximator.predict_batch.self_s"] = self_of("approximator.predict_batch")

    fields = by_name["dynamics.eval_field"]
    steps = sum(spans[i].info for i in by_name["dynamics.integrate"])
    rollout_solves = sum(1 for i in solves if _has_ancestor(spans, i, "dynamics.integrate"))
    m["dynamics.fit_dynamics.self_s"] = self_of("dynamics.fit_dynamics")
    m["dynamics.integrate.self_s"] = self_of("dynamics.integrate")
    m["dynamics.eval_field.calls"] = len(fields)
    m["dynamics.solves_per_step"] = rollout_solves / steps if steps else 0.0
    pooled["dynamics.eval_field"].extend(spans[i].duration for i in fields)

    m["baselines.dict_fit.busy_s"] = busy("baselines.dict_fit")
    m["baselines.dict_predict.calls"] = len(by_name["baselines.dict_predict"])
    m["baselines.dict_predict.busy_s"] = busy("baselines.dict_predict")
    m["baselines.dict_predict_batch.busy_s"] = busy("baselines.dict_predict_batch")

    m["fileio.read.busy_s"] = busy("fileio.read_dataset_csv", "fileio.read_points_csv")
    m["fileio.write.busy_s"] = busy("fileio.write_predictions_csv", "fileio.write_trajectory_csv")
    m["fileio.save_model.busy_s"] = busy("fileio.save_model")
    m["fileio.load_model.busy_s"] = busy("fileio.load_model")
    # Sizes of the files named in the calls, read once the run is over.
    m["fileio.bytes_read"] = sum(os.path.getsize(spans[i].info) for n in READS for i in by_name[n])
    m["fileio.bytes_written"] = sum(os.path.getsize(spans[i].info) for n in WRITES for i in by_name[n])

    m["cli.fit.self_s"] = self_of("cli.fit")
    m["cli.eval.self_s"] = self_of("cli.eval")
    m["cli.simulate.self_s"] = self_of("cli.simulate")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[i] for i in idx if spans[i].name.startswith(layer + "."))
    return m


def node_build_seconds(spans, iteration) -> float:
    """Busy time of node-set construction recorded under ``iteration``."""
    idx = [i for i, s in enumerate(spans) if s.iteration == iteration and s.name in NODE_BUILD]
    return sum(spans[i].duration for i in _outermost(spans, idx, set(NODE_BUILD)))


def layer_self_by_phase(spans, iterations) -> dict:
    """Self time per (phase, layer) over ``iterations``.

    Phases are the benchmark's root spans (``phase.fit`` ...); their own self
    time is the benchmark's, under the layer name ``benchmark``.
    """
    selfs = self_times(spans)
    table = defaultdict(float)
    for i, span in enumerate(spans):
        if span.iteration not in iterations:
            continue
        root = ([i] + list(ancestors(spans, i)))[-1]
        phase = spans[root].name.removeprefix("phase.")
        layer = "benchmark" if span.name.startswith("phase.") else span.name.split(".", 1)[0]
        table[(phase, layer)] += selfs[i]
    return dict(table)


def per_layer_metrics(tracer: Tracer, iterations, node_build_s: float):
    """Medians over ``iterations`` of each per-iteration value, plus pooled latencies.

    Returns the metrics by name and the per-iteration rows behind them.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    groups = defaultdict(list)
    for i, span in enumerate(spans):
        groups[span.iteration].append(i)
    pooled = defaultdict(list)
    rows = [_iteration_metrics(spans, groups[it], selfs, pooled) for it in iterations]
    values = {name: median([row[name] for row in rows]) for name in rows[0]}
    for name in ("geometry.in_hull", "maxent.solve_basis", "dynamics.eval_field"):
        values[f"{name}.p50_us"] = tail_percentile(pooled[name], 50.0)[0] * 1e6
        values[f"{name}.p99_us"] = tail_percentile(pooled[name], 99.0)[0] * 1e6
    values["geometry.node_build_s"] = node_build_s
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}, rows
