"""Self-tests for the benchmark's own helpers.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import maxentfit  # noqa: E402
from maxentfit import approximator, cli, dynamics, geometry, maxent  # noqa: E402

import layers  # noqa: E402
from spans import Span, Tracer, covered, highest_percentile, self_times, tail_percentile  # noqa: E402


def test_covered_merges_overlapping_intervals():
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == 3.0
    assert covered([]) == 0.0


def test_self_time_is_duration_minus_union_of_children():
    spans = [
        Span("a", 0.0, 10.0, None, 0),
        Span("b", 1.0, 3.0, 0, 0),
        Span("c", 2.0, 4.0, 0, 0),  # overlaps b: the union [1, 4] counts once
        Span("d", 5.0, 6.0, 0, 0),
        Span("e", 5.5, 5.75, 3, 0),  # grandchild: only d loses it
    ]
    assert self_times(spans) == [6.0, 2.0, 2.0, 0.75, 0.25]


def test_tracer_records_parents_and_iteration():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    tracer.iteration = 7
    assert outer(1) == 4
    names = [(s.name, s.parent, s.iteration) for s in tracer.spans]
    assert names == [("outer", None, 7), ("inner", 0, 7)]
    assert [s.duration for s in tracer.spans] == [3.0, 1.0]
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_percentile_keeps_ten_samples_beyond():
    assert highest_percentile(1000) == 99.0
    assert highest_percentile(10) is None
    values = list(range(1, 1001))
    value, used, n = tail_percentile(values, 99.0)
    assert (value, used, n) == (990, 99.0, 1000)
    assert sum(v > value for v in values) == 10
    # 500 samples cannot support p99: it drops to p98, still ten beyond.
    value, used, n = tail_percentile(range(1, 501), 99.0)
    assert used == 98.0 and value == 490
    assert tail_percentile([3, 1, 2], 99.0) == (2, 50.0, 3)
    assert tail_percentile([], 99.0) == (0.0, None, 0)


def _bindings():
    return {(m.__name__, a): v for m in layers.MODULES for a, v in vars(m).items() if callable(v)}


def test_install_wraps_every_binding_and_uninstall_restores():
    before = _bindings()
    init = geometry.NodeSet.__init__
    tracer = Tracer()
    layers.install(tracer)
    try:
        for module, name in ((maxent, "in_hull"), (cli, "in_hull"),
                             (approximator, "basis_matrix"), (dynamics, "solve_basis"),
                             (cli, "fit"), (maxentfit, "predict")):
            assert getattr(module, name) is not before[(module.__name__, name)]
            assert getattr(module, name).__wrapped__ is before[(module.__name__, name)]
        assert geometry.NodeSet.__init__ is not init
        tracer.iteration = 0
        nodes = maxentfit.grid_nodes([(0.0, 1.0), (0.0, 1.0)], [3, 3])
        pts = [[0.2, 0.3], [0.6, 0.5], [0.4, 0.8], [0.7, 0.1]]
        data = maxentfit.Dataset(pts, [1.0, 2.0, 3.0, 4.0])
        model = maxentfit.fit(nodes, data, 2.0, 0.0)
        maxentfit.predict(model, [0.5, 0.5])
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert geometry.NodeSet.__init__ is init

    spans = tracer.spans
    name_of = {i: s.name for i, s in enumerate(spans)}
    edges = {(name_of[s.parent] if s.parent is not None else None, s.name) for s in spans}
    assert ("approximator.fit", "maxent.basis_matrix") in edges
    assert ("maxent.basis_matrix", "maxent.solve_basis") in edges
    assert ("maxent.solve_basis", "geometry.in_hull") in edges
    assert ("approximator.predict", "maxent.solve_basis") in edges
    metrics, rows = layers.per_layer_metrics(tracer, [0], node_build_s=0.0)
    assert [name for name in metrics] == [name for name, _ in layers.PER_LAYER]
    assert metrics["maxent.solve_basis.calls"]["value"] == 5
    assert metrics["geometry.checks_per_point"]["value"] == 1.0
    assert metrics["geometry.lp_fraction"]["value"] == 0.0


def test_run_exits_nonzero_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench / path.name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        command + ["--workload", "grid-scalar", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
