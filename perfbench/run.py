"""maxentfit benchmark: times fitting, evaluation, single-point prediction,
rollouts and CLI start-up on seeded workloads, and checks the outputs.

    python3 perfbench/run.py --workload grid-scalar --seed 0 --seconds 12 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
iterations, then wraps each layer's public functions (see ``layers.py``),
runs traced iterations, prints the per-layer metrics, the tracing overhead
and a determinism cross-check, and writes the spans to
``perfbench/.out/trace-<workload>-s<seed>.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# numpy, maxentfit and the benchmark's own modules are imported inside the
# functions: main() first sets the BLAS thread count and puts src/ on the path.
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# One BLAS thread: the workloads are single-client and closed-loop, and one
# thread keeps the timings steady on a shared two-core machine.
BLAS_THREADS = "1"
SETUP_PROBES = 5
# A run stops after this many times --seconds even if it has timed fewer
# single-point predictions than MIN_PREDICT_SAMPLES.
MAX_STRETCH = 4.0

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("fit_s", "s"),
    ("eval_qps", "points/s"),
    ("predict_p50_ms", "ms"),
    ("predict_p99_ms", "ms"),
    ("rollout_steps_per_s", "steps/s"),
    ("test_rms", "1"),
    ("success_frac", "1"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- the machine -----------------------------------------------------------

def _blas_threads():
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')} (not queried)"


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_info() -> dict:
    import numpy
    import scipy

    import maxentfit

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "maxentfit": maxentfit.__version__,
        "commit": _git_commit(ROOT),
    }


# -- measuring -------------------------------------------------------------

def probe_setup(workload) -> list[float]:
    """Import plus node-set build, each in a fresh interpreter; seconds per probe."""
    import numpy as np

    buf = io.BytesIO()
    np.savez(buf, **workload.node_inputs())
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload.name, *workload.imports],
            input=buf.getvalue(), capture_output=True, timeout=120, check=True,
        )
        probe = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        samples.append(probe["import_s"] + probe["nodes_s"])
    return samples


def one_iteration(workload, iteration_id, tracer=None):
    import maxentfit
    from workloads import Iteration

    rec = Iteration(tracer)
    if tracer is not None:
        tracer.iteration = iteration_id
    start = time.perf_counter()
    try:
        workload.iteration(rec)
    except maxentfit.MaxentError as err:
        rec.op(False, f"{type(err).__name__}: {err}")
    rec.wall = time.perf_counter() - start
    if tracer is not None:
        tracer.iteration = None
    return rec


def run_iterations(workload, seconds, tracer=None, min_samples=0):
    """Iterate until ``seconds`` have passed and ``min_samples`` latencies exist."""
    recs = []
    start = time.perf_counter()
    while True:
        recs.append(one_iteration(workload, len(recs), tracer))
        elapsed = time.perf_counter() - start
        samples = sum(len(r.latencies) for r in recs)
        if elapsed >= seconds and (samples >= min_samples or elapsed >= MAX_STRETCH * seconds):
            return recs


def _median_of(recs, value):
    from spans import median

    vals = [value(r) for r in recs]
    vals = [v for v in vals if v is not None]
    return median(vals) if vals else 0.0


def end_to_end_metrics(recs, all_recs, setup_samples):
    from spans import median, tail_percentile

    # Percentiles of each iteration's calls, then the median over iterations:
    # a burst of machine noise during one iteration does not move it.
    timed = [r for r in recs if r.latencies]
    p50 = _median_of(timed, lambda r: tail_percentile(r.latencies, 50.0)[0])
    p99 = _median_of(timed, lambda r: tail_percentile(r.latencies, 99.0)[0])
    used = min((tail_percentile(r.latencies, 99.0)[1] for r in timed), default=None)
    n = [len(r.latencies) for r in recs]
    attempted = sum(r.attempted for r in all_recs)
    failed = sum(len(r.failures) for r in all_recs)
    values = {
        "setup_s": median(setup_samples),
        "run_s": _median_of(recs, lambda r: r.wall),
        "fit_s": _median_of(recs, lambda r: r.phases.get("fit")),
        "eval_qps": _median_of(
            recs, lambda r: r.eval_points / r.phases["eval"] if r.eval_points else None),
        "predict_p50_ms": p50 * 1e3,
        "predict_p99_ms": p99 * 1e3,
        "rollout_steps_per_s": _median_of(
            recs, lambda r: r.rollout_steps / r.phases["rollout"] if r.rollout_steps else None),
        "test_rms": _median_of(recs, lambda r: r.digest.get("test_rms")),
        "success_frac": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"predict_samples": n, "predict_p99_percentile": used}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}, notes


def cross_check(plain, traced, rows) -> list[str]:
    """Deterministic outputs must not change when the layers are traced."""
    problems = []
    for key in ("test_rms", "l1_iters_total", "l1_certificates"):
        seen = {json.dumps(r.digest.get(key)) for r in plain + traced}
        if len(seen) > 1:
            problems.append(f"{key} differs between iterations: {sorted(seen)}")
    fails = {len(r.failures) for r in plain + traced}
    if len(fails) > 1:
        problems.append(f"failure count differs between iterations: {sorted(fails)}")
    for key in ("maxent.newton_iters.mean", "maxent.newton_iters.p50", "maxent.newton_iters.p99",
                "maxent.newton_iters.max", "maxent.nonconverged", "approximator.l1.iters_total",
                "maxent.solve_basis.calls", "geometry.in_hull.calls"):
        seen = {row[key] for row in rows}
        if len(seen) > 1:
            problems.append(f"{key} differs between traced iterations: {sorted(seen)}")
    untraced_l1 = plain[0].digest.get("l1_iters_total")
    if untraced_l1 is not None and rows[0]["approximator.l1.iters_total"] != untraced_l1:
        problems.append(
            f"l1 iterations: {rows[0]['approximator.l1.iters_total']} traced, {untraced_l1} untraced")
    return problems


def traced_run(workload, seconds, machine):
    import layers
    from spans import Tracer, median

    plain = run_iterations(workload, seconds / 3.0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        inputs = workload.node_inputs()
        builds = []
        for k in range(SETUP_PROBES):
            tracer.iteration = f"setup-{k}"
            workload.build_nodes(inputs)
            builds.append(layers.node_build_seconds(tracer.spans, tracer.iteration))
        tracer.iteration = None
        traced = run_iterations(workload, 2.0 * seconds / 3.0, tracer)
    finally:
        tracer.uninstall()
    ids = list(range(len(traced)))
    metrics, rows = layers.per_layer_metrics(tracer, ids, median(builds))
    problems = cross_check(plain, traced, rows)
    overhead = median([r.wall for r in traced]) - median([r.wall for r in plain])
    by_phase = layers.layer_self_by_phase(tracer.spans, set(ids))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload.name}-s{workload.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "machine": machine,
            "workload": workload.name,
            "seed": workload.seed,
            "tracing_overhead_s": overhead,
            "cross_check_problems": problems,
            "self_s_by_phase_and_layer": [[p, layer, s] for (p, layer), s in sorted(by_phase.items())],
            "metrics": metrics,
            "spans": [[s.name, s.start, s.end, s.parent, s.iteration] for s in tracer.spans],
        }, fh)
    return plain, traced, metrics, problems, overhead, by_phase, path


# -- reporting -------------------------------------------------------------

def print_metrics(metrics) -> None:
    for name, m in metrics.items():
        print(f"  {name:<46s} {m['value']:>14.6g} {m['unit']}")


def print_phase_table(by_phase, n_iterations) -> None:
    phases = sorted({p for p, _ in by_phase})
    print(f"mean self time per traced iteration, by phase and layer ({n_iterations} iterations)")
    for phase in phases:
        row = {layer: s / n_iterations for (p, layer), s in by_phase.items() if p == phase}
        total = sum(row.values())
        top = max(row, key=row.get)
        parts = ", ".join(f"{k} {v:.3f}s" for k, v in sorted(row.items(), key=lambda kv: -kv[1]))
        print(f"  {phase:<9s} {total:7.3f}s  dominant {top} ({row[top] / total:.0%}): {parts}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "maxentfit" / "__init__.py").is_file():
        print(f"error: maxentfit sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import MIN_PREDICT_SAMPLES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    machine = machine_info()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {workload.__doc__}")
        print("machine " + json.dumps(machine, sort_keys=True))
        setup_samples = [] if args.trace else probe_setup(workload)
        workload.setup()
        warm = one_iteration(workload, "warm-up")
        if args.trace == 0:
            recs = run_iterations(workload, args.seconds, min_samples=MIN_PREDICT_SAMPLES)
            all_recs = [warm] + recs
            metrics, notes = end_to_end_metrics(recs, all_recs, setup_samples)
            print(f"{len(recs)} iterations after 1 warm-up; setup_s is the median of "
                  f"{len(setup_samples)} fresh interpreters: "
                  + ", ".join(f"{s:.4f}" for s in setup_samples))
            print(f"single-point predictions per iteration: {notes['predict_samples']}; "
                  f"p99 taken at percentile {notes['predict_p99_percentile']}")
            problems = []
        else:
            plain, traced, metrics, problems, overhead, by_phase, path = traced_run(
                workload, args.seconds, machine)
            all_recs = [warm] + plain + traced
            recs = traced
            print(f"{len(plain)} untraced and {len(traced)} traced iterations after 1 warm-up")
            print(f"tracing overhead: {overhead:+.4f} s per iteration "
                  f"(traced run_s minus untraced run_s)")
            print_phase_table(by_phase, len(traced))
            print("determinism cross-check: "
                  + ("ok" if not problems else "; ".join(problems)))
            print(f"spans written to {path.relative_to(ROOT)}")
        uncertified = sum(r.l1_uncertified for r in recs)
        certs = recs[-1].digest.get("l1_certificates")
        if certs:
            print(f"l1 solves per iteration: {len(certs)}, uncertified {recs[-1].l1_uncertified}"
                  f" (certificate max {max(certs):.3e}); total uncertified {uncertified}")
    attempted = sum(r.attempted for r in all_recs) + (1 if args.trace else 0)
    failures = [f for r in all_recs for f in r.failures] + problems
    for message in sorted(set(failures)):
        print(f"FAILED: {message}")
    print_metrics(metrics)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
