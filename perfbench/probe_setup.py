"""Set-up probe: ``import maxentfit`` in a fresh interpreter, then one node-set build.

run.py starts this script several times per run. It reads the node-build
inputs as an ``.npz`` archive on stdin and prints one JSON line,
``{"import_s": ..., "nodes_s": ...}``. Generating the inputs is the
benchmark's own work and is not timed.

    python3 perfbench/probe_setup.py <workload> <module> [<module> ...] < inputs.npz
"""

import importlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))


def main() -> None:
    workload, modules = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    for module in modules:
        importlib.import_module(module)
    import_s = time.perf_counter() - start

    import io
    import json

    import numpy as np

    from workloads import WORKLOADS

    inputs = dict(np.load(io.BytesIO(sys.stdin.buffer.read())))
    start = time.perf_counter()
    WORKLOADS[workload].build_nodes(inputs)
    nodes_s = time.perf_counter() - start
    print(json.dumps({"import_s": import_s, "nodes_s": nodes_s}))


if __name__ == "__main__":
    main()
