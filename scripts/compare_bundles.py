"""Compare the benchmark artifact bundles of a git revision with the working tree.

Usage: python scripts/compare_bundles.py REV

Exports REV with ``git archive`` into a temporary directory, runs
``maxentfit bench --experiment E --baseline`` for all six experiments on
REV and on the working tree, and compares the bundles file by file. Prints
``identical`` or ``differs`` per file (``missing`` when only one side wrote
it) and exits 1 if any file is not byte-identical, 0 otherwise.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from maxentfit.bench import EXPERIMENTS  # noqa: E402


def run_bundles(src: Path, out: Path) -> None:
    """Write the six ``--baseline`` bundles of the package under ``src`` into ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    for name in EXPERIMENTS:
        subprocess.run(
            [sys.executable, "-m", "maxentfit.cli", "bench", "--experiment", name,
             "--baseline", "--out", str(out / name)],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python scripts/compare_bundles.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        run_bundles(tmp / "rev" / "src", tmp / "old")
        run_bundles(REPO / "src", tmp / "new")
        names = sorted(
            {p.relative_to(tmp / "old") for p in (tmp / "old").rglob("*") if p.is_file()}
            | {p.relative_to(tmp / "new") for p in (tmp / "new").rglob("*") if p.is_file()}
        )
        differing = 0
        for name in names:
            old, new = tmp / "old" / name, tmp / "new" / name
            if not (old.exists() and new.exists()):
                verdict = "missing"
            elif old.read_bytes() == new.read_bytes():
                verdict = "identical"
            else:
                verdict = "differs"
            differing += verdict != "identical"
            print(f"{verdict:<9s} {name}")
    print(f"{len(names)} files, {differing} not identical to {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
