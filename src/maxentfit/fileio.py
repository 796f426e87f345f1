"""CSV and JSON formats for datasets, models, trajectories, and reports.

The formats only: which files an experiment bundle holds is up to
:mod:`maxentfit.bench`.

All floats are written with ``repr``, the shortest string that parses back
to the identical double, so every artifact round-trips exactly and
fixed-seed runs are byte-identical. CSV files are UTF-8, comma-separated,
'.' decimal, with a single header row.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import types
import typing
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .geometry import NodeSet
from .approximator import Approximant, Dataset, FitReport
from .dynamics import SurrogateModel, Trajectory

MODEL_FORMAT = "maxentfit-model-v1"


def _fmt(v: float) -> str:
    return repr(float(v))


def _parse_float(token: str, path, line: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise ConfigError(f"{path}: line {line}: not a number: {token!r}") from None


def _point_columns(d: int) -> list[str]:
    return [f"x{i + 1}" for i in range(d)]


def _read_table(path):
    """Header and non-empty rows of a CSV whose columns start with ``x1..xd``.

    Returns ``(d, rest, rows)``: the number of point columns, the header
    cells after them, and ``(line_no, cells)`` per data row. Raises
    ConfigError on an empty file, a header not starting with ``x1``, or a
    file without data rows.
    """
    with Path(path).open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        d = 0
        while d < len(header) and header[d] == f"x{d + 1}":
            d += 1
        if d == 0:
            raise ConfigError(f"{path}: header must start with x1, got {header[:1]}")
        rows = [(line_no, row) for line_no, row in enumerate(reader, start=2) if row]
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return d, header[d:], rows


def read_dataset_csv(path) -> Dataset:
    """Read a dataset: columns ``x1..xd`` plus ``f`` or ``dx1..dxd``.

    Raises ConfigError on malformed headers, ragged rows, or non-numeric
    cells, naming the offending line.
    """
    path = Path(path)
    d, rest, rows = _read_table(path)
    if rest == ["f"]:
        value_cols = 1
    elif rest == [f"dx{i + 1}" for i in range(d)]:
        value_cols = d
    else:
        raise ConfigError(
            f"{path}: value columns must be ['f'] or ['dx1'..'dx{d}'], got {rest}"
        )
    points, values = [], []
    for line_no, row in rows:
        if len(row) != d + value_cols:
            raise ConfigError(
                f"{path}: line {line_no}: expected {d + value_cols} cells, got {len(row)}"
            )
        nums = [_parse_float(tok, path, line_no) for tok in row]
        points.append(nums[:d])
        values.append(nums[d:])
    pts = np.asarray(points)
    vals = np.asarray(values)
    # Scalar datasets ('f') carry 1-D values; field datasets ('dx*') stay
    # 2-D even for d = 1 so callers can tell the two apart.
    if rest == ["f"]:
        vals = vals[:, 0]
    return Dataset(pts, vals)


def _write_rows(path, header: list[str], rows) -> None:
    """Write a header line, then one line per row of floats."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)


def write_dataset_csv(path, dataset: Dataset) -> None:
    # 1-D values are a scalar target; 2-D values are field components,
    # mirroring read_dataset_csv.
    header = _point_columns(dataset.d) + (
        ["f"] if dataset.values.ndim == 1 else [f"dx{i + 1}" for i in range(dataset.n_components)]
    )
    _write_rows(path, header, np.column_stack([dataset.points, dataset.values]))


def read_points_csv(path) -> np.ndarray:
    """Read query points: columns ``x1..xd`` (extra value columns are ignored)."""
    path = Path(path)
    d, _, rows = _read_table(path)
    points = []
    for line_no, row in rows:
        if len(row) < d:
            raise ConfigError(f"{path}: line {line_no}: expected at least {d} cells")
        points.append([_parse_float(tok, path, line_no) for tok in row[:d]])
    return np.asarray(points)


def write_predictions_csv(path, points: np.ndarray, columns: dict) -> None:
    """Write points plus named prediction columns."""
    names = list(columns)
    rows = np.column_stack([points] + [columns[name] for name in names])
    _write_rows(path, _point_columns(points.shape[1]) + names, rows)


def write_trajectory_csv(path, traj: Trajectory) -> None:
    _write_rows(path, ["t"] + _point_columns(traj.d), np.column_stack([traj.times, traj.states]))


def write_series_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length prefixes of ``columns``: as many rows as the shortest has."""
    n = min(len(c) for c in columns)
    _write_rows(path, header, np.column_stack([c[:n] for c in columns]))


def write_json(path, payload) -> None:
    """Write ``payload`` as JSON: sorted keys, 2-space indent, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(path, model) -> None:
    """Write an Approximant or SurrogateModel as a JSON model file."""
    if isinstance(model, Approximant):
        fitted = {
            "kind": "scalar",
            "coefficients": model.coefficients.tolist(),
            "fit_report": dataclasses.asdict(model.fit_report),
        }
    elif isinstance(model, SurrogateModel):
        fitted = {
            "kind": "field",
            "coefficients": model.coeff_matrix.tolist(),
            "fit_reports": [dataclasses.asdict(r) for r in model.fit_reports],
        }
    else:
        raise ConfigError(f"cannot save object of type {type(model).__name__}")
    payload = {
        "format": MODEL_FORMAT,
        "beta": model.beta,
        "alpha": model.alpha,
        "nodes": model.nodes.nodes.tolist(),
        **fitted,
    }
    write_json(path, payload)


def load_model(path):
    """Read a model file back into an Approximant or SurrogateModel.

    A ``"box"`` key, written by earlier versions, is ignored: the node set
    derives its hull from the nodes.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT} file")
    kind = payload.get("kind")
    if kind not in ("scalar", "field"):
        raise ConfigError(f"{path}: unknown model kind {kind!r}")
    try:
        beta, alpha = payload["beta"], payload["alpha"]
        if not all(type(v) in (int, float) and 0 <= v < np.inf for v in (beta, alpha)):
            raise ConfigError(f"beta {beta!r} and alpha {alpha!r} must be finite numbers >= 0")
        nodes, coeff = np.asarray(payload["nodes"]), np.asarray(payload["coefficients"])
        if nodes.dtype.kind not in "iuf" or coeff.dtype.kind not in "iuf":
            raise ConfigError("nodes and coefficients must be numeric arrays")
        nodes = NodeSet(nodes)
        if coeff.shape != ((nodes.n,) if kind == "scalar" else (nodes.n, nodes.d)):
            raise ConfigError(f"coefficients {coeff.shape} do not fit nodes {nodes.nodes.shape}")
        shared = {"nodes": nodes, "beta": float(beta), "alpha": float(alpha)}
        if kind == "scalar":
            return Approximant(
                **shared,
                coefficients=coeff,
                fit_report=FitReport(**payload["fit_report"]),
            )
        return SurrogateModel(
            **shared,
            coeff_matrix=coeff,
            fit_reports=tuple(FitReport(**r) for r in payload["fit_reports"]),
        )
    except KeyError as err:
        raise ConfigError(f"{path}: model file lacks key {err}") from None
    except (TypeError, ValueError) as err:  # ConfigError, DimensionError, ragged arrays
        raise ConfigError(f"{path}: malformed model file: {err}") from None


def check_json_types(config) -> None:
    """Check that each field of dataclass ``config`` holds a JSON value of its annotated type.

    Integers count as floats, booleans as neither; ``tuple[X, Y]`` is a JSON
    list of that length. Raises :class:`ConfigError` naming the first bad key.
    """
    hints = typing.get_type_hints(type(config))
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not _is_json_of(value, hints[f.name]):
            raise ConfigError(f"config key {f.name!r} must be {f.type}, got {value!r}")


def _is_json_of(value, tp) -> bool:
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        return any(_is_json_of(value, a) for a in args)
    if origin is list:
        return isinstance(value, list) and all(_is_json_of(v, args[0]) for v in value)
    if origin is tuple:
        return isinstance(value, list) and len(value) == len(args) and all(
            map(_is_json_of, value, args)
        )
    if tp is float:
        return _is_json_of(value, int) or isinstance(value, float)
    if tp is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, tp)  # bool, str, None
