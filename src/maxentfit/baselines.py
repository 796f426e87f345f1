"""Dictionary-regression baseline: sequentially thresholded least squares.

The comparison baseline fits the data as a sparse linear combination of a
user-chosen feature library (polynomial monomials, optionally sin/cos of
each coordinate), in the style popularized by SINDy: least squares, zero
the small coefficients, refit on the survivors, repeat. Targets inside the
library's span are recovered essentially exactly; targets outside it are
where the maxent approximant earns its keep.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError
from .geometry import as_points
from .approximator import Dataset


@dataclass(frozen=True)
class Dictionary:
    """Feature library: monomials up to ``degree``, optional per-coordinate trig.

    The first feature is always the constant 1; ordering is deterministic
    (monomials by total degree then lexicographic index, then sin of each
    coordinate, then cos).
    """

    dimension: int
    degree: int = 4
    trig: bool = True
    trig_frequency: float = 1.0
    _exponents: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ConfigError(f"dimension must be at least 1, got {self.dimension}")
        if self.degree < 0:
            raise ConfigError(f"degree must be nonnegative, got {self.degree}")
        exps = []
        for total in range(self.degree + 1):
            for combo in itertools.combinations_with_replacement(range(self.dimension), total):
                e = [0] * self.dimension
                for idx in combo:
                    e[idx] += 1
                exps.append(tuple(e))
        object.__setattr__(self, "_exponents", tuple(exps))

    @property
    def n_features(self) -> int:
        return len(self._exponents) + (2 * self.dimension if self.trig else 0)

    def feature_names(self) -> list[str]:
        names = []
        for e in self._exponents:
            if sum(e) == 0:
                names.append("1")
                continue
            parts = []
            for i, p in enumerate(e):
                if p == 1:
                    parts.append(f"x{i + 1}")
                elif p > 1:
                    parts.append(f"x{i + 1}^{p}")
            names.append("*".join(parts))
        if self.trig:
            w = self.trig_frequency
            tag = f"{w:g}*" if w != 1.0 else ""
            names += [f"sin({tag}x{i + 1})" for i in range(self.dimension)]
            names += [f"cos({tag}x{i + 1})" for i in range(self.dimension)]
        return names

    def evaluate(self, points) -> np.ndarray:
        """Feature matrix of shape ``(n_points, n_features)``."""
        pts = as_points(points, self.dimension)
        cols = [np.prod(pts ** np.asarray(e), axis=1) for e in self._exponents]
        if self.trig:
            w = self.trig_frequency
            cols += [np.sin(w * pts[:, i]) for i in range(self.dimension)]
            cols += [np.cos(w * pts[:, i]) for i in range(self.dimension)]
        return np.column_stack(cols)


@dataclass(frozen=True, eq=False)
class DictionaryModel:
    """Fitted dictionary regression: ``(n_features, m)`` coefficients."""

    dictionary: Dictionary
    coefficients: np.ndarray
    threshold: float


def dict_fit(
    dictionary: Dictionary,
    data: Dataset,
    threshold: float = 0.05,
    n_sweeps: int = 10,
) -> DictionaryModel:
    """Sequentially thresholded least squares over the feature library.

    Per component: least-squares fit, then up to ``n_sweeps`` rounds of
    zeroing coefficients with ``|c| < threshold`` and refitting on the
    surviving features. Sweeps stop early once the active set stabilizes,
    so extra sweeps change nothing. An empty surviving set yields a zero
    column and a warning.
    """
    if n_sweeps < 1:
        raise ConfigError(f"n_sweeps must be at least 1, got {n_sweeps}")
    if threshold < 0:
        raise ConfigError(f"threshold must be nonnegative, got {threshold}")
    if data.d != dictionary.dimension:
        raise DimensionError(
            f"data dimension {data.d} does not match dictionary dimension {dictionary.dimension}"
        )
    phi = dictionary.evaluate(data.points)
    values = data.values if data.values.ndim == 2 else data.values[:, None]
    n_f, m = phi.shape[1], values.shape[1]
    coeff = np.zeros((n_f, m))
    for j in range(m):
        y = values[:, j]
        c = np.linalg.lstsq(phi, y, rcond=None)[0]
        for _ in range(n_sweeps):
            active = np.abs(c) >= threshold
            if not active.any():
                warnings.warn(
                    f"component {j}: all coefficients fell below threshold {threshold}; "
                    "returning zero model",
                    UserWarning,
                    stacklevel=2,
                )
                c = np.zeros(n_f)
                break
            c_new = np.zeros(n_f)
            c_new[active] = np.linalg.lstsq(phi[:, active], y, rcond=None)[0]
            c = c_new
            if np.array_equal(np.abs(c_new) >= threshold, active):
                break
        coeff[:, j] = c
    return DictionaryModel(dictionary=dictionary, coefficients=coeff, threshold=float(threshold))


def dict_predict(model: DictionaryModel, x) -> np.ndarray:
    """Model prediction at one point; returns a vector of length m."""
    phi = model.dictionary.evaluate(np.asarray(x, dtype=float)[None, :])
    return (phi @ model.coefficients)[0]


def dict_predict_batch(model: DictionaryModel, points) -> np.ndarray:
    """Model predictions at many points; shape ``(n_points, m)``."""
    return model.dictionary.evaluate(points) @ model.coefficients
