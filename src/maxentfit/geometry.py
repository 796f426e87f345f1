"""Node sets, point coercion, and convex-hull membership tests.

Basis nodes anchor every downstream computation: a query point is usable
only if it lies inside the convex hull of the node set. Membership is
resolved here, up front, instead of letting the dual basis solver diverge
on an infeasible query. The hull is derived from the nodes alone: when
every corner of their bounding box is a node, the hull is that box and a
bound check decides; otherwise a small linear feasibility program does.
scipy is imported only when such a program runs.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import AugmentationWarning, ConfigError, DimensionError, FitError

#: Default absolute tolerance, in node coordinates, for hull membership.
DEFAULT_HULL_TOL = 1e-9

# Weight-space margin separating a strictly positive convex combination
# (interior) from one that is forced to use a zero weight (boundary).
_WEIGHT_MARGIN = 1e-9

# Augmentation candidates closer than this to an existing node are duplicates.
_DUPLICATE_TOL = 1e-12

# 1e-10 is the tightest tolerance the HiGHS backend accepts.
_LP_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


class HullLocation(Enum):
    """Classification of a point against the convex hull of a node set."""

    INTERIOR = "interior"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def as_point(x, d: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float vector, optionally checking length."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size < 1:
        raise DimensionError(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DimensionError("point has non-finite entries")
    if d is not None and p.size != d:
        raise DimensionError(f"point has dimension {p.size}, expected {d}")
    return p


def as_points(x, d: int, name: str = "points") -> np.ndarray:
    """Coerce ``x`` to an ``(m, d)`` float array; a vector is ``m`` 1-D points."""
    pts = np.asarray(x, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] != d:
        raise DimensionError(f"{name} must have shape (m, {d}), got {pts.shape}")
    return pts


@dataclass(frozen=True, eq=False)
class NodeSet:
    """Ordered basis nodes spanning the approximation domain.

    Parameters
    ----------
    nodes : (n, d) array_like
        Node coordinates, one row per node. At least ``d + 1`` nodes are
        required so the hull can have nonempty interior.

    Membership tests use a bound check instead of the feasibility LP when
    the hull is the nodes' bounding box (see ``_hull_box``).
    """

    nodes: np.ndarray
    # (lo, hi) of the bounding box when it is the hull, else None.
    _box: tuple | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        if nodes.ndim != 2:
            raise DimensionError(f"nodes must be a 2-D array, got shape {nodes.shape}")
        n, d = nodes.shape
        if d < 1:
            raise DimensionError("node dimension must be at least 1")
        if n < d + 1:
            raise DimensionError(f"need at least d+1 = {d + 1} nodes, got {n}")
        if not np.all(np.isfinite(nodes)):
            raise DimensionError("nodes contain non-finite values")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_box", _hull_box(nodes))

    @property
    def n(self) -> int:
        return self.nodes.shape[0]

    @property
    def d(self) -> int:
        return self.nodes.shape[1]


def _hull_box(nodes: np.ndarray):
    """``(lo, hi)`` of the bounding box if it equals the hull, else None.

    The hull lies inside the box, and a box corner inside the hull is an
    extreme point of it, hence a node; so the two are equal exactly when
    every corner is a node (tensor grids, and grids augmented in-box). Corners are compared by
    value as tuples, so ``-0.0`` matches ``0.0``. With fewer than ``2**d``
    nodes the corners cannot all be present, so high ``d`` never enumerates
    them. A box that is flat along some axis is left to the LP, which
    resolves membership within the nodes' affine span.
    """
    n, d = nodes.shape
    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    if n < 2**d or not np.all(lo < hi):
        return None
    present = set(map(tuple, nodes.tolist()))
    if all(c in present for c in itertools.product(*zip(lo.tolist(), hi.tolist()))):
        return lo, hi
    return None


def hull_weights(nodes: NodeSet, x, tol: float = DEFAULT_HULL_TOL):
    """Classify ``x`` against ``Conv(nodes)`` and return certifying weights.

    Solves the linear program

        max s   s.t.   sum(w) = 1,   |nodes^T w - x| <= tol per coordinate,
                       w_i >= s,   w_i >= 0

    The optimum ``s*`` is the best achievable minimum weight: ``s* > 0``
    certifies a strictly positive convex combination (interior) and
    ``s* = 0`` a combination that needs a zero weight (boundary).
    Infeasibility means no convex combination reproduces ``x`` within
    ``tol``: ``x`` is outside. Any other unsuccessful end of the LP (HiGHS
    numerical difficulties, an iteration limit) decides nothing and raises
    :class:`FitError`.

    Returns
    -------
    location : HullLocation
    weights : (n,) ndarray or None
        Convex weights with ``sum(w) = 1`` and reproduction error at most
        ``tol``; ``None`` when ``x`` is outside.
    """
    from scipy.optimize import linprog

    x = as_point(x, nodes.d)
    if not tol > 0:
        raise ConfigError(f"hull tolerance must be positive, got {tol}")
    n, d = nodes.n, nodes.d
    pts = nodes.nodes
    # The optimizer saturates the reproduction slack; shrink it slightly so
    # returned certificates satisfy the public <= tol bound despite LP
    # arithmetic rounding.
    slack = tol * (1.0 - 1e-6)
    # Variables: [w_1 .. w_n, s]; maximize s.
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    b_eq = np.ones(1)
    a_ub = np.vstack(
        [
            np.hstack([pts.T, np.zeros((d, 1))]),
            np.hstack([-pts.T, np.zeros((d, 1))]),
            np.hstack([-np.eye(n), np.ones((n, 1))]),
        ]
    )
    b_ub = np.concatenate([x + slack, slack - x, np.zeros(n)])
    bounds = [(0.0, None)] * n + [(None, None)]
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
        options=_LP_OPTIONS,
    )
    if res.status == 2:  # infeasible
        return HullLocation.OUTSIDE, None
    if not res.success:
        raise FitError(f"hull LP failed with HiGHS status {res.status}: {res.message}")
    s = float(res.x[-1])
    w = res.x[:n]
    if s > _WEIGHT_MARGIN:
        return HullLocation.INTERIOR, w
    return HullLocation.BOUNDARY, w


def in_hull(nodes: NodeSet, x, tol: float = DEFAULT_HULL_TOL) -> HullLocation:
    """Locate ``x`` relative to ``Conv(nodes)`` within absolute tolerance ``tol``."""
    if nodes._box is None:
        return hull_weights(nodes, x, tol)[0]
    x = as_point(x, nodes.d)
    if not tol > 0:
        raise ConfigError(f"hull tolerance must be positive, got {tol}")
    lo, hi = nodes._box
    if np.any(x < lo - tol) or np.any(x > hi + tol):
        return HullLocation.OUTSIDE
    if np.all(x > lo + tol) and np.all(x < hi - tol):
        return HullLocation.INTERIOR
    return HullLocation.BOUNDARY


def padded_bounds(points: np.ndarray, pad_fraction: float) -> list:
    """Bounding box of ``points`` widened by ``pad_fraction`` of its extent per axis.

    An axis of zero extent (a conserved coordinate, a constant column) is
    widened by ``pad_fraction * max(1, |value|)`` instead; ``pad_fraction``
    0 gives the tight box.
    """
    if not pad_fraction >= 0:
        raise ConfigError(f"pad_fraction must be nonnegative, got {pad_fraction}")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    floor = pad_fraction * np.maximum(1.0, np.abs(0.5 * (lo + hi)))
    pad = np.where(hi > lo, pad_fraction * (hi - lo), floor)
    return [[float(l - p), float(h + p)] for l, h, p in zip(lo, hi, pad)]


def grid_nodes(bounds, counts) -> NodeSet:
    """Tensor-product grid of nodes, endpoints included on every axis.

    Parameters
    ----------
    bounds : sequence of (low, high)
        Domain extent per dimension; ``low < high`` required.
    counts : sequence of int
        Nodes per axis; at least 2, so the hull spans every axis.

    Returns
    -------
    NodeSet
        ``prod(counts)`` nodes in row-major order (first axis slowest).
    """
    bounds = list(bounds)
    counts = list(counts)
    if len(bounds) == 0 or len(bounds) != len(counts):
        raise ConfigError(
            f"bounds and counts must be non-empty and of equal length, "
            f"got {len(bounds)} and {len(counts)}"
        )
    axes = []
    for i, ((lo, hi), cnt) in enumerate(zip(bounds, counts)):
        lo, hi = float(lo), float(hi)
        cnt = int(cnt)
        if not lo < hi:
            raise ConfigError(f"axis {i}: require low < high, got ({lo}, {hi})")
        if cnt < 2:
            raise ConfigError(
                f"axis {i}: need at least 2 nodes, got {cnt} "
                "(hull would be degenerate along that axis)"
            )
        axes.append(np.linspace(lo, hi, cnt))
    mesh = np.meshgrid(*axes, indexing="ij")
    return NodeSet(np.stack([m.ravel() for m in mesh], axis=-1))


def augment_nodes(grid: NodeSet, data_points, k: int, seed: int = 0) -> NodeSet:
    """Extend ``grid`` with ``k`` data points chosen by farthest-point subsampling.

    Greedy maximin: each pick maximizes the minimum distance to all nodes
    chosen so far (grid included), spreading the extra nodes over the region
    the data actually visits. ``seed`` fixes the candidate scan order used to
    break exact distance ties; the selection is fully deterministic for a
    given seed. Candidates within 1e-12 of an existing node are skipped and
    replaced by the next-best candidate; if fewer than ``k`` distinct
    candidates exist, the result is shorter and an AugmentationWarning is
    issued.
    """
    pts = as_points(data_points, grid.d, "data points")
    if not np.all(np.isfinite(pts)):
        raise DimensionError("data points contain non-finite values")
    if k < 0 or k > len(pts):
        raise ConfigError(f"k must be in [0, {len(pts)}], got {k}")
    if k == 0:
        return grid

    order = np.random.default_rng(seed).permutation(len(pts))
    cand = pts[order]
    # Squared distances summed per axis: no (m, n, d) temporary.
    sq = sum((cand[:, i, None] - grid.nodes[:, i]) ** 2 for i in range(grid.d))
    min_dist = np.sqrt(sq.min(axis=1))

    chosen: list[np.ndarray] = []
    for _ in range(k):
        j = int(np.argmax(min_dist))
        if min_dist[j] <= _DUPLICATE_TOL:
            break
        chosen.append(cand[j])
        dist_new = np.linalg.norm(cand - cand[j], axis=1)
        min_dist = np.minimum(min_dist, dist_new)
        min_dist[j] = -np.inf
    if len(chosen) < k:
        warnings.warn(
            f"requested {k} augmentation nodes but only {len(chosen)} distinct "
            "candidates were available",
            AugmentationWarning,
            stacklevel=2,
        )
    if not chosen:
        return grid

    return NodeSet(np.vstack([grid.nodes] + chosen))
