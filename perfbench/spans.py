"""In-memory spans around library calls, and the statistics the benchmark reports.

A :class:`Tracer` wraps functions so that every call records a span: name,
start, end, the span that was open when it began (its parent) and the
workload iteration it belongs to. ``patch_function`` rebinds a function in
every module that holds a reference to it, so calls made from inside the
library (``maxent.solve_basis`` calling ``in_hull``, ``cli`` calling ``fit``)
are recorded too; ``uninstall`` puts every original back.

Nothing here knows about maxentfit; ``layers.py`` says what to wrap.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager

#: A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


class Span:
    __slots__ = ("name", "start", "end", "parent", "iteration", "info")

    def __init__(self, name, start, end, parent, iteration, info=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.iteration = iteration
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped calls; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.iteration = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._clock = clock

    # -- recording ---------------------------------------------------------

    def _open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._clock(), None, parent, self.iteration))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self._clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Record a span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``on_return(args, kwargs, result)`` runs after the span has closed and
        its return value is stored as the span's ``info``; keep it cheap,
        because it still runs inside the caller's span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if on_return is not None:
                self.spans[index].info = on_return(args, kwargs, result)
            return result

        return wrapper

    # -- installing --------------------------------------------------------

    def patch_function(self, modules, original, name, on_return=None) -> int:
        """Rebind ``original`` to a recording wrapper in every module holding it.

        Returns the number of module attributes rebound.
        """
        wrapper = self.wrap(name, original, on_return)
        count = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    count += 1
        return count

    def patch_attribute(self, owner, attr, name, on_return=None) -> None:
        """Wrap one attribute, e.g. a class's ``__init__``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    def uninstall(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- span arithmetic -------------------------------------------------------

def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [span.duration - covered(kids) for span, kids in zip(spans, children)]


def ancestors(spans, index):
    """Indices of the spans enclosing ``spans[index]``, innermost first."""
    parent = spans[index].parent
    while parent is not None:
        yield parent
        parent = spans[parent].parent


# -- statistics ------------------------------------------------------------

def median(values) -> float:
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def highest_percentile(n: int, tail: int = TAIL_SAMPLES) -> float | None:
    """Highest percentile with at least ``tail`` of ``n`` samples beyond it."""
    if n <= tail:
        return None
    return 100.0 * (n - tail) / n


def tail_percentile(values, q: float, tail: int = TAIL_SAMPLES):
    """Nearest-rank percentile ``q``, lowered until ``tail`` samples lie beyond it.

    Returns ``(value, percentile_used, n)``; ``(0.0, None, 0)`` for no
    samples, and the median when there are too few samples for any tail.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return 0.0, None, 0
    top = highest_percentile(n, tail)
    if top is None:
        return median(xs), 50.0, n
    used = min(q, top)
    return xs[_rank(n, used) - 1], used, n
