"""In-memory span tracing by wrapping functions at their call sites.

A site names a module attribute (``fairhome.runner`` / ``fit_mlp``) or a
class attribute (``fairhome.model`` / ``MlpModel.predict_proba``). Installing
a site replaces that attribute with a wrapper that records one span per call
and passes return values and exceptions through unchanged; uninstalling puts
the original back. A site whose module or attribute does not exist is
recorded as absent, so a function that a later version removes or renames
reports 0 calls instead of failing the run.

The program is single-threaded, so one stack of open spans gives every span
its parent, and a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import dataclass


class Span:
    """One call of a traced function; ``parent`` indexes the enclosing span."""

    __slots__ = ("name", "parent", "start", "end", "error", "tag")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.error = False
        self.tag = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, index: int, base: int) -> dict:
        """JSON record with ids counted from span ``base`` (its own index is ``index``)."""
        parent = None if self.parent is None else self.parent - base
        return {"id": index - base, "parent": parent, "name": self.name, "start": self.start,
                "end": self.end, "error": self.error, "tag": self.tag}


@dataclass(frozen=True)
class Site:
    """``module:attr`` call site whose calls count under ``name``.

    ``tag``, when given, maps ``(args, kwargs, result)`` to a small value kept
    on the span (a row count, a mutant count) for the per-layer ratios.
    """

    name: str
    module: str
    attr: str
    tag: object = None


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._open: list = []

    def wrap(self, name: str, fn, tag=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = Span(name, tracer._open[-1] if tracer._open else None, tracer.clock())
            tracer.spans.append(span)
            tracer._open.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = tracer.clock()
                tracer._open.pop()
            if tag is not None:
                span.tag = _safe_tag(tag, args, kwargs, result)
            return result

        return traced

    def install(self, sites) -> "Installation":
        return Installation(self, sites)


def _safe_tag(tag, args, kwargs, result):
    # a tag is bookkeeping for the benchmark; a signature change in the program
    # must not turn into an exception inside the program's call
    try:
        return tag(args, kwargs, result)
    except Exception:  # noqa: BLE001
        return None


def _resolve(site: Site):
    """(owner, attribute name, current value) or None when the site is absent."""
    try:
        owner = importlib.import_module(site.module)
    except ImportError:
        return None
    *path, attr = site.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        # patch only where the method is defined, so restoring leaves
        # subclasses exactly as they were
        value = vars(owner).get(attr)
    else:
        value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Installation:
    """Context manager that patches every present site and restores it on exit."""

    def __init__(self, tracer: Tracer, sites):
        self.tracer = tracer
        self.sites = tuple(sites)
        self.absent: list = []
        self._patched: list = []

    def __enter__(self):
        for site in self.sites:
            found = _resolve(site)
            if found is None:
                self.absent.append(site)
                continue
            owner, attr, original = found
            setattr(owner, attr, self.tracer.wrap(site.name, original, site.tag))
            self._patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


def self_times(spans) -> list:
    """Per span: duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def totals_by_name(spans, key=None) -> dict:
    """name -> Totals; ``key(index)`` may rename a span (e.g. split by caller)."""
    out: dict = {}
    for i, (span, own) in enumerate(zip(spans, self_times(spans))):
        name = key(i) if key is not None else span.name
        t = out.setdefault(name, Totals())
        t.calls += 1
        t.self_s += own
        t.errors += span.error
    return out


def nearest_ancestor(spans, index: int, name: str):
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return spans[parent]
        parent = spans[parent].parent
    return None


def covered_time(spans) -> float:
    """Time inside at least one span: the summed durations of top-level spans."""
    return sum(span.duration for span in spans if span.parent is None)


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q}")
    rank = math.ceil(q / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(n: int, candidates=(99.9, 99.0, 90.0, 50.0)):
    """Highest candidate percentile with at least ten samples above it, or None."""
    for q in candidates:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return None
