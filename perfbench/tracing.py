"""In-memory spans around calls into the program's layers.

The benchmark traces the program from outside: :class:`Tracer` wraps
public entry points, and :func:`rebind` swaps every module and class
attribute that refers to an entry point for its wrapper (callers bind
names with ``from x import y``, so patching the defining module alone
would miss them).  Swapping back uses the same function with the
mapping inverted, which also restores aliases made after the swap.

Spans are kept in memory as (id, name, start, end, parent id) and
written out at the end of a run; a span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    """One timed call; ``parent_id`` is None for a top-level span."""

    span_id: int
    name: str
    start: float
    end: float
    parent_id: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans of one single-threaded run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block as a child of the innermost span."""
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        record = Span(span_id, name, self.clock(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(self, func, name: str):
        """A wrapper of ``func`` that records one span per call."""
        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def dump(self) -> list[dict]:
        """The spans as plain dicts, for writing out."""
        return [asdict(span) for span in self.spans]


def _union_length(intervals) -> float:
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id.

    The duration minus the length of the union of its children's
    intervals, each clipped to the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        if span.parent_id is not None:
            parent = by_id[span.parent_id]
            children.setdefault(span.parent_id, []).append(
                (max(span.start, parent.start), min(span.end, parent.end)))
    return {span.span_id: span.duration
            - _union_length(children.get(span.span_id, ()))
            for span in spans}


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Inclusive seconds count a recursive name once per outermost call.
    """
    own = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = out.setdefault(span.name,
                               {"calls": 0, "inclusive_s": 0.0,
                                "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[span.span_id]
        ancestor = span.parent_id
        nested = False
        while ancestor is not None:
            if by_id[ancestor].name == span.name:
                nested = True
                break
            ancestor = by_id[ancestor].parent_id
        if not nested:
            entry["inclusive_s"] += span.duration
    return out


def covered(spans: list[Span], start: float, end: float,
            exclude=lambda name: False) -> float:
    """Seconds of ``[start, end]`` inside at least one span.

    Spans whose name satisfies ``exclude`` do not count as cover.
    """
    return _union_length(
        (max(s.start, start), min(s.end, end)) for s in spans
        if not exclude(s.name) and s.end > start and s.start < end)


def _swap(value, mapping: dict):
    """``value`` with any mapped function substituted, else None."""
    if isinstance(value, (staticmethod, classmethod)):
        inner = mapping.get(value.__func__)
        return None if inner is None else type(value)(inner)
    try:
        return mapping.get(value)
    except TypeError:  # unhashable attribute values cannot be aliases
        return None


def rebind(mapping: dict, module_prefix: str) -> int:
    """Replace every alias of each ``mapping`` key by its value.

    Scans the globals of every loaded module named ``module_prefix``
    or ``module_prefix.*`` and the attributes of every class defined
    there.  Returns the number of attributes replaced.
    """
    replaced = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == module_prefix or
                                  mod_name.startswith(module_prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            new = _swap(value, mapping)
            if new is not None:
                setattr(module, attr, new)
                replaced += 1
            if isinstance(value, type) and value.__module__ == mod_name:
                for cls_attr, cls_value in list(vars(value).items()):
                    new = _swap(cls_value, mapping)
                    if new is not None:
                        setattr(value, cls_attr, new)
                        replaced += 1
    return replaced


@contextmanager
def patched(tracer: Tracer, entry_points, module_prefix: str):
    """Trace ``entry_points`` for the duration of the block.

    ``entry_points`` holds ``(function, span name)`` pairs; every alias
    of each function under ``module_prefix`` is swapped for a tracing
    wrapper and swapped back on exit.
    """
    wrappers = {func: tracer.wrap(func, name) for func, name in entry_points}
    rebind(wrappers, module_prefix)
    try:
        yield
    finally:
        rebind({w: f for f, w in wrappers.items()}, module_prefix)
