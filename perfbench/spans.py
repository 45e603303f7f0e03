"""In-memory wall-clock spans for the benchmark's traced run.

A :class:`Recorder` keeps every span in a list; the run writes them out
once, when it ends.  Each span carries its name, start, end, the index of
its parent span and the id of the workload run it belongs to.

Layers nested inside one public call (query planning inside
``simulate_workload``; replay, traffic, the DES, drift and migration
inside ``PartitionedGraphService.run``) get spans of their own through
:func:`wrapped`, which swaps the callable at the binding its caller looks
up for one that records a span, and swaps it back afterwards.  No tracing
code lives in ``src/``.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in the recorder's list; -1 for a root.
    parent: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records nested spans on the wall clock; single-threaded."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        record = Span(name, time.perf_counter(), 0.0, parent, self.run_id,
                      attrs)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()


class NullRecorder:
    """The untraced run's recorder: records nothing."""

    spans: list[Span] = []

    def span(self, name: str, **attrs) -> contextlib.nullcontext:
        return contextlib.nullcontext()


def _covered(start: float, end: float,
             intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of *intervals*."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.duration - _covered(span.start, span.end, kids)
            for span, kids in zip(spans, children)]


#: ``(owner, attribute, span name, note)``: *owner* is the module or class
#: whose namespace the caller reads the callable from; *note* maps
#: ``(args, kwargs, result)`` to extra span attributes, or is ``None``.
Hook = tuple[object, str, str, Callable | None]


def _traced(recorder: Recorder, original: Callable, name: str,
            note: Callable | None) -> Callable:
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
        if note is not None:
            span.attrs.update(note(args, kwargs, result))
        return result
    return traced


@contextlib.contextmanager
def wrapped(recorder: Recorder, hooks: list[Hook]) -> Iterator[None]:
    """Record a span around every call of each hooked callable.

    The callable must be defined in *owner*'s own namespace (a
    ``KeyError`` otherwise), so a hook cannot silently bind to a name
    the caller never reads.  The originals are restored on exit.
    """
    saved: list[tuple[object, str, Callable]] = []
    try:
        for owner, attr, name, note in hooks:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _traced(recorder, original, name, note))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
