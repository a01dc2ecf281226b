"""Nested wall-clock spans recorded from outside the library.

The traced pass of every workload wraps calls into the library's
public functions with :meth:`Tracer.span`, or wraps methods of objects
the benchmark itself constructed with :meth:`Tracer.wrap`.  No library
code is edited.  Spans nest: a span's *self* time is its duration minus
the time of the spans opened inside it.  The self times of all spans of
one pass therefore never overlap, and the pass's wall time minus their
sum is the unattributed remainder the benchmark reports as ``other_s``.
Where a layer times its own stages (the engine's runner keeps span
timers), :meth:`Tracer.record` files those timings as child spans of
the span around the call.
"""

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, DefaultDict, Iterable, Iterator, List


class Tracer:
    """Self time and per-call durations of named spans."""

    def __init__(self) -> None:
        self.self_s: DefaultDict[str, float] = defaultdict(float)
        self.calls: DefaultDict[str, List[float]] = defaultdict(list)
        # One accumulator of child-span time per open span.
        self._open: List[float] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._open.append(0.0)
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            children = self._open.pop()
            self.self_s[name] += elapsed - children
            self.calls[name].append(elapsed)
            if self._open:
                self._open[-1] += elapsed

    def record(self, name: str, seconds: float) -> None:
        """Add ``seconds`` timed elsewhere as self time of a child span
        ``name`` of the span now open (or as a top-level span)."""
        self.self_s[name] += seconds
        self.calls[name].append(seconds)
        if self._open:
            self._open[-1] += seconds

    def wrap(self, obj: Any, method: str, name: str) -> None:
        """Time every later call of ``obj.method`` as span ``name``."""
        bound: Callable[..., Any] = getattr(obj, method)

        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return bound(*args, **kwargs)

        setattr(obj, method, timed)

    def iterate(self, items: Iterable[Any], name: str) -> Iterator[Any]:
        """Yield from ``items``, timing each step of the iterator."""
        iterator = iter(items)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item

    def total(self, *names: str) -> float:
        """Summed self time of the named spans."""
        return sum(self.self_s.get(name, 0.0) for name in names)

    def attributed(self) -> float:
        """Summed self time of every span recorded."""
        return sum(self.self_s.values())
