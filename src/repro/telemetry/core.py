"""Telemetry collector: hierarchical spans, counters, and gauges.

The pipeline is instrumented at stage granularity (a scenario run, a
planning pass, one NLP solve, a batched simulation, a store lookup) —
never inside the per-step hot loops.  Instrumentation sites call
:func:`current` and talk to whatever collector is active:

* :class:`NullTelemetry` (the default) — every operation is a no-op and,
  crucially, allocates **zero** telemetry objects.  ``span()`` hands back
  a shared singleton context manager; ``count()``/``observe()`` return
  immediately.  ``tests/telemetry/test_telemetry_overhead.py`` proves
  this with raising-tripwire constructors, mirroring the PR-7 trace
  discipline.
* :class:`Telemetry` — records :class:`Span` rows (``perf_counter_ns``
  start/stop with parent links), monotonic counters, and value
  observations (gauges), all thread-safe so any thread can report
  without coordination.

Timing sites that must keep producing a wall-clock number even when
telemetry is off (``elapsed_seconds`` result fields) use ``stage()``,
which always returns a :class:`Stopwatch`.  The enabled path records the
stage as a span whose duration is *bitwise-derivable* from the span row:
``elapsed_seconds == (end_ns - start_ns) / 1e9`` exactly.

Telemetry never enters store signatures: enabling it changes neither
result payloads nor store keys (see docs/scenarios.md).
"""

from __future__ import annotations

import functools
import threading
from concurrent.futures import Executor
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union

__all__ = [
    "Span",
    "Stopwatch",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current",
    "activate",
    "deactivate",
    "using",
    "map_counted",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class Span:
    """One completed timed region.

    ``index`` is the span's position in the recording order; ``parent``
    is the index of the enclosing span on the same thread (or ``None``
    for a root), giving the ``scenario.run > scenario.execute > plan >
    solve`` hierarchy without any tree bookkeeping at record time.
    """

    name: str
    index: int
    parent: Optional[int]
    start_ns: int
    end_ns: int

    @property
    def elapsed_seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_dict(self) -> Dict[str, Union[str, int, None]]:
        return {
            "name": self.name,
            "index": self.index,
            "parent": self.parent,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }


class Stopwatch:
    """Bare ``perf_counter_ns`` context manager with no recording.

    This is what ``NullTelemetry.stage()`` returns: the pre-telemetry
    code paths measured ``elapsed_seconds`` with an inline
    ``time.perf_counter()`` pair, and the stopwatch is that pair as an
    object.  It is deliberately *not* a telemetry record — one is
    allocated per run/sweep, never per hot-loop iteration — so the
    allocation tripwires exclude it.
    """

    __slots__ = ("start_ns", "end_ns")

    def __init__(self) -> None:
        self.start_ns = 0
        self.end_ns = 0

    def __enter__(self) -> "Stopwatch":
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end_ns = perf_counter_ns()

    @property
    def elapsed_seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class SpanHandle(Stopwatch):
    """A stopwatch that records a :class:`Span` into its collector."""

    __slots__ = ("_telemetry", "_name", "_parent")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        super().__init__()
        self._telemetry = telemetry
        self._name = name
        self._parent: Optional[int] = None

    def __enter__(self) -> "SpanHandle":
        self._parent = self._telemetry._push()
        self.start_ns = perf_counter_ns()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end_ns = perf_counter_ns()
        self._telemetry._pop(self._name, self._parent, self.start_ns, self.end_ns)


class _NullSpan:
    """Shared no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: Singleton handed out by ``NullTelemetry.span`` — entering a disabled
#: span allocates nothing.
_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled collector: every operation is a no-op.

    ``span`` returns the shared :data:`_NULL_SPAN` singleton and
    ``count``/``observe`` return immediately, so instrumentation sites
    cost one attribute lookup and one call when telemetry is off and
    allocate no objects (proven by the tripwire tests).
    """

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def stage(self, name: str) -> Stopwatch:
        return Stopwatch()

    def count(self, name: str, value: int = 1) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None


class Telemetry:
    """Recording collector: spans with parent links, counters, gauges.

    Thread-safe: any thread of a process can record concurrently with its
    main thread.  Span parent links are per-thread (each thread keeps its
    own stack), so spans of concurrent threads never nest in each other.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_index = -1
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = {}
        self.observations: Dict[str, List[float]] = {}

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self) -> Optional[int]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            self._next_index += 1
            index = self._next_index
        stack.append(index)
        return parent

    def _pop(self, name: str, parent: Optional[int], start_ns: int, end_ns: int) -> None:
        stack = self._stack()
        index = stack.pop()
        with self._lock:
            self.spans.append(Span(name, index, parent, start_ns, end_ns))

    def span(self, name: str) -> SpanHandle:
        return SpanHandle(self, name)

    def stage(self, name: str) -> SpanHandle:
        """Like :meth:`span`, but guaranteed to expose ``elapsed_seconds``.

        Sites that feed a result field use this so the same expression —
        ``(end_ns - start_ns) / 1e9`` — produces both the recorded span
        duration and the result's ``elapsed_seconds`` (bitwise equal).
        """
        return SpanHandle(self, name)

    # -- counters / gauges --------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            self.observations.setdefault(name, []).append(value)

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Plain-data view of everything recorded so far."""
        with self._lock:
            return {
                "spans": [span.to_dict() for span in sorted(self.spans, key=lambda s: s.index)],
                "counters": dict(sorted(self.counters.items())),
                "observations": {k: list(v) for k, v in sorted(self.observations.items())},
            }

    def stage_timings(self) -> Dict[str, Dict[str, float]]:
        """Aggregate spans by name: ``{name: {count, total_seconds}}``."""
        with self._lock:
            spans = list(self.spans)
        timings: Dict[str, Dict[str, float]] = {}
        for span in spans:
            row = timings.setdefault(span.name, {"count": 0, "total_seconds": 0.0})
            row["count"] += 1
            row["total_seconds"] += span.elapsed_seconds
        return dict(sorted(timings.items()))


#: The process-wide default collector.  Instrumentation sites resolve it
#: through :func:`current` at call time.  A collector does not cross a
#: process boundary: the comparison and multicore pools run each task
#: through :func:`map_counted`, which records it under a fresh collector
#: in the worker and counts the returned counters into the parent's.
NULL_TELEMETRY = NullTelemetry()

_ACTIVE: Union[Telemetry, NullTelemetry] = NULL_TELEMETRY


def current() -> Union[Telemetry, NullTelemetry]:
    """The active collector (the shared ``NullTelemetry`` by default)."""
    return _ACTIVE


def activate(telemetry: Telemetry) -> None:
    """Install *telemetry* as the process-wide active collector."""
    global _ACTIVE
    _ACTIVE = telemetry


def deactivate() -> None:
    """Restore the disabled default collector."""
    global _ACTIVE
    _ACTIVE = NULL_TELEMETRY


@contextmanager
def using(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Scope *telemetry* as the active collector for a ``with`` block."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


def _call_counted(function: Callable[..., _T], *args: Any) -> Tuple[_T, Dict[str, int]]:
    """``function(*args)`` under a fresh collector: the result and its counters.

    Module-level so a process pool can pickle it.  The collector's spans
    are dropped: spans describe the parent process only.
    """
    with using(Telemetry()) as telemetry:
        result = function(*args)
    return result, telemetry.counters


def map_counted(pool: Executor, function: Callable[..., _T], items: Iterable[Any]) -> Iterator[_T]:
    """``pool.map(function, items)`` that keeps the workers' counters.

    With a recording collector active, every task runs through
    :func:`_call_counted` and its counters are counted into that collector
    as its result arrives, so a ``--jobs N`` run counts what a serial run
    counts.  With telemetry off this is plain ``pool.map``.
    """
    telemetry = current()
    if not telemetry.enabled:
        yield from pool.map(function, items)
        return
    for result, counters in pool.map(functools.partial(_call_counted, function), items):
        for name, value in counters.items():
            telemetry.count(name, value)
        yield result
