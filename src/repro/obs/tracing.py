"""Structured tracing: spans with ids/parent-ids, exported as JSONL.

A :class:`Tracer` collects :class:`Span` records for one logical trace —
a CLI scan, or the lifetime of a serve process.  Instrumented code does
not talk to a process global; the tracer is threaded explicitly through
the call path (``ScanEngine.scan_sources(..., tracer=...)``).  Every span
is recorded in the process that owns the tracer: extraction-pool workers
are not traced, and their time shows as the parent's ``scan/extract``.

:func:`trace_span` is the single timing primitive for the whole codebase
(``perf.timing`` and the ``scan --profile`` stage dicts are built on it):
it always measures a monotonic ``duration_s``, and records a span only
when a tracer is supplied.  Nesting is tracked per-thread, so stage spans
opened inside a worker thread parent correctly without explicit wiring;
cross-thread edges pass ``parent_id`` explicitly.

The JSONL export writes one span per line::

    {"trace_id": ..., "span_id": ..., "parent_id": ..., "name": ...,
     "start_unix_s": ..., "duration_s": ..., "attrs": {...}}

``parent_id`` is ``null`` for root spans; the parent/child ids let a
reader reconstruct the full pipeline tree (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["Span", "Tracer", "trace_span"]


class Span:
    """One timed operation: a name, ids, wall-clock start and duration.

    Instances are yielded by :func:`trace_span`; after the ``with`` block
    exits, :attr:`duration_s` holds the elapsed monotonic seconds (also
    valid when no tracer recorded the span).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_unix_s",
        "duration_s",
        "attrs",
    )

    def __init__(
        self,
        name: str,
        trace_id: str = "",
        span_id: str = "",
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_unix_s = 0.0
        self.duration_s = 0.0
        self.attrs: Dict[str, Any] = dict(attrs or {})

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (one JSONL line of the trace file)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_unix_s": self.start_unix_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects finished spans for one trace; thread-safe.

    ``jsonl_path`` optionally names a file that :meth:`flush` appends
    drained spans to (the serve layer flushes from its batch worker
    threads and at shutdown).
    """

    def __init__(
        self,
        trace_id: str = "trace",
        jsonl_path: Optional[Union[str, Path]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._lock = threading.Lock()
        self._io_lock = threading.Lock()
        self._counter = itertools.count(1)
        self._finished: List[Span] = []
        self._local = threading.local()

    # -- span lifecycle ------------------------------------------------------
    def _next_id(self) -> str:
        """Allocate the next span id (a per-tracer sequence)."""
        return f"{next(self._counter):04d}"

    def _stack(self) -> List[Span]:
        """This thread's stack of open spans (for implicit parenting)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    def _begin(self, span: Span, parent_id: Optional[str]) -> None:
        """Assign ids, resolve the parent and push onto the thread stack."""
        span.trace_id = self.trace_id
        span.span_id = self._next_id()
        span.parent_id = parent_id if parent_id is not None else self.current_span_id()
        span.start_unix_s = time.time()
        self._stack().append(span)

    def _finish(self, span: Span) -> None:
        """Pop the span from the thread stack and archive it."""
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._finished.append(span)

    def record(
        self,
        name: str,
        duration_s: float,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-measured span (for cross-thread callbacks)."""
        span = Span(name, attrs=attrs)
        span.trace_id = self.trace_id
        span.span_id = self._next_id()
        span.parent_id = parent_id
        span.start_unix_s = time.time() - duration_s
        span.duration_s = float(duration_s)
        with self._lock:
            self._finished.append(span)
        return span

    # -- export --------------------------------------------------------------
    def export(self, drain: bool = False) -> List[Dict[str, Any]]:
        """Finished spans as dicts; ``drain=True`` also clears the buffer."""
        with self._lock:
            spans = [span.as_dict() for span in self._finished]
            if drain:
                self._finished.clear()
        return spans

    def write_jsonl(self, path: Union[str, Path]) -> int:
        """Write every finished span to ``path`` (one JSON dict per line)."""
        spans = self.export()
        target = Path(path)
        with target.open("w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)

    def flush(self) -> int:
        """Append drained spans to :attr:`jsonl_path` (no-op when unset).

        Serialised under an IO lock: several serve lane workers may flush
        the shared tracer concurrently, and interleaved appends would
        corrupt the JSONL stream.
        """
        if self.jsonl_path is None:
            return 0
        with self._io_lock:
            spans = self.export(drain=True)
            if not spans:
                return 0
            with self.jsonl_path.open("a", encoding="utf-8") as handle:
                for span in spans:
                    handle.write(json.dumps(span, sort_keys=True) + "\n")
        return len(spans)


class trace_span:
    """Context manager timing one operation and recording it as a span.

    ``tracer`` may be ``None``: the block is still timed (the yielded
    :class:`Span` gets a valid ``duration_s``) but nothing is recorded —
    this is what makes ``trace_span`` the single timing pathway shared by
    profiling, benchmarking and tracing.

    Example::

        with trace_span(tracer, "scan/extract", designs=4) as span:
            rows = extract(...)
        report.stage_seconds["extract"] = span.duration_s
    """

    __slots__ = ("_tracer", "_span", "_parent_id", "_t0")

    def __init__(
        self,
        tracer: Optional[Tracer],
        name: str,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        self._tracer = tracer
        self._span = Span(name, attrs=attrs)
        self._parent_id = parent_id
        self._t0 = 0.0

    def __enter__(self) -> Span:
        if self._tracer is not None:
            self._tracer._begin(self._span, self._parent_id)
        self._t0 = time.perf_counter()
        return self._span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._span.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            self._span.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        if self._tracer is not None:
            self._tracer._finish(self._span)
