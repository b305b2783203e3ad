"""In-memory span tracer for the traced benchmark runs.

Spans are recorded only from the benchmark's own code: :meth:`Tracer.wrap`
replaces a public function or method of the program with a wrapper that
opens a span around each call and records counts at the same boundary,
and :meth:`Tracer.restore` puts the originals back.  Spans stay in memory
and are written as JSONL once the run ends.

A span's self time is its duration minus the time its direct children
cover; summing self times per name gives each layer's share without
counting nested work twice.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Spans (name, start, end, parent, request id) plus boundary counts."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    # -- spans ---------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def start(self, name: str, rid: Optional[str] = None) -> int:
        stack = self._stack()
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "rid": rid or self.run_id,
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span["id"]

    def end(self, span_id: int) -> float:
        span = self.spans[span_id]
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == span_id:
            stack.pop()
        duration = span["end"] - span["start"]
        if duration > self.maxima[span["name"]]:
            self.maxima[span["name"]] = duration
        return duration

    def record(self, name: str, start: float, end: float, rid: str) -> None:
        """Add a finished top-level span (client requests timed elsewhere)."""
        with self._lock:
            self.spans.append(
                {"id": len(self.spans), "name": name, "start": start, "end": end,
                 "parent": None, "rid": rid}
            )

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # -- wrapping public functions ------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        counter: Optional[Callable[[tuple, Any], Dict[str, float]]] = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``counter(args, result)`` returns counts recorded at the same
        boundary (``{name: increment}``).  Works for module functions and
        for methods set on a class.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        call = original
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = tracer.start(name)
            try:
                result = call(*args, **kwargs)
            finally:
                tracer.end(span_id)
            tracer.count(name + ".calls")
            if counter is not None:
                for key, value in counter(args, result).items():
                    tracer.count(key, value)
            return result

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def self_times(self, root: Optional[int] = None) -> Dict[str, float]:
        """Sum of self time per span name (optionally only under ``root``)."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        keep = None
        if root is not None:
            keep = {root}
            for span in self.spans:  # spans are appended parent-first
                if span["parent"] in keep:
                    keep.add(span["id"])
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span["end"] is None or (keep is not None and span["id"] not in keep):
                continue
            own = span["end"] - span["start"] - child_time[span["id"]]
            totals[span["name"]] += own
        return dict(totals)

    def duration(self, span_id: int) -> float:
        span = self.spans[span_id]
        return span["end"] - span["start"]

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
