"""Micro-batching queue: coalesce concurrent scan requests into one forward pass.

Per-request inference is wasteful: a batch-1 CNN forward pass is almost
all fixed overhead (layer setup, im2col, the conformal ``searchsorted``
calls), and with the result cache attached every request also pays a
lock + read-merge-write cache flush.  :class:`MicroBatcher` amortises
both: the front-end enqueues each request's designs with a completion
callback and moves on, a single worker thread takes everything already
queued when it is free (up to ``max_batch`` designs), runs **one**
:meth:`ScanEngine.scan_sources` call for the whole batch — one
vectorized forward pass, one ``searchsorted`` p-value call, one cache
flush — and hands each request back exactly its own slice of the
records through that callback.

By default the worker dispatches on idle: it never holds a batch open,
so a request reaching an idle worker starts at once, and batches grow
only from the backlog that queued while the previous batch ran — one
request when idle, up to ``max_batch`` designs under saturation.  A positive
``batch_window_s`` opts into holding each batch open for stragglers,
trading latency for coalescing.

Because every scan funnels through the one worker thread, the engine and
its cache tiers are only ever touched single-threaded — the batcher is
also the concurrency guard that lets one process-wide
:class:`ScanEngine` serve every request.

Batch assembly is copy-lean end to end: the engine preallocates each
micro-batch's feature matrices once and fills slices in place (feature
rows served from the model-independent feature store are read-only views
into its packed shards, copied exactly once into the batch), and on the
way out each request receives a zero-copy slice of the shared record
list.  After a hot reload the feature tier stays warm — the registry owns
it, not the swapped engine — so post-reload batches of known designs skip
straight to the forward pass.

Determinism: records for a request are produced by the same code path as
a serial engine scan (the engine guarantees record order matches input
order and that batch size does not change p-values), so a served scan is
byte-identical to ``python -m repro scan`` on the same sources.  Requests
asking for different confidence levels are grouped and scanned per level
within the batch — p-values are level-independent, but
:class:`repro.core.TrojanDecision` regions are not, so levels never mix
inside one engine call.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple
from collections import deque

from ..core.results import ScanRecord
from ..engine.scan import ScanReport, ScanSource
from ..faults import Deadline
from .metrics import ServiceMetrics

#: Default window (seconds) the worker keeps a batch open for stragglers:
#: none, so a free worker dispatches whatever is queued at once.
DEFAULT_BATCH_WINDOW_S = 0.0

#: With a window set, the batch closes early once this long (seconds)
#: passes with no new arrival.
_QUIESCENCE_S = 0.002

#: Default cap on designs per micro-batch (the forward-pass batch size).
DEFAULT_MAX_BATCH = 64

#: Error string a request sheds with when its deadline expired while it
#: waited in the queue.  Async ``on_done`` callbacks receive it verbatim
#: (they get ``(None, error_str)``, not an exception) and compare against
#: this constant to map the shed to a 504 rather than a 500.
DEADLINE_ERROR = "deadline exceeded before scan"


class MicroBatchError(RuntimeError):
    """Raised to the submitting thread when its request was refused."""


class BatcherClosed(MicroBatchError):
    """Raised when submitting to a batcher that is shutting down."""


class BatcherOverloaded(MicroBatchError):
    """Raised when the queue is at its admission bound (``max_queue_depth``)."""


class DeadlineExceeded(MicroBatchError):
    """Raised when a request's deadline expired before its batch ran."""


@dataclass
class BatchResult:
    """What one request gets back from its ride in a micro-batch."""

    records: List[ScanRecord]
    n_cache_hits: int
    n_errors: int
    #: Total designs in the micro-batch this request shared (>= its own).
    batch_designs: int
    #: Requests coalesced into that micro-batch (>= 1).
    batch_requests: int
    #: Confidence level the decisions were built at.
    confidence_level: float
    #: Fingerprint of the model that actually scanned this batch (set by
    #: scan callables that know it, e.g. the serving layer; "" otherwise).
    #: Responses must report this — not "the current model" — or a hot
    #: reload between scan and response mis-attributes the records.
    fingerprint: str = ""


@dataclass
class _Pending:
    """One enqueued request waiting for its batch to execute."""

    sources: List[ScanSource]
    confidence: Optional[float]
    #: Optional request deadline; an expired request is shed with
    #: :data:`DEADLINE_ERROR` before the forward pass instead of wasting
    #: batch capacity on an answer nobody is waiting for.
    deadline: Optional[Deadline] = None
    result: Optional[BatchResult] = None
    error: Optional[str] = None
    #: Completion callback: invoked from the worker thread once ``result``
    #: or ``error`` is set.
    on_done: Optional[Callable[[Optional[BatchResult], Optional[str]], None]] = None

    def finish(self) -> None:
        """Mark this request complete and notify its completion callback."""
        if self.on_done is not None:
            try:
                self.on_done(self.result, self.error)
            except Exception:  # a bad callback must not kill the worker
                logging.getLogger(__name__).exception(
                    "micro-batch completion callback failed"
                )


class MicroBatcher:
    """Single-worker request coalescer in front of a batched scan callable.

    Parameters
    ----------
    scan_fn:
        ``(sources, confidence) -> ScanReport`` — typically a bound
        engine/service method.  Called only from the worker thread.
    batch_window_s:
        How long the worker may hold a batch open for stragglers after
        taking its first request.  ``0`` (the default) dispatches on idle:
        the batch is whatever is already queued, so a lone request never
        waits and batches grow only from the backlog that built up while
        the previous batch ran.  A positive window holds the batch until
        it runs out, or until 2 ms pass with no new arrival.
    max_batch:
        Design cap per batch; the worker closes a batch early once adding
        the next request would exceed it.  A single request larger than
        the cap still runs (whole, in its own batch) — requests are never
        split across forward passes.
    metrics:
        Optional :class:`ServiceMetrics` that receives per-batch stats.
    after_batch:
        Optional callable invoked (from the worker thread) after each
        batch's results have been handed back — i.e. off the response
        critical path.  The serving layer hangs the deferred result-cache
        flush here, so requesters never wait on disk I/O.
    max_queue_depth:
        Admission bound: requests submitted while this many are already
        queued (accepted but not yet collected into a batch) raise
        :class:`BatcherOverloaded` instead of growing the queue without
        bound.  ``None`` (the default) disables the gate.
    """

    def __init__(
        self,
        scan_fn: Callable[[List[ScanSource], Optional[float]], ScanReport],
        batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
        max_batch: int = DEFAULT_MAX_BATCH,
        metrics: Optional[ServiceMetrics] = None,
        after_batch: Optional[Callable[[], None]] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if not (math.isfinite(batch_window_s) and batch_window_s >= 0):
            raise ValueError("batch_window_s must be finite and non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be at least 1 (or None)")
        self.scan_fn = scan_fn
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        self.metrics = metrics
        self.after_batch = after_batch
        self.max_queue_depth = max_queue_depth
        self._cond = threading.Condition()
        self._queue: Deque[_Pending] = deque()
        self._in_flight = 0
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    @property
    def in_flight_requests(self) -> int:
        """Requests accepted but not yet answered (queued or mid-batch).

        Introspection only (tests, drain assertions): the count is stale
        the moment it is read.
        """
        with self._cond:
            return self._in_flight

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet collected into a batch.

        The quantity the admission gate bounds; introspection only — the
        count is stale the moment it is read.
        """
        with self._cond:
            return len(self._queue)

    def _admit(self, pending: _Pending) -> None:
        """Enqueue one request under the lock, enforcing the admission gate."""
        with self._cond:
            if self._closed:
                raise BatcherClosed("scan service is shutting down")
            if (
                self.max_queue_depth is not None
                and len(self._queue) >= self.max_queue_depth
            ):
                raise BatcherOverloaded(
                    f"scan queue is full ({self.max_queue_depth} requests waiting)"
                )
            self._queue.append(pending)
            self._in_flight += 1
            self._cond.notify_all()

    # -- submitting ----------------------------------------------------------
    def submit_nowait(
        self,
        sources: Sequence[ScanSource],
        confidence: Optional[float] = None,
        on_done: Optional[
            Callable[[Optional[BatchResult], Optional[str]], None]
        ] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Enqueue designs without blocking; completion arrives via callback.

        Built for callers that must never block — the event-loop
        front-end enqueues here and keeps multiplexing sockets.
        ``on_done(result, error)`` is invoked from the **worker thread**
        once the batch executed (exactly one of the two arguments is
        non-``None``; a request shed for an expired ``deadline`` gets
        ``error == DEADLINE_ERROR``); it must be quick and must not raise.
        Raises :class:`BatcherClosed` / :class:`BatcherOverloaded` /
        :class:`MicroBatchError` synchronously only for requests that
        never made it into the queue.
        """
        if not sources:
            raise MicroBatchError("a scan request needs at least one source")
        pending = _Pending(
            sources=list(sources),
            confidence=confidence,
            deadline=deadline,
            on_done=on_done,
        )
        self._admit(pending)

    # -- lifecycle -----------------------------------------------------------
    def close(self, timeout: Optional[float] = 30.0) -> bool:
        """Stop accepting requests, drain the queue, stop the worker.

        Requests already enqueued are still scanned (graceful drain); new
        :meth:`submit_nowait` calls raise :class:`BatcherClosed`
        immediately.  Idempotent.  Returns ``True`` when the worker
        actually finished within ``timeout`` — callers that share state
        with the worker (e.g. the serving layer's cache flush) must check
        this before touching it.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
        self._worker.join(timeout)
        return not self._worker.is_alive()

    @property
    def closed(self) -> bool:
        """Whether the batcher has begun shutting down."""
        return self._closed

    # -- worker --------------------------------------------------------------
    def _collect_batch(self) -> List[_Pending]:
        """Block for the first request, then take the backlog behind it.

        With no window (the default) the batch is whatever is queued the
        moment the worker is free: it never waits for more.  Concurrent
        load still coalesces, because requests that arrive while a batch
        runs queue up and leave together in the next one.

        With a window the worker also holds the batch for stragglers, in
        short quiescence slices: it closes the batch as soon as one slice
        passes with no new arrival, or when the window runs out.
        Concurrent clients send in waves (they all unblock when the
        previous batch's responses land), so arrivals cluster within a
        couple of milliseconds.

        Returns the batch to execute, or an empty list when the batcher
        closed with nothing left queued.
        """
        with self._cond:
            while not self._queue and not self._closed:
                self._cond.wait()
            if not self._queue:
                return []  # closed and drained
            batch = [self._queue.popleft()]
            n_designs = len(batch[0].sources)
            deadline = time.monotonic() + self.batch_window_s
            while n_designs < self.max_batch:
                if self._queue:
                    if n_designs + len(self._queue[0].sources) > self.max_batch:
                        break
                    nxt = self._queue.popleft()
                    batch.append(nxt)
                    n_designs += len(nxt.sources)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    break  # no window (dispatch on idle), or it ran out
                self._cond.wait(min(remaining, _QUIESCENCE_S))
                if not self._queue:
                    break  # a quiescence slice passed with no arrivals
            return batch

    def _execute(self, batch: List[_Pending]) -> None:
        """Scan one collected batch and distribute slices back to requests.

        Requests whose deadline expired while they waited are shed first
        (finished with :data:`DEADLINE_ERROR`, no forward pass — the
        client stopped waiting, so scanning for it only delays everyone
        behind it).  The rest are grouped by requested confidence level;
        each group is one concatenated ``scan_fn`` call (one forward pass
        per group — in practice almost all traffic uses the default level
        and the whole batch is a single call).
        """
        live: List[_Pending] = []
        for pending in batch:
            if pending.deadline is not None and pending.deadline.expired():
                pending.error = DEADLINE_ERROR
                pending.finish()
            else:
                live.append(pending)
        if not live:
            return
        n_designs = sum(len(p.sources) for p in live)
        if self.metrics is not None:
            self.metrics.observe_batch(len(live), n_designs)
        groups: Dict[Optional[float], List[_Pending]] = {}
        for pending in live:
            groups.setdefault(pending.confidence, []).append(pending)
        for confidence, members in groups.items():
            concat: List[ScanSource] = []
            offsets: List[Tuple[_Pending, int, int]] = []
            for pending in members:
                start = len(concat)
                concat.extend(pending.sources)
                offsets.append((pending, start, len(concat)))
            try:
                report = self.scan_fn(concat, confidence)
            except Exception as exc:  # the whole group fails together
                message = f"{type(exc).__name__}: {exc}"
                for pending, _, _ in offsets:
                    pending.error = message
                    pending.finish()
                continue
            for pending, start, stop in offsets:
                records = report.records[start:stop]
                pending.result = BatchResult(
                    records=records,
                    n_cache_hits=sum(1 for r in records if r.cached),
                    n_errors=sum(1 for r in records if r.error is not None),
                    batch_designs=n_designs,
                    batch_requests=len(live),
                    confidence_level=report.confidence_level,
                    fingerprint=getattr(report, "fingerprint", ""),
                )
                pending.finish()

    def _run(self) -> None:
        """Worker loop: collect, execute, repeat until closed and drained."""
        while True:
            batch = self._collect_batch()
            if not batch:
                return
            self._execute(batch)
            with self._cond:
                self._in_flight -= len(batch)
            if self.after_batch is not None:
                try:
                    self.after_batch()
                except Exception:  # a failed flush must not kill the worker
                    logging.getLogger(__name__).exception(
                        "after_batch hook failed"
                    )
