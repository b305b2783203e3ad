"""The long-lived scan service: multi-model routing behind one HTTP process.

``python -m repro serve --artifact NAME=DIR ...`` starts one process that
keeps any number of trained detectors resident (one
:class:`repro.serve.registry.ModelRegistry`, one shared model-independent
feature store), gives each model its own micro-batching queue
(:class:`repro.serve.batching.MicroBatcher` — concurrent requests for the
same model share one vectorized forward pass), and routes every request
by its ``model`` field or ``X-Repro-Model`` header.  The standard
endpoints:

``POST /scan``
    Scan inline HDL sources and/or server-side paths with the requested
    model (default: the current champion); returns per-design triage
    records identical to a ``python -m repro scan`` run of that model.
``GET /healthz``
    Liveness + every resident model's fingerprint and the champion;
    ``status`` degrades to ``"degraded"`` while any model's conformal
    coverage-drift alarm is raised (see :mod:`repro.obs.drift`).
``GET /metrics``
    Request counts (total and per model), micro-batch sizes, latency
    percentiles, cache hit rate, rollout status and per-model coverage
    drift — JSON by default; ``?format=prometheus`` (or an ``Accept``
    header asking for ``text/plain``) selects the Prometheus text
    exposition rendered from :data:`repro.obs.metrics.REGISTRY`.
``POST /reload``
    Force a hot-reload check for all models (or one, via ``{"model":
    ...}``) — recalibration without downtime.
``POST /promote``
    Force-promote the challenger to champion right now.

**Champion–challenger rollout** (``--shadow NAME``): the champion keeps
answering every default-routed request while the challenger shadow-scans
a sampled slice of the same traffic; once its triage-agreement rate
clears the configured threshold over enough designs it is auto-promoted
to champion (see :mod:`repro.serve.rollout`).

The HTTP front-end is a single-threaded :mod:`selectors` reactor
(:mod:`repro.serve.eventloop`) that holds thousands of keep-alive
connections without a thread apiece; :meth:`ScanService.dispatch` routes
each parsed request, and scans complete asynchronously from their lane's
batch worker.  Shutdown drains gracefully (every accepted request is
answered before the process exits) and models hot-reload.  See
``docs/SERVING.md`` for the full API reference.
"""

from __future__ import annotations

import json
import logging
import math
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from .. import __version__
from ..engine import scheduler as _scheduler  # noqa: F401 - registers repro_engine_* metric families
from ..engine.scan import ScanReport, ScanSource, collect_sources
from ..faults import (
    DEFAULT_MAX_PIPELINED_REQUESTS,
    DEFAULT_MAX_QUEUE_DEPTH,
    DEFAULT_OUTBUF_BUDGET_BYTES,
    DEFAULT_RETRY_AFTER_S,
    Deadline,
    active_failpoints,
    failpoint,
)
from ..obs.drift import (
    DEFAULT_CLEAR_MARGIN,
    DEFAULT_MIN_OBSERVATIONS,
    DEFAULT_TRIP_MARGIN,
    DEFAULT_WINDOW,
    STATE_ALARMING,
    CoverageDriftMonitor,
)
from ..obs.metrics import REGISTRY
from ..obs.tracing import Tracer, trace_span
from .batching import (
    DEADLINE_ERROR,
    DEFAULT_BATCH_WINDOW_S,
    DEFAULT_MAX_BATCH,
    BatcherClosed,
    BatcherOverloaded,
    BatchResult,
    DeadlineExceeded,
    MicroBatchError,
    MicroBatcher,
)
from .eventloop import (
    DEFAULT_IDLE_TIMEOUT_S,
    DEFAULT_REQUEST_TIMEOUT_S,
    EventLoopFrontend,
    ParsedRequest,
    RawResponse,
)
from .metrics import ServiceMetrics
from .registry import ModelRegistry
from .rollout import (
    DEFAULT_MIN_SHADOW_DESIGNS,
    DEFAULT_PROMOTE_THRESHOLD,
    DEFAULT_SHADOW_SAMPLE,
    STATE_PROMOTED,
    RolloutController,
)

logger = logging.getLogger(__name__)

#: Default bind host — loopback; expose deliberately, not by accident.
DEFAULT_HOST = "127.0.0.1"

#: Default port of the scan service (0 picks a free ephemeral port).
DEFAULT_PORT = 8731

#: Largest accepted request body (64 MiB of HDL is far beyond any design).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: The default model name when the service is started with one artifact.
DEFAULT_MODEL_NAME = "default"

#: Routing header naming the model a request should be scanned with
#: (per-tenant routing without touching the JSON body).
MODEL_HEADER = "x-repro-model"

#: Deadline header: how many milliseconds the client is still willing to
#: wait for its ``POST /scan`` answer.  A request whose deadline expires
#: while queued is shed with 504 *before* the forward pass — under
#: overload the server spends compute only on answers somebody still
#: wants.
DEADLINE_HEADER = "x-repro-deadline-ms"

# Coverage-drift gauges behind the Prometheus exposition: the observed
# coverage lower bound, the nominal target, and the hysteresis alarm
# state (1 = alarming) — one child per served model.
_COVERAGE_OBSERVED = REGISTRY.gauge(
    "repro_serve_coverage_observed",
    "Observed conformal-coverage lower bound per model (sliding window).",
    labels=("model",),
)
_COVERAGE_NOMINAL = REGISTRY.gauge(
    "repro_serve_coverage_nominal",
    "Nominal conformal-coverage target per model (window mean).",
    labels=("model",),
)
_COVERAGE_ALARM = REGISTRY.gauge(
    "repro_serve_coverage_alarm",
    "1 while the model's coverage-drift alarm is raised, else 0.",
    labels=("model",),
)


class RequestError(ValueError):
    """A client-side problem with a request (maps to HTTP 400)."""


def _wants_prometheus(path: str, headers: Mapping[str, str]) -> bool:
    """Content negotiation for ``GET /metrics``.

    An explicit ``?format=`` query parameter wins outright
    (``prometheus``/``openmetrics``/``text`` select the text exposition,
    anything else selects JSON); without one, an ``Accept`` header
    mentioning ``text/plain`` or ``openmetrics`` (what Prometheus
    scrapers send) selects the text exposition.  The default stays JSON
    so existing clients never change behaviour.
    """
    query = path.partition("?")[2]
    for part in query.split("&"):
        key, _, value = part.partition("=")
        if key == "format":
            return value.lower() in ("prometheus", "openmetrics", "text")
    accept = (headers.get("accept") or "").lower()
    return "text/plain" in accept or "openmetrics" in accept


def parse_scan_payload(
    payload: Any, allow_paths: bool = True
) -> Tuple[List[ScanSource], Optional[float]]:
    """Validate a ``POST /scan`` body into sources + confidence.

    The body is a JSON object with any combination of ``sources`` (a list
    of ``{"name": ..., "source": "<verilog>"}`` objects — ``name`` is
    optional) and ``paths`` (server-side files/directories, resolved like
    CLI scan inputs), plus an optional ``confidence`` level and an
    optional ``model`` (validated by the routing layer, not here).
    Raises :class:`RequestError` with a client-actionable message on any
    shape problem.
    """
    if not isinstance(payload, dict):
        raise RequestError("request body must be a JSON object")
    unknown = set(payload) - {"sources", "paths", "confidence", "model"}
    if unknown:
        raise RequestError(f"unknown request fields: {sorted(unknown)}")
    sources: List[ScanSource] = []
    raw_sources = payload.get("sources", [])
    if not isinstance(raw_sources, list):
        raise RequestError("'sources' must be a list")
    for i, item in enumerate(raw_sources):
        if not isinstance(item, dict) or not isinstance(item.get("source"), str):
            raise RequestError(
                f"sources[{i}] must be an object with a string 'source' field"
            )
        name = item.get("name", f"inline_{i}")
        if not isinstance(name, str):
            raise RequestError(f"sources[{i}].name must be a string")
        sources.append(ScanSource(name=name, source=item["source"]))
    raw_paths = payload.get("paths", [])
    if not isinstance(raw_paths, list) or not all(
        isinstance(p, str) for p in raw_paths
    ):
        raise RequestError("'paths' must be a list of strings")
    if raw_paths:
        if not allow_paths:
            raise RequestError("server-side paths are disabled (--no-paths)")
        try:
            sources.extend(collect_sources(raw_paths))
        except (FileNotFoundError, OSError) as exc:
            raise RequestError(str(exc)) from exc
    confidence = payload.get("confidence")
    if confidence is not None:
        if not isinstance(confidence, (int, float)) or not 0.0 < confidence < 1.0:
            raise RequestError("'confidence' must be a number in (0, 1)")
        confidence = float(confidence)
    if not sources:
        raise RequestError("request contained no sources (use 'sources' or 'paths')")
    return sources, confidence


class _ModelLane:
    """One served model: its name, artifact path and dedicated batcher.

    Each lane owns exactly one :class:`MicroBatcher` (whose worker thread
    is the lane's engine/cache concurrency guard), so scans for different
    models batch independently and one model's slow batch never holds
    another's queue.  The lanes still share one registry — and through it
    the one model-independent feature store.
    """

    __slots__ = ("name", "path", "fingerprint", "batcher", "unflushed")

    def __init__(self, name: str, path: Path, fingerprint: str) -> None:
        self.name = name
        self.path = path
        self.fingerprint = fingerprint
        self.batcher: MicroBatcher = None  # type: ignore[assignment]
        # Fresh (non-cache-hit) designs since this lane's last cache
        # flush; only the lane's own batch worker touches it.
        self.unflushed = 0


class ScanService:
    """Everything behind one serving process: registry, lanes, front-end.

    Each lane's batch worker extracts features in-process and never forks
    an extraction pool: a pool forked per micro-batch costs more than it
    saves at serve batch sizes.  More cores means more service processes
    (see ``docs/SERVING.md``).

    Parameters
    ----------
    artifact:
        Single detector artifact directory to serve (the one-model
        shorthand; registered under the name ``"default"``).  Mutually
        exclusive with ``artifacts``.
    artifacts:
        Ordered mapping of model name -> artifact directory for
        multi-model serving.  All models are loaded at construction, so a
        broken artifact fails fast instead of on the first request.
    default_model:
        Which model serves requests that name none (the initial
        *champion*).  Defaults to the first ``artifacts`` entry.
    shadow:
        Model name (must be in ``artifacts``) to run as rollout
        *challenger*: it shadow-scans sampled champion traffic and is
        auto-promoted once its triage-agreement rate clears
        ``promote_threshold`` (see :mod:`repro.serve.rollout`).
    promote_threshold / min_shadow_designs / shadow_sample:
        Rollout gate configuration, passed to
        :class:`repro.serve.rollout.RolloutController`.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    request_timeout_s / idle_timeout_s:
        Event-loop front-end clocks: how long a partial request may
        dribble in (slow-loris guard) and how long an idle keep-alive
        connection is kept.
    batch_window_s:
        Micro-batch window — how long a lane's batch worker may hold a
        batch open for stragglers.  ``0`` (the default) dispatches on
        idle: a free worker scans whatever is queued at once, so batches
        coalesce only the backlog that built up during the previous
        batch.  A positive window trades latency for coalescing (see
        :class:`repro.serve.batching.MicroBatcher`).
    max_batch:
        Designs per micro-batch (the forward-pass batch-size cap).
    cache_dir:
        Sharded result-cache root (``None`` serves uncached).
    feature_cache:
        Attach the model-independent feature tier under
        ``<cache_dir>/features``.  Because the tier is keyed by source
        content (not model fingerprint), every lane shares it — a design
        scanned by the champion is already feature-warm for the
        challenger's shadow scan, and a recalibration + hot reload keeps
        it warm.  Ignored when ``cache_dir`` is ``None``.
    feature_store_dir:
        Explicit feature-tier root overriding the convention above (also
        enables the tier without a result cache).
    allow_paths:
        Whether ``POST /scan`` may reference server-side paths.
    flush_every:
        Per lane: flush the lane's result cache once at least this many
        fresh designs accumulated since its last flush (always off the
        response critical path, and always on shutdown).
    backend:
        Inference compute backend for every forward pass the service runs
        (``numpy`` golden float64 or ``fused_f32``); reported by
        ``GET /metrics`` as ``backend`` / ``backend_dtype``.
    trace_dir:
        When set, the service records structured spans (batch execution
        plus every engine pipeline stage) and appends them as JSONL to
        ``<trace_dir>/serve-<pid>.jsonl`` after each batch's responses
        went out (see :mod:`repro.obs.tracing`).
    drift_window / drift_min_observations / drift_trip_margin /
    drift_clear_margin:
        Per-model conformal coverage-drift monitoring knobs, passed to
        :class:`repro.obs.drift.CoverageDriftMonitor`.  The alarm state
        is surfaced by ``GET /healthz`` (``status: "degraded"``) and the
        coverage gauges of the Prometheus exposition; a hot reload with a
        fresh fingerprint resets the affected model's window.
    max_queue_depth:
        Per-lane admission bound: how many scan requests may wait in a
        lane's micro-batch queue.  The request past the bound is answered
        429 with ``Retry-After`` instead of queueing without limit —
        under sustained overload, memory stays bounded and clients get an
        honest signal.
    max_pipelined_requests / max_outbuf_bytes:
        Event-loop per-connection budgets (pipelined request backlog and
        response out-buffer bytes); see
        :class:`repro.serve.eventloop.EventLoopFrontend`.
    """

    def __init__(
        self,
        artifact: Optional[Union[str, Path]] = None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        batch_window_s: float = DEFAULT_BATCH_WINDOW_S,
        max_batch: int = DEFAULT_MAX_BATCH,
        cache_dir: Optional[Union[str, Path]] = None,
        feature_cache: bool = True,
        feature_store_dir: Optional[Union[str, Path]] = None,
        allow_paths: bool = True,
        flush_every: int = 128,
        backend: str = "numpy",
        artifacts: Optional[Mapping[str, Union[str, Path]]] = None,
        default_model: Optional[str] = None,
        shadow: Optional[str] = None,
        promote_threshold: float = DEFAULT_PROMOTE_THRESHOLD,
        min_shadow_designs: int = DEFAULT_MIN_SHADOW_DESIGNS,
        shadow_sample: float = DEFAULT_SHADOW_SAMPLE,
        request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
        idle_timeout_s: float = DEFAULT_IDLE_TIMEOUT_S,
        trace_dir: Optional[Union[str, Path]] = None,
        drift_window: int = DEFAULT_WINDOW,
        drift_min_observations: int = DEFAULT_MIN_OBSERVATIONS,
        drift_trip_margin: float = DEFAULT_TRIP_MARGIN,
        drift_clear_margin: float = DEFAULT_CLEAR_MARGIN,
        max_queue_depth: Optional[int] = DEFAULT_MAX_QUEUE_DEPTH,
        max_pipelined_requests: int = DEFAULT_MAX_PIPELINED_REQUESTS,
        max_outbuf_bytes: int = DEFAULT_OUTBUF_BUDGET_BYTES,
    ) -> None:
        if (artifact is None) == (artifacts is None):
            raise ValueError("provide exactly one of 'artifact' or 'artifacts'")
        if artifacts is None:
            artifacts = {DEFAULT_MODEL_NAME: artifact}  # type: ignore[dict-item]
        if not artifacts:
            raise ValueError("'artifacts' must name at least one model")
        self.allow_paths = allow_paths
        self.flush_every = max(1, flush_every)
        self.backend = backend
        self.max_queue_depth = max_queue_depth
        self.metrics = ServiceMetrics()
        self.registry = ModelRegistry(
            cache_dir=cache_dir,
            feature_cache=feature_cache,
            feature_store_dir=feature_store_dir,
            backend=backend,
        )
        # Load every model at construction (fail fast on broken artifacts)
        # and keep each fingerprint in a lane attribute the per-request
        # path can read without a registry lookup (updated on hot reload).
        self._lanes: Dict[str, _ModelLane] = {}
        self._drift: Dict[str, CoverageDriftMonitor] = {}
        for name, path in artifacts.items():
            if not isinstance(name, str) or not name:
                raise ValueError(f"model names must be non-empty strings: {name!r}")
            entry = self.registry.get(Path(path))
            self._lanes[name] = _ModelLane(name, Path(path), entry.fingerprint)
            # One coverage monitor per model, anchored at the model's own
            # default confidence level; per-batch levels override it.
            self._drift[name] = CoverageDriftMonitor(
                float(entry.engine.model.config.confidence_level),
                window=drift_window,
                min_observations=drift_min_observations,
                trip_margin=drift_trip_margin,
                clear_margin=drift_clear_margin,
            )
        self._tracer: Optional[Tracer] = None
        if trace_dir is not None:
            trace_root = Path(trace_dir)
            trace_root.mkdir(parents=True, exist_ok=True)
            self._tracer = Tracer(
                trace_id=f"serve-{os.getpid()}",
                jsonl_path=trace_root / f"serve-{os.getpid()}.jsonl",
            )
        self._champion = default_model or next(iter(self._lanes))
        if self._champion not in self._lanes:
            raise ValueError(f"default model {self._champion!r} is not registered")
        self._champion_lock = threading.Lock()
        self._rollout: Optional[RolloutController] = None
        if shadow is not None:
            if shadow not in self._lanes:
                raise ValueError(f"shadow model {shadow!r} is not registered")
            self._rollout = RolloutController(
                champion=self._champion,
                challenger=shadow,
                promote_threshold=promote_threshold,
                min_shadow_designs=min_shadow_designs,
                sample_rate=shadow_sample,
            )
        # The front-end binds before any batcher starts its worker
        # thread: a bind failure (port in use) must not leak threads.
        self._loop = EventLoopFrontend(
            host,
            port,
            self,
            max_body_bytes=MAX_BODY_BYTES,
            request_timeout_s=request_timeout_s,
            idle_timeout_s=idle_timeout_s,
            max_outbuf_bytes=max_outbuf_bytes,
            max_pipelined_requests=max_pipelined_requests,
            on_reject=self.metrics.observe_rejected,
        )
        for lane in self._lanes.values():
            lane.batcher = MicroBatcher(
                self._make_scan_fn(lane),
                batch_window_s=batch_window_s,
                max_batch=max_batch,
                metrics=self.metrics,
                max_queue_depth=max_queue_depth,
                # Flush the lane's result cache after responses go out,
                # not before: requesters never wait on disk.
                after_batch=self._make_after_batch(lane),
            )
        self._shutdown_lock = threading.Lock()
        self._closed = False

    # -- addressing ----------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound host."""
        return self._loop.host

    @property
    def port(self) -> int:
        """The bound port (resolved even when constructed with ``port=0``)."""
        return self._loop.port

    # -- model accessors -----------------------------------------------------
    @property
    def champion(self) -> str:
        """The model name currently serving default-routed requests."""
        with self._champion_lock:
            return self._champion

    @property
    def models(self) -> List[str]:
        """The registered model names, in registration order."""
        return list(self._lanes)

    @property
    def artifact_path(self) -> Path:
        """The current champion's artifact directory."""
        return self._lanes[self.champion].path

    @property
    def batcher(self) -> MicroBatcher:
        """The current champion's micro-batcher."""
        return self._lanes[self.champion].batcher

    @property
    def rollout(self) -> Optional[RolloutController]:
        """The active rollout controller, ``None`` without ``--shadow``."""
        return self._rollout

    # -- scanning ------------------------------------------------------------
    def _make_scan_fn(
        self, lane: _ModelLane
    ) -> Callable[[List[ScanSource], Optional[float]], ScanReport]:
        """Bind :meth:`_scan_batch` to one lane for its batcher."""

        def scan_fn(
            sources: List[ScanSource], confidence: Optional[float]
        ) -> ScanReport:
            """This lane's batch-scan callable (worker thread only)."""
            return self._scan_batch(lane, sources, confidence)

        return scan_fn

    def _make_after_batch(self, lane: _ModelLane) -> Callable[[], None]:
        """Bind :meth:`_after_batch` to one lane for its batcher."""

        def after_batch() -> None:
            """This lane's post-batch hook (worker thread only)."""
            self._after_batch(lane)

        return after_batch

    def _scan_batch(
        self, lane: _ModelLane, sources: List[ScanSource], confidence: Optional[float]
    ) -> ScanReport:
        """One lane's batch scan: hot-reload probe, then its engine.

        The staleness probe runs here — between batches, never mid-batch —
        so an in-flight batch always finishes on the model it started
        with.  Runs only on the lane's own batch worker thread.
        """
        entry, reloaded = self.registry.maybe_reload(lane.path)
        if reloaded:
            self.metrics.observe_reload()
            lane.fingerprint = entry.fingerprint
            # Fresh calibration: the old coverage window measured the
            # previous artifact, so the drift monitor starts over.
            self._reset_drift(lane.name)
            logger.info(
                "hot-reloaded model %s: fingerprint %s",
                lane.name,
                entry.fingerprint[:12],
            )
        with trace_span(
            self._tracer, "serve/batch", model=lane.name, designs=len(sources)
        ):
            report = entry.engine.scan_sources(
                sources,
                workers=1,
                confidence=confidence,
                flush_cache=False,
                tracer=self._tracer,
            )
        if report.n_feature_hits:
            self.metrics.observe_feature_hits(report.n_feature_hits)
        # Stamp which model produced these records; the response reports
        # this rather than "the currently resident model", which a hot
        # reload may have swapped by the time the response is built.
        report.fingerprint = entry.fingerprint  # type: ignore[attr-defined]
        lane.unflushed += report.n_scanned
        return report

    def _after_batch(self, lane: _ModelLane) -> None:
        """Lane worker hook after a batch's responses went out: maybe flush.

        Flushes only this lane's result cache (its worker is the cache's
        only writer — flushing other lanes' caches here would race their
        workers) plus the shared feature store, which is thread-safe.
        """
        if lane.unflushed >= self.flush_every:
            lane.unflushed = 0
            entry = self.registry.get(lane.path)
            if entry.engine.cache is not None:
                entry.engine.cache.flush()
            if self.registry.feature_store is not None:
                self.registry.feature_store.flush()
        if self._tracer is not None:
            self._tracer.flush()

    # -- coverage drift ------------------------------------------------------
    def _observe_drift(self, model: str, result: BatchResult) -> None:
        """Feed one scan result's verdicts to the model's coverage monitor.

        Updates the Prometheus coverage gauges afterwards and logs every
        alarm transition — the tripped state itself lives in the monitor
        and surfaces through ``/healthz`` and ``/metrics``.
        """
        monitor = self._drift.get(model)
        if monitor is None:
            return
        transition = monitor.observe_verdicts(
            (record.verdict for record in result.records),
            nominal=result.confidence_level,
        )
        snap = monitor.snapshot()
        if snap["observed_coverage"] is not None:
            _COVERAGE_OBSERVED.labels(model=model).set(snap["observed_coverage"])
        _COVERAGE_NOMINAL.labels(model=model).set(snap["nominal_coverage"])
        _COVERAGE_ALARM.labels(model=model).set(
            1.0 if snap["state"] == STATE_ALARMING else 0.0
        )
        if transition == STATE_ALARMING:
            logger.warning(
                "coverage drift alarm raised for model %s: observed %.3f "
                "below nominal %.3f (window %d); recalibrate and POST /reload",
                model,
                snap["observed_coverage"],
                snap["nominal_coverage"],
                snap["window"],
            )
        elif transition is not None:
            logger.info("coverage drift alarm cleared for model %s", model)

    def _reset_drift(self, model: str) -> None:
        """Restart a model's coverage window (after a real hot reload)."""
        monitor = self._drift.get(model)
        if monitor is None:
            return
        monitor.reset()
        _COVERAGE_ALARM.labels(model=model).set(0.0)

    def drift_snapshot(self) -> Dict[str, Any]:
        """Per-model drift monitor snapshots (``/healthz`` + ``/metrics``)."""
        return {name: monitor.snapshot() for name, monitor in self._drift.items()}

    def render_prometheus(self) -> bytes:
        """The Prometheus text exposition behind ``GET /metrics``.

        Point-in-time gauges (uptime, coverage) are refreshed first; the
        counters were already mirrored into the registry as they happened.
        """
        self.metrics.sync_exposition()
        for name, monitor in self._drift.items():
            snap = monitor.snapshot()
            if snap["observed_coverage"] is not None:
                _COVERAGE_OBSERVED.labels(model=name).set(snap["observed_coverage"])
            _COVERAGE_NOMINAL.labels(model=name).set(snap["nominal_coverage"])
            _COVERAGE_ALARM.labels(model=name).set(
                1.0 if snap["state"] == STATE_ALARMING else 0.0
            )
        return REGISTRY.render_prometheus().encode("utf-8")

    # -- routing -------------------------------------------------------------
    def _route(self, payload: Any, header_model: Optional[str]) -> str:
        """Resolve which model a scan request targets.

        Precedence: the body's ``model`` field, then the
        ``X-Repro-Model`` header, then the current champion.  Unknown
        names raise :class:`RequestError` listing what is being served.
        """
        name: Optional[str] = None
        if isinstance(payload, dict) and payload.get("model") is not None:
            name = payload["model"]
            if not isinstance(name, str):
                raise RequestError("'model' must be a string")
        elif header_model:
            name = header_model
        if name is None:
            return self.champion
        if name not in self._lanes:
            raise RequestError(
                f"unknown model {name!r} (serving: {sorted(self._lanes)})"
            )
        return name

    @staticmethod
    def deadline_from_headers(headers: Mapping[str, str]) -> Optional[Deadline]:
        """Parse the ``X-Repro-Deadline-Ms`` header into a :class:`Deadline`.

        ``None`` without the header; :class:`RequestError` when its value
        is not a positive number of milliseconds.  Non-finite values
        (``nan``, ``inf``, or ``1e400``, which overflows to ``inf``) are
        rejected too: none of them names a deadline that can expire.
        """
        raw = headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            ms = float(raw)
        except (TypeError, ValueError) as exc:
            raise RequestError(
                f"invalid {DEADLINE_HEADER} header: {raw!r} is not a number"
            ) from exc
        if not math.isfinite(ms) or ms <= 0:
            raise RequestError(
                f"invalid {DEADLINE_HEADER} header: must be a positive "
                "number of milliseconds"
            )
        return Deadline.after_ms(ms)

    def _scan_response(
        self, model: str, sources: List[ScanSource], result: BatchResult
    ) -> Dict[str, Any]:
        """Build the ``POST /scan`` response payload for one batch result."""
        return {
            "model": model,
            "fingerprint": result.fingerprint or self._lanes[model].fingerprint,
            "confidence_level": result.confidence_level,
            "n_designs": len(sources),
            "n_cache_hits": result.n_cache_hits,
            "n_errors": result.n_errors,
            "records": [record.to_dict() for record in result.records],
            "batch": {
                "designs": result.batch_designs,
                "requests": result.batch_requests,
            },
        }

    def handle_scan_async(
        self,
        payload: Any,
        respond: Callable[..., None],
        model: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> None:
        """Serve one ``POST /scan`` body without blocking.

        ``model`` is the routing header value, if any; the body's
        ``model`` field wins over it.  Validation and admission problems
        raise synchronously
        (:class:`RequestError`, :class:`BatcherClosed`,
        :class:`BatcherOverloaded`, :class:`DeadlineExceeded`); otherwise
        the request is enqueued and ``respond(status, payload)`` fires
        from the lane's batch worker once the micro-batch executed — or
        with 504 if ``deadline`` expired while the request was queued.
        """
        name = self._route(payload, model)
        sources, confidence = parse_scan_payload(payload, allow_paths=self.allow_paths)
        if deadline is not None and deadline.expired():
            raise DeadlineExceeded(DEADLINE_ERROR)
        lane = self._lanes[name]
        t_start = time.perf_counter()

        def on_done(result: Optional[BatchResult], error: Optional[str]) -> None:
            """Batch completion -> HTTP response (lane worker thread)."""
            if error == DEADLINE_ERROR:
                # Shed while queued: the client's deadline passed before
                # the batch ran, so nobody is waiting for this answer.
                self.metrics.observe_rejected("deadline")
                self.metrics.observe_request("/scan", error=True)
                respond(504, {"error": error})
                return
            if error is not None or result is None:
                self.metrics.observe_request("/scan", error=True)
                respond(500, {"error": error or "scan failed"})
                return
            seconds = time.perf_counter() - t_start
            self.metrics.observe_scan(
                n_designs=len(sources),
                n_cache_hits=result.n_cache_hits,
                n_errors=result.n_errors,
                seconds=seconds,
                model=name,
            )
            self._observe_drift(name, result)
            if self._tracer is not None:
                self._tracer.record(
                    "serve/scan", seconds, model=name, designs=len(sources)
                )
            self._maybe_shadow(name, sources, confidence, result)
            self.metrics.observe_request("/scan")
            respond(200, self._scan_response(name, sources, result))

        lane.batcher.submit_nowait(
            sources, confidence=confidence, on_done=on_done, deadline=deadline
        )

    # -- rollout -------------------------------------------------------------
    def _maybe_shadow(
        self,
        model: str,
        sources: List[ScanSource],
        confidence: Optional[float],
        result: BatchResult,
    ) -> None:
        """Mirror a champion-routed scan to the challenger, maybe promote.

        The shadow submission is non-blocking (the challenger lane's own
        worker runs it), so champion responses never wait on challenger
        compute; the verdict comparison happens in the challenger
        worker's completion callback.  Auto-promotion fires here the
        moment the agreement gate clears.
        """
        rollout = self._rollout
        if rollout is None or model != rollout.champion:
            return
        if not rollout.should_sample():
            return
        champion_verdicts = [record.verdict for record in result.records]
        names = [record.name for record in result.records]
        challenger_lane = self._lanes[rollout.challenger]

        def compare(shadow: Optional[BatchResult], error: Optional[str]) -> None:
            """Challenger completion -> agreement ledger (worker thread)."""
            if error is not None or shadow is None:
                logger.warning("shadow scan failed, not counted: %s", error)
                return
            self.metrics.observe_shadow(len(champion_verdicts))
            decision = rollout.observe(
                champion_verdicts,
                [record.verdict for record in shadow.records],
                names=names,
            )
            if decision == STATE_PROMOTED:
                self._set_champion(rollout.challenger, forced=False)
            elif decision is not None:
                logger.warning(
                    "challenger %s rejected: agreement %.4f below threshold %.4f",
                    rollout.challenger,
                    rollout.agreement_rate() or 0.0,
                    rollout.promote_threshold,
                )

        try:
            challenger_lane.batcher.submit_nowait(
                sources, confidence=confidence, on_done=compare
            )
        except (BatcherClosed, MicroBatchError):
            pass  # draining: shadow traffic is best-effort by definition

    def _set_champion(self, name: str, forced: bool) -> None:
        """Swap default routing to ``name`` (idempotent, any thread)."""
        with self._champion_lock:
            if self._champion == name:
                return
            self._champion = name
        self.metrics.observe_promotion(forced=forced)
        logger.info(
            "%s promoted to champion%s", name, " (forced)" if forced else ""
        )

    def handle_promote(self) -> Dict[str, Any]:
        """Serve ``POST /promote``: force the challenger in right now."""
        rollout = self._rollout
        if rollout is None:
            raise RequestError("no challenger rollout is configured (--shadow)")
        rollout.force_promote()
        self._set_champion(rollout.challenger, forced=True)
        return {
            "champion": self.champion,
            "rollout": rollout.snapshot(),
            "version": __version__,
        }

    # -- operational endpoints ----------------------------------------------
    def handle_healthz(self) -> Dict[str, Any]:
        """Serve ``GET /healthz``: liveness, version, every resident model.

        A raised coverage-drift alarm degrades the status (``"degraded"``)
        without failing the endpoint: the service still answers scans, but
        the named models' conformal guarantees look stale and an operator
        should recalibrate (the ``drift`` entry carries the evidence).
        Active failpoints (``REPRO_FAILPOINTS`` / ``--failpoints``)
        likewise degrade the status: a fault-injected process must never
        look healthy to an orchestrator.
        """
        champion = self.champion
        models = {
            name: self.registry.get(lane.path).describe()
            for name, lane in self._lanes.items()
        }
        drift = self.drift_snapshot()
        alarming = sorted(
            name for name, snap in drift.items() if snap["state"] == STATE_ALARMING
        )
        faults = active_failpoints()
        return {
            "status": "degraded" if (alarming or faults) else "ok",
            "faults": faults,
            "drift": drift,
            "drift_alarms": alarming,
            "version": __version__,
            "model": models[champion],
            "champion": champion,
            "models": models,
            "frontend": "eventloop",
            "rollout": self._rollout.state if self._rollout is not None else None,
            "batching": {
                "window_ms": self.batcher.batch_window_s * 1000.0,
                "max_batch": self.batcher.max_batch,
            },
            "uptime_seconds": self.metrics.uptime_seconds(),
        }

    def handle_metrics(self) -> Dict[str, Any]:
        """Serve ``GET /metrics``: counters/percentiles plus serving state.

        The snapshot is augmented with ``backend`` (the active compute
        backend's name), ``backend_dtype`` (the dtype its forward pass
        runs in), ``frontend`` (always ``"eventloop"``), ``champion``, and
        — when a rollout is active — the full ``rollout`` status (state,
        agreement rate, disagreement sample) an operator needs to judge a
        challenger.
        ``drift`` carries each model's coverage-monitor snapshot and
        ``scheduler`` the process-wide shard retry/worker-death counters
        (only nonzero when scheduler scans ran in this process).
        """
        from ..nn.backend import get_backend

        snapshot = self.metrics.snapshot()
        snapshot["backend"] = self.backend
        snapshot["backend_dtype"] = get_backend(self.backend).dtype
        snapshot["frontend"] = "eventloop"
        snapshot["champion"] = self.champion
        snapshot["rollout"] = (
            self._rollout.snapshot() if self._rollout is not None else None
        )
        snapshot["drift"] = self.drift_snapshot()
        snapshot["scheduler"] = {
            "shard_retries": REGISTRY.value("repro_engine_shard_retries_total"),
            "worker_deaths": REGISTRY.value("repro_engine_worker_deaths_total"),
            "shard_failures": REGISTRY.value("repro_engine_shard_failures_total"),
        }
        return snapshot

    def handle_reload(self, model: Optional[str] = None) -> Dict[str, Any]:
        """Serve ``POST /reload``: force fingerprint checks right now.

        Reloads every registered model, or just ``model`` when the body
        named one.  Each model reloads under its own registry load lock,
        so a large artifact mid-reload never delays the others.
        """
        if model is not None and model not in self._lanes:
            raise RequestError(
                f"unknown model {model!r} (serving: {sorted(self._lanes)})"
            )
        results: Dict[str, Any] = {}
        any_reloaded = False
        for name, lane in self._lanes.items():
            if model is not None and name != model:
                continue
            entry, reloaded = self.registry.reload(lane.path)
            if reloaded:
                self.metrics.observe_reload()
                lane.fingerprint = entry.fingerprint
                self._reset_drift(name)
                logger.info(
                    "reloaded model %s on request: %s", name, entry.fingerprint[:12]
                )
            results[name] = {"reloaded": reloaded, "model": entry.describe()}
            any_reloaded = any_reloaded or reloaded
        champion = self.champion
        return {
            "reloaded": any_reloaded,
            "model": self.registry.get(self._lanes[champion].path).describe(),
            "models": results,
            "version": __version__,
        }

    # -- event-loop dispatch -------------------------------------------------
    def dispatch(
        self,
        request: ParsedRequest,
        respond: Callable[..., None],
    ) -> None:
        """Route one parsed request from the event-loop front-end.

        ``respond(status, payload[, headers])`` is called exactly once —
        synchronously for operational endpoints and errors, from a lane's
        batch worker for scans.  Framing was already validated by the
        front-end; this layer owns JSON parsing, routing and
        error-to-status mapping (429 + ``Retry-After`` for admission
        rejects, 504 for expired deadlines).
        """
        route = request.path.split("?", 1)[0]
        method = request.method
        try:
            failpoint("serve.dispatch")
            if method == "GET":
                if route == "/healthz":
                    self.metrics.observe_request(route)
                    respond(200, self.handle_healthz())
                elif route == "/metrics":
                    self.metrics.observe_request(route)
                    if _wants_prometheus(request.path, request.headers):
                        respond(200, RawResponse(body=self.render_prometheus()))
                    else:
                        respond(200, self.handle_metrics())
                else:
                    self.metrics.observe_request(route, error=True)
                    respond(404, {"error": f"unknown route: GET {route}"})
            elif method == "POST":
                body = self._parse_json(request.body)
                if route == "/scan":
                    # observe_request happens in the completion callback
                    # (success and failure both), keeping counts exact.
                    self.handle_scan_async(
                        body,
                        respond,
                        model=request.headers.get(MODEL_HEADER),
                        deadline=self.deadline_from_headers(request.headers),
                    )
                elif route == "/reload":
                    model = body.get("model") if isinstance(body, dict) else None
                    payload = self.handle_reload(model)
                    self.metrics.observe_request(route)
                    respond(200, payload)
                elif route == "/promote":
                    payload = self.handle_promote()
                    self.metrics.observe_request(route)
                    respond(200, payload)
                else:
                    self.metrics.observe_request(route, error=True)
                    respond(404, {"error": f"unknown route: POST {route}"})
            else:
                self.metrics.observe_request(route, error=True)
                respond(501, {"error": f"unsupported method: {method}"})
        except RequestError as exc:
            self.metrics.observe_request(route, error=True)
            respond(400, {"error": str(exc)})
        except BatcherOverloaded as exc:
            # Admission control tripped: an honest 429 with a retry hint
            # beats queueing a request nobody may live to see answered.
            self.metrics.observe_rejected("overload")
            self.metrics.observe_request(route, error=True)
            respond(
                429,
                {"error": str(exc)},
                {"Retry-After": str(DEFAULT_RETRY_AFTER_S)},
            )
        except DeadlineExceeded as exc:
            self.metrics.observe_rejected("deadline")
            self.metrics.observe_request(route, error=True)
            respond(504, {"error": str(exc)})
        except BatcherClosed as exc:
            self.metrics.observe_request(route, error=True)
            respond(503, {"error": str(exc)})
        except (MicroBatchError, TimeoutError) as exc:
            self.metrics.observe_request(route, error=True)
            respond(500, {"error": str(exc)})
        except Exception as exc:  # never leak a traceback to the socket
            logger.exception("unhandled error serving %s %s", method, route)
            self.metrics.observe_request(route, error=True)
            respond(500, {"error": f"{type(exc).__name__}: {exc}"})

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        """Decode a request body as JSON (empty body -> empty object)."""
        if not body:
            return {}
        try:
            return json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise RequestError(f"request body is not valid JSON: {exc}") from exc

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ScanService":
        """Serve in a background thread; returns self (for chaining)."""
        self._loop.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` is called."""
        self._loop.run()

    def _close_batchers(self) -> bool:
        """Drain every lane's batcher; True when all workers finished."""
        drained = True
        for lane in self._lanes.values():
            drained = lane.batcher.close() and drained
        return drained

    def shutdown(self) -> None:
        """Graceful shutdown: stop accepting, drain batches, flush caches.

        Safe to call from any thread (including a signal-triggered one)
        and idempotent.  Ordering matters: the front-end stops accepting
        first so no new work arrives, every lane's batcher then drains
        its queued requests (completions still flow out through the
        front-end), the result caches are flushed — *before* connection
        teardown, so durability is not held hostage to an idle keep-alive
        connection — and only then are the remaining connections closed.
        """
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
        self._loop.begin_drain()  # stop accepting connections
        drained = self._close_batchers()  # drain queued scans
        if drained:
            self.registry.flush_caches()
        else:
            # A worker is still mid-drain after the join timeout;
            # flushing now would race its cache writes.  Skip — losing
            # cached verdicts (a rescan recomputes them) beats corrupting
            # the flush.
            logger.warning(
                "batch worker did not drain in time; skipping shutdown cache flush"
            )
        if self._tracer is not None:
            self._tracer.flush()  # the last batch's spans hit disk
        # The loop keeps running through the drain above, writing out
        # each completed response; now flush what is left and stop.
        self._loop.shutdown(grace_s=2.0)

    def __enter__(self) -> "ScanService":
        """Context-manager entry: start serving in the background."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: graceful shutdown."""
        self.shutdown()
