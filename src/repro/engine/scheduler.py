"""Sharded parallel scan scheduler: the whole pipeline across a worker pool.

:class:`repro.engine.scan.ScanEngine` parallelises only the front-end
(lex/parse/feature extraction); inference still runs in the parent.
:class:`ScanScheduler` parallelises the **entire** pipeline: the corpus is
split into shards of ``shard_size`` designs, each shard runs feature
extraction *and* batched inference inside a persistent worker pool (each
worker loads the detector once, at pool start-up, and reuses it for every
shard it serves), and the per-shard reports are merged deterministically —
records come back in input order with p-values identical to a serial scan.

On top of the raw fan-out the scheduler adds the operational behaviour a
scan-a-whole-corpus service needs:

* **Resumability** — shard results are flushed into the sharded
  :class:`repro.engine.cache.ScanCache` as each shard completes, so a scan
  killed mid-run loses at most its in-flight shards; the next run serves
  every completed design from the cache and only rescans the remainder.  A
  per-corpus :class:`ScanJournal` in the cache namespace records shard
  progress for observability (``--resume`` reuses it instead of starting a
  fresh one).
* **Bounded retry** — a shard whose worker dies or raises is re-queued up
  to ``max_retries`` times; designs in a shard that keeps failing get
  explicit error records instead of poisoning the whole scan.
* **Graceful degradation** — if the pool cannot be created (restricted
  environments), its workers start dying, or ``jobs=1``, shards run
  serially and in-process in the parent through the exact same merge
  path.

See ``docs/ENGINE.md`` for the full resume/retry semantics.
"""

from __future__ import annotations

import hashlib
import json
import logging
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.config import NoodleConfig
from ..core.fusion import ConformalFusionModel
from ..core.results import ScanRecord
from ..faults import SHARD_DEADLINE_S, SHARD_RETRY_POLICY, failpoint
from ..obs.metrics import REGISTRY
from ..obs.tracing import Tracer, trace_span
from .blas import limit_blas_threads
from .cache import CacheLockTimeout, ScanCache, atomic_write_json
from .feature_store import FeatureStore
from .scan import (
    ScanEngine,
    ScanReport,
    ScanSource,
    collect_sources,
    note_degraded,
    resolve_cache_hits,
)

logger = logging.getLogger(__name__)

#: Default number of designs per scheduler shard.
DEFAULT_SHARD_SIZE = 16

#: Default bounded-retry budget for failed shards (total tries = 1 + retries).
#: Sourced from the system-wide policy table (see docs/ROBUSTNESS.md).
DEFAULT_MAX_RETRIES = SHARD_RETRY_POLICY.max_retries

#: Default per-shard result deadline (seconds).  ``multiprocessing.Pool``
#: never delivers a result for a task whose worker was killed hard (OOM,
#: SIGKILL), so an unbounded ``get()`` would hang the scan forever; a
#: deadline converts that into a normal shard failure that the bounded
#: retry re-queues.  Sourced from :data:`repro.faults.policy.SHARD_DEADLINE_S`.
DEFAULT_SHARD_TIMEOUT = SHARD_DEADLINE_S

JOURNAL_SCHEMA_VERSION = 1

# Scheduler reliability telemetry (process-wide; surfaced in the scan
# summary line and, under serve, in /metrics — see docs/OBSERVABILITY.md).
_SHARD_RETRIES = REGISTRY.counter(
    "repro_engine_shard_retries_total", "Shards requeued after a recoverable failure."
)
_WORKER_DEATHS = REGISTRY.counter(
    "repro_engine_worker_deaths_total",
    "Shards whose pool worker died or missed its result deadline.",
)
_SHARD_FAILURES = REGISTRY.counter(
    "repro_engine_shard_failures_total",
    "Shards failed permanently after exhausting the retry budget.",
)


def default_jobs() -> int:
    """Default worker count: ``min(4, cpu_count)`` like the front-end pool."""
    return min(4, multiprocessing.cpu_count() or 1)


def corpus_digest(sources: Sequence[ScanSource]) -> str:
    """Stable SHA-256 identity of a scan corpus (order-sensitive).

    Keys the scheduler's journal so a resumed run can tell whether it is
    looking at the same corpus as the interrupted one.
    """
    digest = hashlib.sha256()
    for src in sources:
        digest.update(src.sha256.encode("ascii"))
        digest.update(b"\0")
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Worker-side machinery (module level so it pickles under spawn too)
# ---------------------------------------------------------------------------

_WORKER_ENGINE: Optional[ScanEngine] = None


def _init_scan_worker(payload: Tuple[str, Any, str, Optional[str], str]) -> None:
    """Pool initializer: build the per-process engine exactly once.

    ``payload`` is ``("artifact", path, fingerprint, feature_store_dir,
    backend)`` — each worker loads the persisted detector itself — or
    ``("model", pickled_model, fingerprint, feature_store_dir, backend)``
    for in-memory models.  The compute backend is applied per worker.
    Workers never touch the *result* cache (the parent owns all
    result-cache I/O, so a scan keeps a single writer per process tree),
    but each worker opens its own handle on the shared model-independent
    feature store: the store's ``flock`` + read-merge-write flush
    discipline makes any number of concurrent writers safe, and sharing it
    means a shard full of already-seen designs skips extraction inside the
    worker too.  Each worker runs with one BLAS thread
    (:func:`repro.engine.blas.limit_blas_threads`).
    """
    global _WORKER_ENGINE
    limit_blas_threads()
    kind, spec, fingerprint, feature_store_dir, backend = payload
    if kind == "artifact":
        from .artifacts import load_detector

        model, _ = load_detector(spec)
    else:
        model = pickle.loads(spec)
    store = FeatureStore(feature_store_dir) if feature_store_dir is not None else None
    _WORKER_ENGINE = ScanEngine(
        model, fingerprint=fingerprint, cache=None, feature_store=store, backend=backend
    )


def _scan_shard_worker(
    task: Tuple[str, List[ScanSource], float],
) -> Tuple[str, Optional[List[dict]], float, float, int, Optional[str], List[dict]]:
    """Pool worker: scan one shard end-to-end with the per-process engine.

    ``task`` is ``(shard_id, sources, level)`` with an optional fourth
    ``(trace_id, parent_span_id)`` element; when present, the worker runs
    a private :class:`repro.obs.tracing.Tracer` (span ids prefixed with
    the shard id for cross-process uniqueness) and ships the finished
    spans home as the trailing element of the result tuple.

    Returns ``(shard_id, record_dicts, seconds_extract, seconds_inference,
    n_feature_hits, error, spans)``; any exception is folded into
    ``error`` so the parent can re-queue the shard instead of crashing the
    pool.  The engine's default flush persists fresh feature rows per
    shard, matching the result cache's per-shard durability in the parent.
    """
    shard_id, shard_sources, level = task[0], task[1], task[2]
    trace_ctx = task[3] if len(task) > 3 else None
    tracer: Optional[Tracer] = None
    parent_span_id: Optional[str] = None
    if trace_ctx is not None:
        trace_id, parent_span_id = trace_ctx
        tracer = Tracer(trace_id=trace_id, id_prefix=f"{shard_id}.")
    try:
        failpoint("scheduler.worker.body")
        assert _WORKER_ENGINE is not None, "worker initializer did not run"
        _WORKER_ENGINE.tracer = tracer
        with trace_span(
            tracer,
            "scheduler/shard",
            parent_id=parent_span_id,
            shard=shard_id,
            designs=len(shard_sources),
        ):
            report = _WORKER_ENGINE.scan_sources(
                shard_sources, workers=1, confidence=level
            )
        _WORKER_ENGINE.tracer = None
        return (
            shard_id,
            [record.to_dict() for record in report.records],
            report.seconds_extract,
            report.seconds_inference,
            report.n_feature_hits,
            None,
            tracer.export() if tracer is not None else [],
        )
    except Exception as exc:  # pragma: no cover - exercised via retry tests
        return shard_id, None, 0.0, 0.0, 0, f"{type(exc).__name__}: {exc}", []


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


class ScanJournal:
    """Atomic per-corpus progress journal living in the cache namespace.

    One JSON file per ``(fingerprint, corpus)`` pair, rewritten atomically
    after every shard, recording which shards completed or failed and how
    many runs have touched this corpus.  The journal is *observability*:
    the correctness of resume comes from the sharded result cache (every
    completed design is served from it), the journal tells an operator how
    an interrupted or retried scan actually progressed.
    """

    def __init__(self, path: Path, fingerprint: str, digest: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.digest = digest
        self.state: Dict[str, Any] = {}

    def _matches(self, state: Dict[str, Any]) -> bool:
        return (
            state.get("schema_version") == JOURNAL_SCHEMA_VERSION
            and state.get("fingerprint") == self.fingerprint
            and state.get("corpus_digest") == self.digest
        )

    def start(self, n_designs: int, shard_size: int, resume: bool) -> None:
        """Begin (or with ``resume=True`` continue) a run of this corpus."""
        previous: Dict[str, Any] = {}
        if resume and self.path.is_file():
            try:
                candidate = json.loads(self.path.read_text())
            except (json.JSONDecodeError, OSError):
                candidate = {}
            if isinstance(candidate, dict) and self._matches(candidate):
                previous = candidate
        self.state = {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "corpus_digest": self.digest,
            "n_designs": n_designs,
            "shard_size": shard_size,
            "status": "running",
            "runs": int(previous.get("runs", 0)) + 1,
            "shards": dict(previous.get("shards", {})),
        }
        self._write()

    def record_shard(
        self, shard_id: str, status: str, n_records: int, attempts: int
    ) -> None:
        """Record one shard's outcome (``"done"`` or ``"failed"``)."""
        self.state["shards"][shard_id] = {
            "status": status,
            "n_records": n_records,
            "attempts": attempts,
        }
        self._write()

    def complete(self) -> None:
        """Mark the run finished."""
        self.state["status"] = "complete"
        self._write()

    def _write(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.path, self.state)


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


@dataclass
class _Shard:
    """One unit of scheduled work: a slice of pending source indices."""

    shard_id: str
    indices: List[int] = field(default_factory=list)
    attempts: int = 0


class ScanScheduler:
    """Sharded, resumable, retrying parallel scanner.

    Parameters
    ----------
    model:
        A fitted :class:`ConformalFusionModel` (mutually optional with
        ``artifact_path``; at least one is required).  In-memory models are
        pickled once into each pool worker.
    artifact_path:
        A saved detector directory; pool workers each load it once at
        start-up, which is cheaper and more robust than pickling for the
        CLI path.
    fingerprint:
        Cache namespace; defaults to the artifact's fingerprint when
        loading from disk.
    cache:
        Optional :class:`ScanCache` shared with plain engines; required
        for resumable scans.
    feature_store_dir:
        Optional root of the model-independent feature tier.  Every pool
        worker (and the serial-path parent engine) opens its own
        :class:`repro.engine.feature_store.FeatureStore` handle on it —
        the store's ``flock`` + read-merge-write flush discipline makes
        concurrent writers safe, the same guarantee the result cache
        gives the parent.
    jobs:
        Worker-pool size (:func:`default_jobs` when omitted); ``1`` scans
        shards serially in the parent through the same merge path.  The
        persistent pool is the scheduler's only source of extra
        processes: shards scanned in the parent extract in-process.
    shard_size:
        Designs per shard — the granularity of parallelism, retry and
        incremental cache flushes.
    max_retries:
        How many times a failed shard is re-queued before its designs get
        error records.
    shard_timeout:
        Seconds to wait for one shard's result before treating it as
        failed (and re-queueing it under the retry budget).  Guards
        against pool workers that died hard (OOM, SIGKILL), whose results
        would otherwise never arrive; ``None`` disables the deadline.
    default_confidence:
        Confidence level used when a scan does not specify one; resolved
        from the model config (or artifact manifest) when omitted.
    backend:
        Compute backend (see :mod:`repro.nn.backend`) applied by every
        pool worker and the serial-path parent engine.
    """

    def __init__(
        self,
        model: Optional[ConformalFusionModel] = None,
        artifact_path: Optional[Union[str, Path]] = None,
        fingerprint: str = "unversioned",
        cache: Optional[ScanCache] = None,
        feature_store_dir: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_retries: int = DEFAULT_MAX_RETRIES,
        shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
        default_confidence: Optional[float] = None,
        backend: str = "numpy",
    ) -> None:
        if model is None and artifact_path is None:
            raise ValueError("ScanScheduler needs a model or an artifact_path")
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.model = model
        self.artifact_path = Path(artifact_path) if artifact_path is not None else None
        self.fingerprint = fingerprint
        self.cache = cache
        self.feature_store_dir = (
            Path(feature_store_dir) if feature_store_dir is not None else None
        )
        self.jobs = jobs if jobs is not None else default_jobs()
        self.shard_size = shard_size
        self.max_retries = max_retries
        self.shard_timeout = shard_timeout
        from ..nn.backend import get_backend

        get_backend(backend)  # validate the name before any pool spins up
        self.backend = backend
        if default_confidence is None:
            if model is not None:
                default_confidence = model.config.confidence_level
            else:
                from .artifacts import load_manifest

                manifest = load_manifest(self.artifact_path)
                default_confidence = NoodleConfig.from_dict(
                    manifest["config"]
                ).confidence_level
        self.default_confidence = default_confidence
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_broken = False
        self._parent_engine_cache: Optional[ScanEngine] = None

    @classmethod
    def from_artifact(
        cls,
        artifact_path: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        feature_store_dir: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_retries: int = DEFAULT_MAX_RETRIES,
        shard_timeout: Optional[float] = DEFAULT_SHARD_TIMEOUT,
        backend: str = "numpy",
    ) -> "ScanScheduler":
        """Build a scheduler over a persisted detector (the CLI path).

        Workers load the artifact themselves at pool start-up; the parent
        only reads the manifest (for the fingerprint and default
        confidence) and optionally attaches the sharded result cache and
        the shared feature-store root.
        """
        from .artifacts import load_manifest

        manifest = load_manifest(artifact_path)
        fingerprint = manifest.get("fingerprint", "unversioned")
        cache = ScanCache(cache_dir, fingerprint) if cache_dir is not None else None
        return cls(
            artifact_path=artifact_path,
            fingerprint=fingerprint,
            cache=cache,
            feature_store_dir=feature_store_dir,
            jobs=jobs,
            shard_size=shard_size,
            max_retries=max_retries,
            shard_timeout=shard_timeout,
            backend=backend,
        )

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Shut the persistent worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ScanScheduler":
        """Context-manager entry: the scheduler itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release the worker pool."""
        self.close()

    # -- internals -----------------------------------------------------------
    def _worker_payload(self) -> Tuple[str, Any, str, Optional[str], str]:
        store_dir = (
            str(self.feature_store_dir) if self.feature_store_dir is not None else None
        )
        if self.artifact_path is not None:
            return (
                "artifact",
                str(self.artifact_path),
                self.fingerprint,
                store_dir,
                self.backend,
            )
        return (
            "model",
            pickle.dumps(self.model, protocol=pickle.HIGHEST_PROTOCOL),
            self.fingerprint,
            store_dir,
            self.backend,
        )

    def _ensure_pool(self, n_shards: int) -> Optional[multiprocessing.pool.Pool]:
        """The persistent pool, creating it on first use; ``None`` = serial."""
        if self.jobs <= 1 or n_shards <= 1 or self._pool_broken:
            return None
        if self._pool is None:
            try:
                # Sized to `jobs`, not to this call's shard count: the pool
                # persists across scans, and a later, larger corpus must not
                # be underserved because the first scan was small.
                self._pool = multiprocessing.Pool(
                    processes=self.jobs,
                    initializer=_init_scan_worker,
                    initargs=(self._worker_payload(),),
                )
            except (OSError, RuntimeError, pickle.PicklingError):
                # Restricted environment (no fork/semaphores) or an
                # unpicklable model: degrade to the serial path for good.
                self._pool_broken = True
                return None
        return self._pool

    def _parent_engine(self) -> ScanEngine:
        """Serial-path engine in the parent process (model loaded lazily)."""
        if self._parent_engine_cache is None:
            model = self.model
            if model is None:
                from .artifacts import load_detector

                model, _ = load_detector(self.artifact_path)
            store = (
                FeatureStore(self.feature_store_dir)
                if self.feature_store_dir is not None
                else None
            )
            self._parent_engine_cache = ScanEngine(
                model,
                fingerprint=self.fingerprint,
                cache=None,
                feature_store=store,
                backend=self.backend,
            )
        return self._parent_engine_cache

    def _make_shards(self, pending: Sequence[int], sources: Sequence[ScanSource]) -> List[_Shard]:
        """Chunk pending indices (in input order) into identified shards."""
        shards: List[_Shard] = []
        for seq, start in enumerate(range(0, len(pending), self.shard_size)):
            indices = list(pending[start : start + self.shard_size])
            digest = hashlib.sha256(
                "".join(sources[i].sha256 for i in indices).encode("ascii")
            ).hexdigest()[:8]
            shards.append(_Shard(shard_id=f"{seq:04d}-{digest}", indices=indices))
        return shards

    def _shard_task(
        self,
        shard: _Shard,
        sources: Sequence[ScanSource],
        level: float,
        trace_ctx: Optional[Tuple[str, str]] = None,
    ) -> Tuple[str, List[ScanSource], float, Optional[Tuple[str, str]]]:
        return (
            shard.shard_id,
            [sources[i] for i in shard.indices],
            level,
            trace_ctx,
        )

    def _absorb_shard(
        self,
        shard: _Shard,
        record_dicts: List[dict],
        records: List[Optional[ScanRecord]],
        report: ScanReport,
        journal: Optional[ScanJournal],
    ) -> None:
        """Merge one finished shard: place records, count errors, persist."""
        fresh: List[ScanRecord] = []
        for index, data in zip(shard.indices, record_dicts):
            record = ScanRecord.from_dict(data)
            records[index] = record
            if record.error is not None:
                report.n_errors += 1
            else:
                fresh.append(record)
        if self.cache is not None:
            self.cache.put_many(fresh)
            try:
                self.cache.flush()  # per-shard durability: a kill loses at most in-flight shards
            except (OSError, CacheLockTimeout) as exc:
                # Disk-full or lock contention must not fail a scan whose
                # verdicts are already in memory: keep going without the
                # per-shard durability (the records stay dirty and every
                # later flush retries them).
                note_degraded("cache")
                logger.warning(
                    "cache flush failed after shard %s (%s: %s); continuing degraded",
                    shard.shard_id,
                    type(exc).__name__,
                    exc,
                )
        if journal is not None:
            journal.record_shard(
                shard.shard_id, "done", len(record_dicts), shard.attempts + 1
            )

    def _fail_shard(
        self,
        shard: _Shard,
        error: str,
        sources: Sequence[ScanSource],
        records: List[Optional[ScanRecord]],
        report: ScanReport,
        journal: Optional[ScanJournal],
    ) -> None:
        """Give up on a shard: every member design gets an error record."""
        message = (
            f"shard {shard.shard_id} failed after {shard.attempts} attempts: {error}"
        )
        for index in shard.indices:
            src = sources[index]
            records[index] = ScanRecord(
                name=src.name, sha256=src.sha256, source_path=src.path, error=message
            )
            report.n_errors += 1
        report.n_shard_failures += 1
        _SHARD_FAILURES.inc()
        if journal is not None:
            journal.record_shard(shard.shard_id, "failed", 0, shard.attempts)

    # -- scanning ------------------------------------------------------------
    def scan_sources(
        self,
        sources: Sequence[ScanSource],
        confidence: Optional[float] = None,
        resume: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> ScanReport:
        """Scan a corpus across the worker pool and merge deterministically.

        The merged :class:`ScanReport` lists records in input order with
        the exact p-values a serial :class:`ScanEngine` scan would produce
        (same model, same code, just sharded).  ``seconds_extract`` /
        ``seconds_inference`` are summed across workers (CPU seconds, not
        wall time); ``seconds_total`` is wall time.  With a cache attached,
        completed shards are flushed as they finish — that is what makes
        an interrupted scan resumable — and previously cached designs are
        served without touching the pool.  ``resume=True`` additionally
        continues the corpus journal of an interrupted run instead of
        starting a fresh one.  Retries, worker deaths and permanent shard
        failures are counted on the report (and the process-wide
        ``repro_engine_*`` counters).  With a ``tracer``, the run records
        a ``scheduler/scan`` span with one ``scheduler/shard`` child per
        shard — trace context crosses the multiprocessing boundary inside
        the shard task, and worker-side spans are merged back in.
        """
        if resume and self.cache is None:
            raise ValueError("resume=True requires a result cache")
        t_start = time.perf_counter()
        level = confidence if confidence is not None else self.default_confidence
        report = ScanReport(
            n_designs=len(sources), confidence_level=level, backend=self.backend
        )

        records, pending = resolve_cache_hits(self.cache, sources, level)
        report.n_cache_hits = len(sources) - len(pending)

        journal: Optional[ScanJournal] = None
        if self.cache is not None:
            digest = corpus_digest(sources)
            journal = ScanJournal(
                self.cache.namespace_dir / f"scan_state_{digest[:12]}.json",
                self.fingerprint,
                digest,
            )
            journal.start(len(sources), self.shard_size, resume=resume)

        shards = self._make_shards(pending, sources)
        queue: List[_Shard] = list(shards)
        pool = self._ensure_pool(len(shards))
        with trace_span(
            tracer, "scheduler/scan", shards=len(shards), designs=len(sources)
        ) as sched_span:
            trace_ctx = (
                (tracer.trace_id, sched_span.span_id) if tracer is not None else None
            )
            while queue:
                batch, queue = queue, []
                deaths_before = report.n_worker_deaths
                if pool is not None:
                    submitted = [
                        (shard, pool.apply_async(
                            _scan_shard_worker,
                            (self._shard_task(shard, sources, level, trace_ctx),),
                        ))
                        for shard in batch
                    ]

                    def _collect(shard: _Shard, async_result: Any):
                        try:
                            # The deadline turns a worker that died hard (whose
                            # result would never arrive) into a retryable failure.
                            return async_result.get(timeout=self.shard_timeout)
                        except multiprocessing.TimeoutError:
                            report.n_worker_deaths += 1
                            _WORKER_DEATHS.inc()
                            return (shard.shard_id, None, 0.0, 0.0, 0,
                                    f"no result within {self.shard_timeout:.0f}s "
                                    "(worker lost?)")
                        except Exception as exc:  # worker raised at pool level
                            return (shard.shard_id, None, 0.0, 0.0, 0,
                                    f"{type(exc).__name__}: {exc}")

                    # Lazy: each shard is absorbed (and its records flushed to
                    # the cache) as soon as its result is collected, so a crash
                    # mid-run loses at most the in-flight shards.
                    outcomes = ((shard, _collect(shard, ar)) for shard, ar in submitted)
                else:
                    engine = self._parent_engine()
                    engine.tracer = tracer  # serial shards trace in-process

                    def _run_serial(shard: _Shard):
                        with trace_span(
                            tracer,
                            "scheduler/shard",
                            shard=shard.shard_id,
                            designs=len(shard.indices),
                        ):
                            return _scan_shard_serial(
                                engine, self._shard_task(shard, sources, level)
                            )

                    outcomes = ((shard, _run_serial(shard)) for shard in batch)
                for shard, outcome in outcomes:
                    _, record_dicts, sec_extract, sec_inference, feature_hits, error = (
                        outcome[:6]
                    )
                    if tracer is not None and len(outcome) > 6 and outcome[6]:
                        tracer.adopt(outcome[6])
                    report.seconds_extract += sec_extract
                    report.seconds_inference += sec_inference
                    report.n_feature_hits += feature_hits
                    if error is None and record_dicts is not None:
                        self._absorb_shard(shard, record_dicts, records, report, journal)
                    else:
                        shard.attempts += 1
                        if shard.attempts <= self.max_retries:
                            queue.append(shard)
                            report.n_shard_retries += 1
                            _SHARD_RETRIES.inc()
                        else:
                            self._fail_shard(
                                shard, error or "no result", sources, records, report, journal
                            )
                if pool is not None and report.n_worker_deaths > deaths_before:
                    # Pool workers are dying mid-corpus (OOM killer, crashing
                    # native code): stop trusting the pool and run every
                    # remaining shard serially in the parent instead of
                    # burning the retry budget on replacement workers that
                    # may die the same way.
                    note_degraded("pool")
                    logger.warning(
                        "worker death detected; falling back to serial execution "
                        "for %d remaining shard(s)",
                        len(queue),
                    )
                    self._pool_broken = True
                    self.close()
                    pool = None

        report.records = [r for r in records if r is not None]
        if journal is not None:
            journal.complete()
        # Coarse stage view for ``--profile``.  These are CPU seconds
        # summed across pool workers, not slices of wall time, so they go
        # in under the ``_cpu`` suffix that ``profile_lines`` reports
        # without a share-of-total percentage.
        report.stage_seconds["extract_cpu"] = report.seconds_extract
        report.stage_seconds["infer_cpu"] = report.seconds_inference
        report.seconds_total = time.perf_counter() - t_start
        return report

    def scan_paths(
        self,
        inputs: Iterable[Union[str, Path]],
        confidence: Optional[float] = None,
        resume: bool = False,
    ) -> ScanReport:
        """Convenience wrapper: :func:`collect_sources` then :meth:`scan_sources`."""
        return self.scan_sources(
            collect_sources(inputs), confidence=confidence, resume=resume
        )


def _scan_shard_serial(
    engine: ScanEngine,
    task: Tuple[str, List[ScanSource], float],
) -> Tuple[str, Optional[List[dict]], float, float, int, Optional[str]]:
    """Serial-path twin of :func:`_scan_shard_worker` using a given engine.

    Extracts in-process, like a pool worker.  The optional fourth task
    element (the trace context) is ignored here: the serial path traces
    in-process through ``engine.tracer`` instead.
    """
    shard_id, shard_sources, level = task[0], task[1], task[2]
    try:
        report = engine.scan_sources(shard_sources, workers=1, confidence=level)
        return (
            shard_id,
            [record.to_dict() for record in report.records],
            report.seconds_extract,
            report.seconds_inference,
            report.n_feature_hits,
            None,
        )
    except Exception as exc:  # shard failures are returned and retried, never raised
        return shard_id, None, 0.0, 0.0, 0, f"{type(exc).__name__}: {exc}"
