"""Sharded, resumable corpus scans over one :class:`ScanEngine`.

:class:`ScanScheduler` scans a corpus in shards of ``shard_size`` designs.
The engine's extraction stream (:func:`repro.engine.scan.iter_feature_rows`,
one process pool per call) yields feature rows in input order; the parent
takes each shard's rows as they arrive and infers them through
:meth:`ScanEngine.infer_records`, the method a plain engine scan uses, so
records are identical to a :class:`ScanEngine` scan of the same corpus.

On top of that the scheduler adds what a scan-a-whole-corpus job needs:

* **Resumability** — fresh records go into the sharded
  :class:`repro.engine.cache.ScanCache`, and the result cache, the feature
  store and a per-corpus :class:`ScanJournal` are flushed together once
  :data:`FLUSH_INTERVAL_S` has passed since the last flush and a shard
  has been inferred since — checked after each shard and, while the scan
  waits for rows still in the pool, when it comes due — and once at the
  end.  A scan killed mid-run loses at most about one flush interval of
  inferred shards, plus the chunks the pool had not returned; the next
  run serves every flushed design from the cache and scans only the
  rest.
  ``--resume`` continues the corpus journal instead of starting a fresh
  one.
* **Bounded retry** — a shard whose inference raises is retried up to
  ``max_retries`` times; designs in a shard that keeps failing get
  explicit error records instead of failing the whole scan.
* **Graceful degradation** — a dead or stuck extraction worker costs the
  pool, not the scan: the stream extracts what the pool did not return
  in the parent, and the loss is counted in ``n_worker_deaths``.

See ``docs/ENGINE.md`` for the full resume/retry semantics.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from ..core.results import ScanRecord
from ..faults import SHARD_RETRY_POLICY
from ..obs.metrics import REGISTRY
from ..obs.tracing import Tracer, trace_span
from .cache import atomic_write_json
from .scan import (
    FeatureRow,
    ScanEngine,
    ScanReport,
    ScanSource,
    collect_rows,
    iter_feature_rows,
    resolve_cache_hits,
)

logger = logging.getLogger(__name__)

#: Default number of designs per scheduler shard.
DEFAULT_SHARD_SIZE = 16

#: Default bounded-retry budget for failed shards (total tries = 1 + retries).
#: Sourced from the system-wide policy table (see docs/ROBUSTNESS.md).
DEFAULT_MAX_RETRIES = SHARD_RETRY_POLICY.max_retries

#: Seconds between checkpoints, each of which flushes the result cache,
#: the feature store and the journal together.  It bounds what a killed
#: scan loses, also while the scan waits on the pool.
#: Flushing after every 16-design shard instead cost 851 ms of
#: feature-store flushes for 1,000 designs, against 13 ms for one flush
#: of the same rows (2-vCPU VM).
FLUSH_INTERVAL_S = 1.0

JOURNAL_SCHEMA_VERSION = 1

# Scheduler reliability telemetry (process-wide; surfaced in the scan
# summary line and, under serve, in /metrics — see docs/OBSERVABILITY.md).
_SHARD_RETRIES = REGISTRY.counter(
    "repro_engine_shard_retries_total", "Shards retried after a recoverable failure."
)
_SHARD_FAILURES = REGISTRY.counter(
    "repro_engine_shard_failures_total",
    "Shards failed permanently after exhausting the retry budget.",
)


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
# Journal
# ---------------------------------------------------------------------------


class ScanJournal:
    """Atomic per-corpus progress journal living in the cache namespace.

    One JSON file per ``(fingerprint, corpus)`` pair recording which
    shards completed or failed and how many runs have touched this
    corpus.  Shard outcomes are recorded in memory and written with the
    scheduler's checkpoints, after the cache tiers they describe.  The
    journal is *observability*: the correctness of resume comes from the
    sharded result cache (every flushed design is served from it), the
    journal tells an operator how an interrupted or retried scan actually
    progressed.
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
        self.write()

    def record_shard(
        self, shard_id: str, status: str, n_records: int, attempts: int
    ) -> None:
        """Record one shard's outcome (``"done"`` or ``"failed"``) in memory."""
        self.state["shards"][shard_id] = {
            "status": status,
            "n_records": n_records,
            "attempts": attempts,
        }

    def complete(self) -> None:
        """Mark the run finished (written by the next :meth:`write`)."""
        self.state["status"] = "complete"

    def write(self) -> None:
        """Atomically write the journal."""
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
    """Sharded, resumable, retrying scanner driving one engine.

    Parameters
    ----------
    engine:
        The :class:`ScanEngine` whose model, backend, result cache and
        feature store the scan uses.  A result cache is required for
        resumable scans.
    shard_size:
        Designs per shard — the granularity of inference, retry and the
        journal.
    max_retries:
        How many times a failed shard is retried before its designs get
        error records.
    """

    def __init__(
        self,
        engine: ScanEngine,
        shard_size: int = DEFAULT_SHARD_SIZE,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.engine = engine
        self.shard_size = shard_size
        self.max_retries = max_retries

    # -- internals -----------------------------------------------------------
    def _make_shards(
        self, pending: Sequence[int], sources: Sequence[ScanSource]
    ) -> List[_Shard]:
        """Chunk pending indices (in input order) into identified shards."""
        shards: List[_Shard] = []
        for seq, start in enumerate(range(0, len(pending), self.shard_size)):
            indices = list(pending[start : start + self.shard_size])
            digest = hashlib.sha256(
                "".join(sources[i].sha256 for i in indices).encode("ascii")
            ).hexdigest()[:8]
            shards.append(_Shard(shard_id=f"{seq:04d}-{digest}", indices=indices))
        return shards

    def _scan_shard(
        self,
        shard: _Shard,
        sources: Sequence[ScanSource],
        rows: Dict[int, FeatureRow],
        errors: Dict[int, str],
        level: float,
        records: List[Optional[ScanRecord]],
        report: ScanReport,
        journal: Optional[ScanJournal],
        tracer: Optional[Tracer],
    ) -> None:
        """Infer one shard's extracted rows, retrying a failed attempt."""
        shard_sources = [sources[i] for i in shard.indices]
        while True:
            try:
                fresh = self.engine.infer_records(
                    shard_sources, rows, errors, level, report, tracer
                )
                break
            except Exception as exc:  # a shard failure is retried, then recorded
                shard.attempts += 1
                logger.warning(
                    "shard %s failed (attempt %d of %d)",
                    shard.shard_id,
                    shard.attempts,
                    self.max_retries + 1,
                    exc_info=True,
                )
                if shard.attempts > self.max_retries:
                    error = f"{type(exc).__name__}: {exc}"
                    self._fail_shard(shard, error, sources, records, report, journal)
                    return
                report.n_shard_retries += 1
                _SHARD_RETRIES.inc()
        for index, record in zip(shard.indices, fresh):
            records[index] = record
        report.n_errors += sum(record.error is not None for record in fresh)
        if self.engine.cache is not None:
            self.engine.cache.put_many(fresh)
        if journal is not None:
            journal.record_shard(shard.shard_id, "done", len(fresh), shard.attempts + 1)

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

    def _checkpoint(
        self,
        journal: Optional[ScanJournal],
        report: ScanReport,
        tracer: Optional[Tracer],
    ) -> None:
        """Flush both cache tiers, then the journal that describes them."""
        with trace_span(tracer, "scan/cache_flush") as span:
            self.engine.flush()
            if journal is not None:
                journal.write()
        stages = report.stage_seconds
        stages["cache_flush"] = stages.get("cache_flush", 0.0) + span.duration_s

    # -- scanning ------------------------------------------------------------
    def scan_sources(
        self,
        sources: Sequence[ScanSource],
        workers: Optional[int] = None,
        confidence: Optional[float] = None,
        resume: bool = False,
        tracer: Optional[Tracer] = None,
    ) -> ScanReport:
        """Scan a corpus shard by shard and return records in input order.

        The records equal those of ``engine.scan_sources`` on the same
        corpus.  Previously cached designs are served without extraction;
        the rest stream through one extraction pool of ``workers``
        processes (as in :meth:`ScanEngine.scan_sources`) and are inferred
        here one shard at a time.  ``resume=True`` continues the corpus
        journal of an interrupted run instead of starting a fresh one.
        Retries, lost pools and permanent shard failures are counted on
        the report (and the process-wide ``repro_engine_*`` counters).
        ``stage_seconds`` holds wall-clock ``cache_lookup``, ``extract``
        (time spent waiting for rows), ``infer``, ``p_value`` and
        ``cache_flush`` stages.  With a ``tracer``, the run records a
        ``scheduler/scan`` span with one ``scheduler/shard`` child per
        shard, each holding that shard's ``scan/extract`` wait and
        inference spans.
        """
        engine = self.engine
        if resume and engine.cache is None:
            raise ValueError("resume=True requires a result cache")
        t_start = time.perf_counter()
        level = (
            confidence if confidence is not None else engine.model.config.confidence_level
        )
        report = ScanReport(
            n_designs=len(sources), confidence_level=level, backend=engine.backend
        )
        with trace_span(tracer, "scheduler/scan", designs=len(sources)) as sched_span:
            with trace_span(tracer, "scan/cache_lookup", designs=len(sources)) as sp_cache:
                records, pending = resolve_cache_hits(engine.cache, sources, level)
            report.n_cache_hits = len(sources) - len(pending)
            report.stage_seconds["cache_lookup"] = sp_cache.duration_s

            journal: Optional[ScanJournal] = None
            if engine.cache is not None:
                digest = corpus_digest(sources)
                journal = ScanJournal(
                    engine.cache.namespace_dir / f"scan_state_{digest[:12]}.json",
                    engine.fingerprint,
                    digest,
                )
                journal.start(len(sources), self.shard_size, resume=resume)

            shards = self._make_shards(pending, sources)
            sched_span.attrs["shards"] = len(shards)
            last_flush = time.monotonic()
            unflushed = 0  # shards inferred since the last checkpoint

            def checkpoint() -> None:
                nonlocal last_flush, unflushed
                self._checkpoint(journal, report, tracer)
                last_flush, unflushed = time.monotonic(), 0

            def while_waiting() -> float:
                # The next rows are still in the pool: keep the checkpoint
                # cadence through the wait.  Returns seconds until it is due.
                due = last_flush + FLUSH_INTERVAL_S - time.monotonic()
                if unflushed and due <= 0:
                    checkpoint()
                return due if unflushed else math.inf

            store = engine.feature_store
            hits_before = store.n_hits if store is not None else 0
            stream = iter_feature_rows(
                [sources[i] for i in pending],
                workers=workers,
                store=store,
                report=report,
                on_wait=while_waiting,
            )
            stages = report.stage_seconds
            try:
                for shard in shards:
                    with trace_span(
                        tracer,
                        "scheduler/shard",
                        shard=shard.shard_id,
                        designs=len(shard.indices),
                    ):
                        flushed_before = stages.get("cache_flush", 0.0)
                        with trace_span(
                            tracer, "scan/extract", designs=len(shard.indices)
                        ) as sp_extract:
                            rows, errors = collect_rows(
                                itertools.islice(stream, len(shard.indices))
                            )
                        # A checkpoint made while waiting is flush time, not extract.
                        report.seconds_extract += sp_extract.duration_s - (
                            stages.get("cache_flush", 0.0) - flushed_before
                        )
                        self._scan_shard(
                            shard, sources, rows, errors, level, records, report,
                            journal, tracer,
                        )
                    unflushed += 1
                    if time.monotonic() - last_flush >= FLUSH_INTERVAL_S:
                        checkpoint()
            finally:
                stream.close()  # an early exit must not leave pool workers behind
            report.n_feature_hits = (
                store.n_hits - hits_before if store is not None else 0
            )
            if journal is not None:
                journal.complete()
            self._checkpoint(journal, report, tracer)

        report.records = [r for r in records if r is not None]
        report.stage_seconds["extract"] = report.seconds_extract
        report.seconds_total = time.perf_counter() - t_start
        return report
