"""Batched end-to-end scan pipeline.

The sequential way to vet ``N`` designs is to run the whole pipeline once
per design.  :class:`ScanEngine` instead restructures the work into three
batch-friendly stages:

1. **Front-end** — lexing, parsing and feature extraction are per-design
   and embarrassingly parallel, so uncached designs are fanned out in
   chunks across one process pool per call (:func:`iter_feature_rows`)
   once they are large enough to repay its start-up.
2. **Inference** — all extracted designs are assembled into one
   :class:`repro.features.MultimodalFeatures` batch and pushed through the
   vectorized CNN forward pass and the ``searchsorted`` conformal p-values
   in *single* calls, amortising per-call overhead across the batch.
3. **Triage** — each design receives a :class:`repro.core.ScanRecord`
   carrying the risk-aware :class:`repro.core.TrojanDecision`.

Results are cached by content hash (:mod:`repro.engine.cache`); a rescan of
an unchanged design is a dictionary lookup.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..core.fusion import ConformalFusionModel
from ..core.noodle import build_decisions
from ..core.results import ScanRecord
from ..faults import SHARD_DEADLINE_S, failpoint
from ..features.pipeline import MultimodalFeatures, extract_design_modalities
from ..nn.backend import DEFAULT_BACKEND, PROFILER, get_backend
from ..obs.metrics import REGISTRY
from ..obs.tracing import Tracer, trace_span
from .blas import limit_blas_threads
from .cache import CacheLockTimeout, ScanCache
from .feature_store import FeatureStore

logger = logging.getLogger(__name__)

#: File suffixes treated as HDL sources when collecting from a directory.
HDL_SUFFIXES = (".v", ".sv", ".verilog")

# Graceful-degradation telemetry: increments whenever a durability tier
# (result cache, feature store, worker pool) failed and the engine kept
# going without it — see docs/ROBUSTNESS.md for the degradation matrix.
_DEGRADED = REGISTRY.counter(
    "repro_engine_degraded_total",
    "Scans that lost a durability/parallelism tier but continued.",
    labels=("tier",),
)
_WORKER_DEATHS = REGISTRY.counter(
    "repro_engine_worker_deaths_total",
    "Extraction pools lost to a dead, stuck or failing worker.",
)

#: One extracted design: its ``(tabular, graph)`` feature rows.
FeatureRow = Tuple[np.ndarray, np.ndarray]

#: Pending sources totalling fewer characters than this (bytes, for ASCII
#: HDL) are extracted serially even when ``workers > 1``.  A per-call pool
#: costs ~100 ms to fork, initialise and spin up its BLAS threads; suite
#: designs recoup that only from ~220 KB (~100 designs), and wide designs,
#: which cost 4-6x more per byte, from well below it.
POOL_MIN_SOURCE_BYTES = 64 * 1024


def note_degraded(tier: str) -> None:
    """Count one graceful degradation of ``tier`` (``cache``/``features``/``pool``)."""
    _DEGRADED.labels(tier=tier).inc()


def hash_source(source: str) -> str:
    """SHA-256 content hash of a design's source text (the cache key)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


@dataclass
class ScanSource:
    """One design queued for scanning: a name, its source text, provenance."""

    name: str
    source: str
    path: Optional[str] = None
    sha256: str = ""

    def __post_init__(self) -> None:
        if not self.sha256:
            self.sha256 = hash_source(self.source)


def collect_sources(inputs: Iterable[Union[str, Path]]) -> List[ScanSource]:
    """Resolve files and directories into a deterministic list of sources.

    Directories are searched recursively for the suffixes in
    :data:`HDL_SUFFIXES`; plain files are read as-is regardless of suffix.
    Raises ``FileNotFoundError`` for inputs that do not exist.

    The result is **order-stable and duplicate-safe**: directory walks are
    sorted by path (``rglob`` order is filesystem-dependent, and a stable
    corpus order is what keeps scan reports, scheduler shard identities
    and served batches reproducible across machines), and every candidate
    is deduplicated by its *resolved* path, so listing a file twice,
    passing both a directory and a file inside it, or reaching the same
    file through a symlink yields one scan source (the first occurrence
    wins, under its originally given path).

    Files are decoded as UTF-8 whatever the locale, with undecodable bytes
    replaced by U+FFFD: a Latin-1 comment still scans, and a replaced byte
    in code becomes that design's lexer-error record, not a failed scan.
    """
    files: List[Path] = []
    seen: set = set()
    for item in inputs:
        path = Path(item)
        if path.is_dir():
            candidates = sorted(
                {
                    candidate
                    for suffix in HDL_SUFFIXES
                    for candidate in path.rglob(f"*{suffix}")
                    if candidate.is_file()
                }
            )
        elif path.is_file():
            candidates = [path]
        else:
            raise FileNotFoundError(f"scan input does not exist: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            files.append(candidate)
    return [
        ScanSource(
            name=path.stem,
            source=path.read_text(encoding="utf-8", errors="replace"),
            path=str(path),
        )
        for path in files
    ]


def sources_from_pairs(pairs: Iterable[Tuple[str, str]]) -> List[ScanSource]:
    """Build scan sources from in-memory ``(name, verilog_text)`` pairs."""
    return [ScanSource(name=name, source=source) for name, source in pairs]


# ---------------------------------------------------------------------------
# Parallel front-end (module-level workers so they pickle under spawn too)
# ---------------------------------------------------------------------------


def _extract_worker(
    task: Tuple[int, str],
) -> Tuple[int, Optional[FeatureRow], Optional[str]]:
    """Extract one ``(index, source)`` task -> features or error text."""
    index, source = task
    try:
        return index, extract_design_modalities(source), None
    except Exception as exc:  # front-end errors become per-design records
        return index, None, f"{type(exc).__name__}: {exc}"


def _extract_chunk(
    tasks: List[Tuple[int, str]],
) -> List[Tuple[int, Optional[FeatureRow], Optional[str]]]:
    """Pool worker: :func:`_extract_worker` over a chunk of tasks, in order.

    Only pool workers run this; the parent's serial path calls
    :func:`_extract_worker` directly, so an ``extract.worker.body=kill``
    failpoint ends a worker, never the scan.
    """
    failpoint("extract.worker.body")
    return [_extract_worker(task) for task in tasks]


def _kill_pool(pool: Any) -> None:
    """Shut an executor down without waiting for its busy or stuck workers."""
    # ProcessPoolExecutor gains a public kill_workers() only in Python 3.14.
    for process in list((pool._processes or {}).values()):
        process.kill()
    pool.shutdown(wait=True, cancel_futures=True)


def _note_pool_failure(
    exc: BaseException, n_serial: int, lost: bool, report: Optional[ScanReport]
) -> None:
    """Log and count one extraction-pool fallback to the serial path.

    ``lost`` marks a pool whose workers had started, so one of them died,
    stalled or failed; it also counts as a worker death.
    """
    note_degraded("pool")
    if lost:
        _WORKER_DEATHS.inc()
        if report is not None:
            report.n_worker_deaths += 1
    logger.warning(
        "extraction pool failed (%s: %s); extracting %d designs serially",
        type(exc).__name__,
        str(exc) or f"no chunk within {SHARD_DEADLINE_S:g} s",
        n_serial,
    )


def _await_chunk(future: Any, on_wait: Optional[Callable[[], float]]) -> Any:
    """One pool chunk's results, waited for at most :data:`SHARD_DEADLINE_S`.

    While the chunk is out, ``on_wait`` is called, and called again after
    each pause (in seconds) it returns.
    """
    import concurrent.futures

    deadline = time.monotonic() + SHARD_DEADLINE_S
    while on_wait is not None and not future.done():
        pause = on_wait()
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            break
        concurrent.futures.wait([future], timeout=min(pause, remaining))
    return future.result(timeout=max(deadline - time.monotonic(), 0.0))


def iter_feature_rows(
    sources: Sequence[ScanSource],
    workers: Optional[int] = None,
    store: Optional[FeatureStore] = None,
    report: Optional[ScanReport] = None,
    on_wait: Optional[Callable[[], float]] = None,
) -> Iterator[Tuple[int, Optional[FeatureRow], Optional[str]]]:
    """Yield ``(index, row, error)`` for every source, in input order.

    Exactly one of ``row`` (the ``(tabular, graph)`` pair) and ``error``
    is set.  With a :class:`repro.engine.feature_store.FeatureStore`
    attached, the store is consulted first — features are a pure function
    of source content, so a stored row is served without touching the HDL
    front-end — and every freshly extracted row is recorded in it (the
    caller flushes).  Store reads and writes happen in this process.

    ``workers`` defaults to ``min(4, cpu_count)``; pass ``1`` for the
    serial path, which is also taken for fewer than two pending sources or
    fewer than :data:`POOL_MIN_SOURCE_BYTES` of pending source.  Otherwise
    the pending sources are cut into ``4 * processes`` chunks and sent to
    one ``ProcessPoolExecutor``, made for this call, whose workers run
    with one BLAS thread each (:func:`repro.engine.blas.limit_blas_threads`)
    so ``workers`` is the whole parallelism.  Rows stream out as their
    chunk arrives, so a consumer works on early rows while later chunks
    are still extracting.  While the stream waits for a chunk that is not
    back yet it calls ``on_wait``, if given, and calls it again after each
    pause (in seconds) it returns, so a consumer can keep a time cadence
    through a long wait.  Serially extracted rows stream out one design
    at a time.

    A worker that dies breaks the pool at once; one that is alive but
    stuck is caught when its chunk misses
    :data:`repro.faults.policy.SHARD_DEADLINE_S`.  Either way, and when
    the pool cannot start, the pool is shut down, its workers killed, and
    the designs it has not returned are extracted serially here; the
    fallback is logged and counted as
    ``repro_engine_degraded_total{tier="pool"}``, and a pool lost after it
    started also as ``repro_engine_worker_deaths_total`` and on
    ``report.n_worker_deaths``.  A consumer that stops early (``close()``,
    or an exception that drops the generator) cancels the pending chunks
    and kills the workers, so no pool process outlives the stream.
    """
    hits: Deque[Tuple[int, FeatureRow, None]] = deque()
    tasks: List[Tuple[int, str]] = []
    for i, src in enumerate(sources):
        hit = store.get(src.sha256) if store is not None else None
        if hit is not None:
            hits.append((i, hit, None))
        else:
            tasks.append((i, src.source))
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    chunks = [tasks]
    pool: Any = None
    futures: List[Any] = []
    if (
        workers > 1
        and len(tasks) > 1
        and sum(len(task[1]) for task in tasks) >= POOL_MIN_SOURCE_BYTES
    ):
        processes = min(workers, len(tasks))
        # ``pool.map``'s chunk size, one future per chunk so every wait is bounded.
        size = -(-len(tasks) // (4 * processes))
        chunks = [tasks[start : start + size] for start in range(0, len(tasks), size)]
        try:
            import concurrent.futures

            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=processes, initializer=limit_blas_threads
            )
            for chunk in chunks:
                futures.append(pool.submit(_extract_chunk, chunk))
        except (OSError, RuntimeError) as exc:
            # The first submit starts the workers; a later one fails with
            # BrokenProcessPool (a RuntimeError) when one of them has died.
            _note_pool_failure(exc, len(tasks), bool(futures), report)
            if pool is not None:
                _kill_pool(pool)
                pool = None
    try:
        for n, chunk in enumerate(chunks):
            results = None
            if pool is not None:
                try:
                    results = _await_chunk(futures[n], on_wait)
                except Exception as exc:  # dead, stuck or failing pool: go serial
                    _note_pool_failure(exc, sum(len(c) for c in chunks[n:]), True, report)
                    _kill_pool(pool)
                    pool = None
            if results is None:
                results = map(_extract_worker, chunk)  # lazily, one design per row
            elif n == len(chunks) - 1:  # every chunk is back: the workers may exit
                pool.shutdown()
                pool = None
            for index, row, error in results:
                while hits and hits[0][0] < index:
                    yield hits.popleft()
                if row is not None and store is not None:
                    store.put(sources[index].sha256, row)
                yield index, row, error
        while hits:
            yield hits.popleft()
    finally:
        if pool is not None:  # the consumer stopped early
            _kill_pool(pool)


def collect_rows(
    items: Iterable[Tuple[int, Optional[FeatureRow], Optional[str]]],
) -> Tuple[Dict[int, FeatureRow], Dict[int, str]]:
    """Split streamed ``(index, row, error)`` items into ``(rows, errors)``.

    Both dicts are keyed by position in ``items``, so a whole stream is
    keyed by source index and a slice of it by position in the slice.
    """
    rows: Dict[int, FeatureRow] = {}
    errors: Dict[int, str] = {}
    for position, (_, row, error) in enumerate(items):
        if error is not None:
            errors[position] = error
        else:
            rows[position] = row
    return rows, errors


def extract_feature_rows(
    sources: Sequence[ScanSource],
    workers: Optional[int] = None,
    store: Optional[FeatureStore] = None,
    report: Optional[ScanReport] = None,
) -> Tuple[Dict[int, FeatureRow], Dict[int, str]]:
    """Extract ``(tabular, graph)`` rows for every source.

    Returns ``(rows, errors)`` keyed by source index: the whole of
    :func:`iter_feature_rows`, collected.  Workers, feature-store use,
    the pool's safeguards and the ``report`` it counts lost pools on are
    as documented there.
    """
    return collect_rows(
        iter_feature_rows(sources, workers=workers, store=store, report=report)
    )


def assemble_features(
    rows: Sequence[FeatureRow],
    names: Sequence[str],
) -> MultimodalFeatures:
    """Assemble per-design feature rows into one batched feature container.

    The batch matrices are preallocated once and filled slice-by-slice in
    place — each source row (often a read-only view into a feature-store
    shard) is copied exactly once, with no intermediate per-design arrays
    or list-of-arrays staging (the ``vstack``/``stack`` path materialises
    both).  Labels are unknown at scan time and filled with ``-1``
    placeholders (never read by the inference path).
    """
    n = len(rows)
    if not n:
        return MultimodalFeatures(
            tabular=np.empty((0, 0)),
            graph=np.empty((0, 0)),
            labels=np.full(0, -1, dtype=int),
            names=list(names),
        )
    first_tab, first_graph = rows[0]
    tabular = np.empty((n, first_tab.shape[-1]), dtype=first_tab.dtype)
    graph = np.empty((n, first_graph.shape[-1]), dtype=first_graph.dtype)
    for j, (tab, gra) in enumerate(rows):
        tabular[j] = tab
        graph[j] = gra
    return MultimodalFeatures(
        tabular=tabular,
        graph=graph,
        labels=np.full(n, -1, dtype=int),
        names=list(names),
    )


def resolve_cache_hits(
    cache: Optional[ScanCache],
    sources: Sequence[ScanSource],
    level: float,
) -> Tuple[List[Optional[ScanRecord]], List[int]]:
    """Serve whatever the cache already knows about a batch of sources.

    Returns ``(records, pending)``: a records list aligned with ``sources``
    (cache hits filled in, misses ``None``) and the indices still needing a
    scan.  Hits carry the (model-deterministic) cached p-values, but the
    triage decision is a pure function of those p-values and the
    *requested* confidence level, so it is rebuilt here — a hit at
    ``--confidence 0.99`` yields exactly the decision a fresh scan would.
    Shared by :class:`ScanEngine` and
    :class:`repro.engine.scheduler.ScanScheduler`.
    """
    records: List[Optional[ScanRecord]] = [None] * len(sources)
    pending: List[int] = []
    hits: List[int] = []
    for i, src in enumerate(sources):
        hit = cache.get(src.sha256) if cache is not None else None
        if hit is not None and hit.decision is not None:
            hit.name = src.name
            hit.source_path = src.path
            records[i] = hit
            hits.append(i)
        else:
            pending.append(i)
    if hits:
        hit_p_values = np.array(
            [
                [
                    records[i].decision.p_value_trojan_free,
                    records[i].decision.p_value_trojan_infected,
                ]
                for i in hits
            ]
        )
        rebuilt = build_decisions([sources[i].name for i in hits], hit_p_values, level)
        for i, decision in zip(hits, rebuilt):
            records[i].decision = decision
    return records, pending


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


#: Order in which per-stage profile timings are reported (collect is the
#: CLI's source-gathering stage; the engine fills the rest).
PROFILE_STAGES = (
    "collect",
    "cache_lookup",
    "extract",
    "infer",
    "p_value",
    "cache_flush",
)


@dataclass
class ScanReport:
    """Everything one scan run produced, plus its runtime breakdown."""

    records: List[ScanRecord] = field(default_factory=list)
    n_designs: int = 0
    n_cache_hits: int = 0
    n_feature_hits: int = 0
    n_errors: int = 0
    seconds_extract: float = 0.0
    seconds_inference: float = 0.0
    seconds_total: float = 0.0
    confidence_level: float = 0.9
    #: Shard steps the scheduler retried after a recoverable error.
    n_shard_retries: int = 0
    #: Extraction pools lost to a dead or stuck worker (the parent then
    #: extracted the rest serially).
    n_worker_deaths: int = 0
    #: Shards that exhausted their retry budget and were failed outright.
    n_shard_failures: int = 0
    #: Name of the compute backend that ran inference (see
    #: :mod:`repro.nn.backend`); recorded in the results-JSON profile block.
    backend: str = DEFAULT_BACKEND
    #: Per-stage wall-time breakdown (:data:`PROFILE_STAGES` keys, plus
    #: ``infer/<sub-stage>`` entries for non-default backends), filled by
    #: the engine on every scan and surfaced by ``scan --profile``.
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def n_scanned(self) -> int:
        """Designs that went through the model this run (not cached/errored)."""
        return self.n_designs - self.n_cache_hits - self.n_errors

    def triage(self) -> Dict[str, List[ScanRecord]]:
        """Partition records into accept / reject / review / error queues."""
        queues: Dict[str, List[ScanRecord]] = {
            "accept": [],
            "reject": [],
            "review": [],
            "error": [],
        }
        for record in self.records:
            decision = record.decision
            if decision is None:
                queues["error"].append(record)
            elif decision.is_uncertain or decision.is_empty:
                queues["review"].append(record)
            elif decision.predicted_label == 1:
                queues["reject"].append(record)
            else:
                queues["accept"].append(record)
        return queues

    def summary_lines(self) -> List[str]:
        """Human-readable run summary used by the CLI."""
        queues = self.triage()
        feature = (
            f", {self.n_feature_hits} feature hits" if self.n_feature_hits else ""
        )
        lines = [
            f"designs scanned : {self.n_designs} "
            f"({self.n_cache_hits} cache hits{feature}, {self.n_errors} errors)",
            f"wall time       : {self.seconds_total:.3f}s "
            f"(extract {self.seconds_extract:.3f}s, "
            f"inference {self.seconds_inference:.3f}s)",
            f"triage @ {self.confidence_level:.0%} confidence: "
            f"{len(queues['accept'])} accept, {len(queues['reject'])} reject, "
            f"{len(queues['review'])} manual review",
        ]
        if self.n_shard_retries or self.n_worker_deaths or self.n_shard_failures:
            lines.append(
                f"scheduler       : {self.n_shard_retries} shard retries, "
                f"{self.n_worker_deaths} worker deaths, "
                f"{self.n_shard_failures} shards failed"
            )
        return lines

    def profile_lines(self) -> List[str]:
        """Per-stage timing breakdown (the ``scan --profile`` output).

        Stages are listed in pipeline order with their share of the total
        wall time, plus an ``(other)`` line for time the instrumented
        stages do not account for (record bookkeeping, report assembly).
        ``collect`` runs in the CLI before the engine's clock starts, so
        the total here is ``seconds_total`` plus the collect stage.
        Non-default compute backends additionally break the ``infer``
        stage down into its ``infer/<sub-stage>`` components (prep / gemm
        / activation), indented under the infer line; sub-stages are part
        of the infer time, so they do not count toward the total again.
        """
        grand_total = self.seconds_total + self.stage_seconds.get("collect", 0.0)
        total = max(grand_total, 1e-12)
        lines = [f"stage timings ({self.backend} backend):"]
        accounted = 0.0
        for stage in PROFILE_STAGES:
            seconds = self.stage_seconds.get(stage)
            if seconds is None:
                continue
            accounted += seconds
            lines.append(f"  {stage:<12} {seconds:9.4f}s  {seconds / total:6.1%}")
            if stage == "infer":
                for sub in sorted(self.stage_seconds):
                    if sub.startswith("infer/"):
                        sub_seconds = self.stage_seconds[sub]
                        name = sub.split("/", 1)[1]
                        lines.append(f"    {name:<10} {sub_seconds:9.4f}s")
        other = max(grand_total - accounted, 0.0)
        lines.append(f"  {'(other)':<12} {other:9.4f}s  {other / total:6.1%}")
        lines.append(f"  {'total':<12} {grand_total:9.4f}s")
        return lines

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (consumed by ``python -m repro report``)."""
        return {
            "n_designs": self.n_designs,
            "n_cache_hits": self.n_cache_hits,
            "n_feature_hits": self.n_feature_hits,
            "n_errors": self.n_errors,
            "seconds_extract": self.seconds_extract,
            "seconds_inference": self.seconds_inference,
            "seconds_total": self.seconds_total,
            "confidence_level": self.confidence_level,
            "scheduler": {
                "shard_retries": self.n_shard_retries,
                "worker_deaths": self.n_worker_deaths,
                "shard_failures": self.n_shard_failures,
            },
            "profile": {"backend": self.backend, **self.stage_seconds},
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScanReport":
        """Rebuild a report from :meth:`to_dict` output."""
        profile = dict(data.get("profile", {}))
        backend = str(profile.pop("backend", DEFAULT_BACKEND))
        scheduler = dict(data.get("scheduler", {}))
        return cls(
            records=[ScanRecord.from_dict(r) for r in data.get("records", [])],
            n_designs=int(data.get("n_designs", 0)),
            n_cache_hits=int(data.get("n_cache_hits", 0)),
            n_feature_hits=int(data.get("n_feature_hits", 0)),
            n_errors=int(data.get("n_errors", 0)),
            seconds_extract=float(data.get("seconds_extract", 0.0)),
            seconds_inference=float(data.get("seconds_inference", 0.0)),
            seconds_total=float(data.get("seconds_total", 0.0)),
            confidence_level=float(data.get("confidence_level", 0.9)),
            n_shard_retries=int(scheduler.get("shard_retries", 0)),
            n_worker_deaths=int(scheduler.get("worker_deaths", 0)),
            n_shard_failures=int(scheduler.get("shard_failures", 0)),
            backend=backend,
            stage_seconds=profile,
        )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class ScanEngine:
    """Batched scanner around a fitted fusion detector.

    Parameters
    ----------
    model:
        A fitted :class:`ConformalFusionModel` (typically restored via
        :func:`repro.engine.artifacts.load_detector`).
    fingerprint:
        The artifact fingerprint used to namespace the result cache; any
        stable identifier works for in-memory models.
    cache:
        Optional :class:`ScanCache`; omit to scan uncached.
    feature_store:
        Optional model-independent
        :class:`repro.engine.feature_store.FeatureStore`.  Designs whose
        content hash is in the store skip the HDL front-end entirely —
        a rescan under a fresh model fingerprint (recalibration, hot
        reload) pays only the forward pass.
    backend:
        Compute backend for the forward pass (see
        :mod:`repro.nn.backend`): ``"numpy"`` is the golden float64
        reference, ``"fused_f32"`` the fused float32 inference path.
        Raises ``ValueError`` for unknown names.
    """

    def __init__(
        self,
        model: ConformalFusionModel,
        fingerprint: str = "unversioned",
        cache: Optional[ScanCache] = None,
        feature_store: Optional[FeatureStore] = None,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        get_backend(backend)  # validate the name before any work happens
        self.model = model
        self.fingerprint = fingerprint
        self.cache = cache
        self.feature_store = feature_store
        self.backend = backend
        if hasattr(model, "set_backend"):
            model.set_backend(backend)
        elif backend != DEFAULT_BACKEND:
            raise ValueError(
                f"model {type(model).__name__} does not support compute-backend "
                f"selection; only the default {DEFAULT_BACKEND!r} backend works"
            )

    @classmethod
    def from_artifact(
        cls,
        artifact_path: Union[str, Path],
        cache_dir: Optional[Union[str, Path]] = None,
        feature_store_dir: Optional[Union[str, Path]] = None,
        backend: str = DEFAULT_BACKEND,
    ) -> "ScanEngine":
        """Load a persisted detector and (optionally) attach the cache tiers.

        ``cache_dir`` attaches the fingerprint-namespaced result tier;
        ``feature_store_dir`` attaches the model-independent feature tier
        (conventionally ``<cache_dir>/features`` — the CLI wires that up).
        """
        from .artifacts import load_detector

        get_backend(backend)  # fail fast, before the artifact load
        model, manifest = load_detector(artifact_path)
        fingerprint = manifest.get("fingerprint", "unversioned")
        cache = ScanCache(cache_dir, fingerprint) if cache_dir is not None else None
        store = FeatureStore(feature_store_dir) if feature_store_dir is not None else None
        return cls(
            model, fingerprint=fingerprint, cache=cache, feature_store=store, backend=backend
        )

    # -- scanning ------------------------------------------------------------
    def scan_sources(
        self,
        sources: Sequence[ScanSource],
        workers: Optional[int] = None,
        confidence: Optional[float] = None,
        flush_cache: bool = True,
        tracer: Optional[Tracer] = None,
    ) -> ScanReport:
        """Scan a batch of designs and return per-design triage records.

        Cached designs (same content hash, same model fingerprint) are
        served from the cache; the rest go through parallel feature
        extraction and one batched inference call.  With a feature store
        attached, designs whose features are stored skip extraction and go
        straight to inference (and fresh extractions are persisted into
        the store for every future model).  The record order always
        matches the input order.  ``flush_cache=False`` records fresh
        results in the cache tiers but defers the disk flushes to the
        caller (the serving layer flushes off the response critical path);
        the default keeps the one-shot behaviour of flushing before
        returning.  ``stage_seconds`` on the returned report carries the
        per-stage wall-time breakdown (``scan --profile``); the breakdown
        is measured with :func:`repro.obs.tracing.trace_span`, so passing
        a ``tracer`` additionally records the stage spans (``scan/extract``
        → ``scan/featurize`` → ``scan/infer`` → ``scan/fuse``, plus the
        cache stages) as children of the caller's current span.
        """
        t_start = time.perf_counter()
        level = confidence if confidence is not None else self.model.config.confidence_level
        report = ScanReport(
            n_designs=len(sources), confidence_level=level, backend=self.backend
        )

        # 1. result-cache lookups (decision rebuilt at the requested level).
        with trace_span(tracer, "scan/cache_lookup", designs=len(sources)) as sp_cache:
            records, pending = resolve_cache_hits(self.cache, sources, level)
        report.n_cache_hits = len(sources) - len(pending)
        report.stage_seconds["cache_lookup"] = sp_cache.duration_s

        # 2. feature store + parallel front-end for the result-cache misses
        store = self.feature_store
        hits_before = store.n_hits if store is not None else 0
        pending_sources = [sources[i] for i in pending]
        with trace_span(tracer, "scan/extract", designs=len(pending)) as sp_extract:
            rows, errors = (
                extract_feature_rows(
                    pending_sources, workers=workers, store=store, report=report
                )
                if pending
                else ({}, {})
            )
        report.n_feature_hits = (store.n_hits - hits_before) if store is not None else 0
        report.seconds_extract = sp_extract.duration_s
        report.stage_seconds["extract"] = report.seconds_extract

        # 3. one batched forward pass + searchsorted p-values for the rest
        fresh = self.infer_records(pending_sources, rows, errors, level, report, tracer)
        for i, record in zip(pending, fresh):
            records[i] = record
        report.n_errors = len(errors)

        # 4. persist fresh results (both tiers)
        with trace_span(tracer, "scan/cache_flush") as sp_flush:
            report.records = [r for r in records if r is not None]
            if self.cache is not None:
                self.cache.put_many(fresh)
            if flush_cache:
                self.flush()
        report.stage_seconds["cache_flush"] = sp_flush.duration_s
        report.seconds_total = time.perf_counter() - t_start
        return report

    def infer_records(
        self,
        sources: Sequence[ScanSource],
        rows: Mapping[int, FeatureRow],
        errors: Mapping[int, str],
        level: float,
        report: ScanReport,
        tracer: Optional[Tracer] = None,
    ) -> List[ScanRecord]:
        """Turn freshly extracted designs into records, in input order.

        ``rows`` and ``errors`` are keyed by position in ``sources``, as
        :func:`extract_feature_rows` returns them, and every source is in
        exactly one.  An error becomes an error record; the rows are
        assembled into one batch for a single forward pass and p-value
        call, then triaged at confidence ``level``.  The ``infer`` and
        ``p_value`` stage times (and a non-default backend's
        ``infer/<sub-stage>`` times) accumulate on ``report``, so the
        scheduler can call this once per shard.  Nothing is cached or
        counted here.
        """
        records: List[Optional[ScanRecord]] = [None] * len(sources)
        for j, message in errors.items():
            src = sources[j]
            records[j] = ScanRecord(
                name=src.name, sha256=src.sha256, source_path=src.path, error=message
            )
        scanned = [j for j in range(len(sources)) if j in rows]
        stages = report.stage_seconds
        with trace_span(tracer, "scan/infer", designs=len(scanned)) as sp_infer:
            if scanned:
                with trace_span(tracer, "scan/featurize", designs=len(scanned)):
                    batch = assemble_features(
                        [rows[j] for j in scanned], [sources[j].name for j in scanned]
                    )
                profiled = self.backend != DEFAULT_BACKEND
                if profiled:
                    PROFILER.reset()
                p_values = self.model.p_values(batch)
                if profiled:
                    for sub_stage, sub_seconds in PROFILER.snapshot().items():
                        key = f"infer/{sub_stage}"
                        stages[key] = stages.get(key, 0.0) + sub_seconds
        with trace_span(tracer, "scan/fuse", designs=len(scanned)) as sp_fuse:
            if scanned:
                decisions = build_decisions(batch.names, p_values, level)
                for j, decision in zip(scanned, decisions):
                    src = sources[j]
                    records[j] = ScanRecord(
                        name=src.name,
                        sha256=src.sha256,
                        decision=decision,
                        source_path=src.path,
                    )
        report.seconds_inference += sp_infer.duration_s + sp_fuse.duration_s
        stages["infer"] = stages.get("infer", 0.0) + sp_infer.duration_s
        stages["p_value"] = stages.get("p_value", 0.0) + sp_fuse.duration_s
        return records  # type: ignore[return-value]  # every slot is filled

    def flush(self) -> None:
        """Write both cache tiers to disk; a failing tier degrades the scan.

        The verdicts are already computed and in memory, so a full disk or
        a contended lock costs durability, not correctness: the failure is
        logged and counted as ``repro_engine_degraded_total{tier=...}``
        (``cache`` or ``features``), and the unflushed entries stay dirty
        for the next flush to retry.
        """
        for tier, label, name, kind in (
            (self.cache, "cache", "result-cache", "result"),
            (self.feature_store, "features", "feature-store", "feature"),
        ):
            if tier is None:
                continue
            try:
                tier.flush()
            except (OSError, CacheLockTimeout) as exc:
                note_degraded(label)
                logger.warning(
                    "%s flush failed (%s: %s); scan continues without %s durability",
                    name,
                    type(exc).__name__,
                    exc,
                    kind,
                )

    def scan_paths(
        self,
        inputs: Iterable[Union[str, Path]],
        workers: Optional[int] = None,
        confidence: Optional[float] = None,
    ) -> ScanReport:
        """Convenience wrapper: :func:`collect_sources` then :meth:`scan_sources`."""
        return self.scan_sources(
            collect_sources(inputs), workers=workers, confidence=confidence
        )
