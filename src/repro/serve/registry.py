"""Hot model registry: load detector artifacts once, swap them without downtime.

A long-lived scan service must not pay the artifact-loading cost per
request (that is exactly the cold-start the service exists to remove), but
it also must not serve a stale detector forever: recalibration
(``python -m repro calibrate``) rewrites the artifact directory in place
and changes its fingerprint.  :class:`ModelRegistry` resolves both needs:

* each artifact is loaded **once** into a :class:`repro.engine.scan.ScanEngine`
  keyed by its fingerprint, with the sharded result cache attached under
  that fingerprint (so cached verdicts can never leak across retrains);
* every lookup runs a cheap staleness probe — the ``manifest.json`` mtime
  is stat'ed, and only when it changed is the manifest re-read to compare
  fingerprints — so a recalibrated artifact is picked up on the next
  batch without restarting the server (**hot reload**), while the steady
  state costs one ``stat`` per probe.

The registry is built for **multi-model serving**: any number of artifact
paths may be resident at once (one per tenant / design family), all
sharing the one model-independent feature store.  Two properties keep the
tenants independent:

* the staleness-probe TTL is **per model**, not per registry — each
  resident entry carries its own probe clock, so a tenant that
  hot-reloads every few seconds never suppresses (or forces) probes for
  the others;
* artifact loading happens under a **per-path lock**, never under the
  registry-wide one — a tenant mid-reload (deserializing a large
  artifact) cannot block another tenant's probe, lookup or reload.

Engines are swapped atomically; an in-flight batch keeps scanning on the
engine it resolved (the old model) while the next batch gets the new one.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..faults import RELOAD_PROBE_TTL_S
from ..engine.artifacts import MANIFEST_NAME, load_detector
from ..engine.cache import ScanCache
from ..engine.feature_store import FeatureStore, default_feature_store_dir
from ..engine.scan import ScanEngine
from ..nn.backend import DEFAULT_BACKEND, get_backend

#: Default staleness-probe TTL (seconds): how long a ``maybe_reload``
#: outcome is trusted before the manifest is stat'ed again.  High-QPS
#: traffic probes once per micro-batch; without the TTL that is thousands
#: of ``stat`` calls per second against the artifact directory for a file
#: that changes a few times a day.  The value lives in the system-wide
#: policy table (:data:`repro.faults.policy.RELOAD_PROBE_TTL_S`): 250 ms
#: keeps the steady state at ~4 stats/second *per resident model* while
#: bounding hot-reload latency well under a second (and ``POST /reload``
#: always bypasses the TTL).
DEFAULT_RELOAD_TTL_S = RELOAD_PROBE_TTL_S


@dataclass
class RegisteredModel:
    """One resident detector: its engine plus the provenance of the load."""

    engine: ScanEngine
    fingerprint: str
    artifact_path: Path
    manifest_mtime: float
    loaded_at: float
    kind: str
    #: ``time.monotonic()`` of the last staleness probe.  Deliberately a
    #: per-model clock: TTL bookkeeping on the registry itself would let
    #: one frequently-probed (or hot-reloading) tenant starve every other
    #: model's staleness probes (see ``tests/test_serve_registry.py``).
    last_probe: float = 0.0

    def describe(self) -> Dict[str, object]:
        """JSON-ready summary used by ``/healthz`` and ``/reload``."""
        return {
            "fingerprint": self.fingerprint,
            "artifact": str(self.artifact_path),
            "kind": self.kind,
            "loaded_at": self.loaded_at,
        }


class ModelRegistry:
    """Fingerprint-keyed store of loaded detectors with hot reload.

    Parameters
    ----------
    cache_dir:
        Root of the sharded scan-result cache; each loaded model gets a
        :class:`repro.engine.cache.ScanCache` namespaced by its own
        fingerprint.  ``None`` serves uncached.
    cache_shard_prefix_len:
        Hash-prefix length of the attached caches' shard files.  The
        serving default is ``1`` (16 shards): a service is a single
        cache writer flushing small dirty sets, where 256-way sharding
        would turn every flush into one file write per design.  Both
        layouts coexist in one cache directory (readers merge all shard
        files).
    feature_cache:
        Attach the model-independent feature tier
        (:class:`repro.engine.feature_store.FeatureStore`, under
        ``<cache_dir>/features``).  The store is **shared by every engine
        the registry ever loads** — it is keyed by source content, not by
        model — so a hot reload keeps the warm feature tier and
        post-reload scans of known designs skip straight to inference.
        Ignored when ``cache_dir`` is ``None``.
    feature_store_dir:
        Explicit feature-tier root, overriding the ``<cache_dir>/features``
        convention (and working even without a result cache — the
        recalibration workflow wants exactly that: fresh verdicts, warm
        features).
    reload_ttl_s:
        How long (seconds) a :meth:`maybe_reload` staleness verdict is
        trusted before the manifest mtime is stat'ed again.  The clock is
        kept **per resident model** (on its :class:`RegisteredModel`), so
        probing one artifact never spends another's TTL budget.  ``0``
        restores a stat per probe; :meth:`reload` always bypasses it.
    backend:
        Inference compute backend every loaded engine runs
        (:func:`repro.nn.available_backends` lists the choices).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        cache_shard_prefix_len: int = 1,
        feature_cache: bool = True,
        feature_store_dir: Optional[Union[str, Path]] = None,
        reload_ttl_s: float = DEFAULT_RELOAD_TTL_S,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.cache_shard_prefix_len = cache_shard_prefix_len
        self.reload_ttl_s = reload_ttl_s
        get_backend(backend)  # unknown names fail at construction
        self.backend = backend
        if feature_store_dir is None and self.cache_dir is not None and feature_cache:
            feature_store_dir = default_feature_store_dir(self.cache_dir)
        # One feature store for the whole registry: the tier is
        # model-independent, so reloads and multi-model serving all share
        # (and keep warming) the same content-addressed rows.
        self.feature_store: Optional[FeatureStore] = (
            FeatureStore(feature_store_dir) if feature_store_dir is not None else None
        )
        # ``_lock`` guards only the dictionaries below — never a model
        # load.  Loading happens under the per-path lock so one tenant's
        # multi-second deserialization cannot block the others' probes.
        self._lock = threading.RLock()
        self._by_path: Dict[Path, RegisteredModel] = {}
        self._load_locks: Dict[Path, threading.Lock] = {}
        # Models swapped out by a reload whose caches may still hold
        # unflushed records; drained by the next flush_caches() call.
        # Flushing them here directly would race the batch worker, which
        # may be mid-scan (mid cache.put) on the outgoing engine.
        self._retired: List[RegisteredModel] = []

    # -- internals -----------------------------------------------------------
    def _manifest_path(self, artifact_path: Path) -> Path:
        return artifact_path / MANIFEST_NAME

    def _manifest_mtime(self, artifact_path: Path) -> float:
        """The artifact manifest's mtime (the cheap staleness signal)."""
        return os.stat(self._manifest_path(artifact_path)).st_mtime

    def _load_lock(self, path: Path) -> threading.Lock:
        """The per-artifact-path load lock (created on first use)."""
        with self._lock:
            lock = self._load_locks.get(path)
            if lock is None:
                lock = self._load_locks[path] = threading.Lock()
            return lock

    def _load(self, artifact_path: Path) -> RegisteredModel:
        """Load the detector behind ``artifact_path`` into a fresh engine."""
        mtime = self._manifest_mtime(artifact_path)
        model, manifest = load_detector(artifact_path)
        fingerprint = manifest.get("fingerprint", "unversioned")
        cache = (
            ScanCache(
                self.cache_dir,
                fingerprint,
                shard_prefix_len=self.cache_shard_prefix_len,
            )
            if self.cache_dir is not None
            else None
        )
        engine = ScanEngine(
            model,
            fingerprint=fingerprint,
            cache=cache,
            feature_store=self.feature_store,
            backend=self.backend,
        )
        return RegisteredModel(
            engine=engine,
            fingerprint=fingerprint,
            artifact_path=artifact_path,
            manifest_mtime=mtime,
            loaded_at=time.time(),
            kind=str(manifest.get("kind", "unknown")),
            last_probe=time.monotonic(),
        )

    # -- public API ----------------------------------------------------------
    def get(self, artifact_path: Union[str, Path]) -> RegisteredModel:
        """The resident model for an artifact, loading it on first use.

        Subsequent calls return the cached engine without touching the
        model files; staleness is checked separately (:meth:`maybe_reload`)
        so the hot path can choose when to pay the ``stat``.  First-use
        loading holds only this path's load lock — concurrent ``get`` /
        ``maybe_reload`` calls for *other* artifacts proceed untouched.
        """
        path = Path(artifact_path).resolve()
        with self._lock:
            entry = self._by_path.get(path)
        if entry is not None:
            return entry
        with self._load_lock(path):
            # Re-check under the load lock: another thread may have won
            # the race and loaded this artifact while we waited.
            with self._lock:
                entry = self._by_path.get(path)
                if entry is not None:
                    return entry
            fresh = self._load(path)
            with self._lock:
                entry = self._by_path.setdefault(path, fresh)
            return entry

    def maybe_reload(
        self, artifact_path: Union[str, Path]
    ) -> Tuple[RegisteredModel, bool]:
        """Return the current model, hot-reloading if the artifact changed.

        The probe is three-tier: within ``reload_ttl_s`` of **this
        model's** previous probe the resident model is returned without
        touching the filesystem at all (high-QPS traffic probes per
        micro-batch, which would otherwise ``stat`` the artifact dir
        thousands of times per second); then a ``stat`` of
        ``manifest.json`` (the steady-state cost, a few times per
        second); and only when the mtime moved is the detector re-loaded
        and its fingerprint compared.  A rewrite that produced the *same*
        fingerprint (e.g. re-saving an identical model) keeps the
        resident engine and its warm cache.  Returns ``(entry, reloaded)``.

        Each model keeps its own TTL clock and reloads under its own
        load lock, so neither a chatty prober nor a mid-reload tenant
        affects when *other* models' artifacts are probed.
        """
        path = Path(artifact_path).resolve()
        with self._lock:
            entry = self._by_path.get(path)
        if entry is None:
            return self.get(path), False
        now = time.monotonic()
        if now - entry.last_probe < self.reload_ttl_s:
            return entry, False
        entry.last_probe = now
        try:
            mtime = self._manifest_mtime(path)
        except OSError:
            # Mid-rewrite (save_detector replaces files) or the
            # artifact vanished: keep serving the resident model.
            return entry, False
        if mtime == entry.manifest_mtime:
            return entry, False
        return self._reload_path(path, entry)

    def reload(self, artifact_path: Union[str, Path]) -> Tuple[RegisteredModel, bool]:
        """Force a fingerprint check now (the ``POST /reload`` path).

        Unlike :meth:`maybe_reload` this skips the mtime short-circuit, so
        an operator can recover even from a rewrite that preserved the
        manifest mtime.  Returns ``(entry, reloaded)``.
        """
        path = Path(artifact_path).resolve()
        with self._lock:
            entry = self._by_path.get(path)
        if entry is None:
            return self.get(path), False
        return self._reload_path(path, entry)

    def _reload_path(
        self, path: Path, entry: RegisteredModel
    ) -> Tuple[RegisteredModel, bool]:
        """Reload ``path`` under its own load lock and swap if it changed.

        The fingerprint is read from the manifest alone first: a rewrite
        that produced the same model (the common recalibrate-to-identical
        or plain ``touch`` case) costs one small JSON read, not a full
        weight/calibration deserialization.  Only the per-path load lock
        is held during deserialization — the registry-wide lock is taken
        solely for the final swap, so other tenants' probes and lookups
        never wait on this model's load.
        """
        from ..engine.artifacts import ArtifactError, load_manifest

        with self._load_lock(path):
            with self._lock:
                # Another thread may have finished this exact reload
                # while we waited on the load lock.
                entry = self._by_path.get(path, entry)
            try:
                mtime = self._manifest_mtime(path)
                manifest_fingerprint = load_manifest(path).get(
                    "fingerprint", "unversioned"
                )
                if manifest_fingerprint == entry.fingerprint:
                    # Same model content: keep the resident engine (and its
                    # warm in-memory cache view), just remember the new mtime.
                    entry.manifest_mtime = mtime
                    entry.last_probe = time.monotonic()
                    return entry, False
                fresh = self._load(path)
            except (OSError, ValueError, KeyError, ArtifactError):
                # Mid-rewrite (save_detector replaces the files non-atomically)
                # or otherwise unreadable: keep serving the resident model.
                # entry.manifest_mtime is left untouched, so the next probe
                # retries once the rewrite has settled.
                return entry, False
            # The outgoing engine may still be scanning (an in-flight batch
            # keeps its reference) — retire it and let the next
            # flush_caches() persist whatever it holds.
            with self._lock:
                if entry.engine.cache is not None:
                    self._retired.append(entry)
                self._by_path[path] = fresh
            return fresh, True

    def entries(self) -> List[RegisteredModel]:
        """Every resident model (one per registered artifact path)."""
        with self._lock:
            return list(self._by_path.values())

    def flush_caches(self) -> None:
        """Flush every resident (and retired) engine's cache tiers.

        Called from the serving layer's batch workers between batches and
        on shutdown after the workers drained — i.e. never concurrently
        with a scan writing to the same cache.  Retired engines (swapped
        out by a hot reload) are flushed once here and then dropped.  The
        shared feature store is flushed once (it is one object, not
        per-engine state).
        """
        with self._lock:
            retired, self._retired = self._retired, []
            entries = list(self._by_path.values())
        for entry in entries + retired:
            if entry.engine.cache is not None:
                entry.engine.cache.flush()
        if self.feature_store is not None:
            self.feature_store.flush()
