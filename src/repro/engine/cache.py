"""Sharded, content-addressed result cache for the scan engine.

Scan results are cached per design, keyed by the SHA-256 hash of the
design's source text, inside a store that is itself namespaced by the
*model fingerprint* (see :mod:`repro.engine.artifacts`).  Two consequences:

* editing a design's HDL changes its content hash, so the stale verdict is
  simply never looked up again (invalidation by construction);
* retraining the detector changes the fingerprint, which switches to a
  fresh namespace directory, so verdicts can never leak across model
  versions.

On disk the store is **sharded**: records live in per-shard JSON files
under ``<dir>/<fp16>/shards/``, keyed by a prefix of their content hash
(256 shards at the default 2-hex-char prefix).  Every shard file is
written atomically (temp file + ``os.replace``), and flushes run under a
namespace-wide lockfile with a read-merge-write protocol, so

* a crashed scan never leaves a truncated shard behind,
* two concurrent scans against the same cache directory cannot clobber
  each other's results — each flush merges the records already on disk
  with its own dirty records before replacing the file, and
* an interrupted scan's completed shards survive and are reused on the
  next run (the resume path of :class:`repro.engine.scheduler.ScanScheduler`).

Corrupt files (truncated JSON, unreadable bytes) are never fatal: they are
quarantined next to the store as ``*.corrupt`` with a logged warning and
the affected records are simply rescanned.  The pre-sharding single-file
format (``scan_cache_<fp16>.json`` at the cache root) is no longer read:
such a file is ignored and left in place, and its designs are rescanned.
"""

from __future__ import annotations

import errno
import json
import logging
import os
import random
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Set, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from ..core.results import ScanRecord
from ..faults import (
    LOCK_ACQUIRE_DEADLINE_S,
    LOCK_RETRY_POLICY,
    LOCK_STALE_AFTER_S,
    RetryPolicy,
    corrupting_failpoint,
    failpoint,
)
from ..obs.metrics import REGISTRY

logger = logging.getLogger(__name__)

#: Bump when the on-disk record layout changes.  Version 1 was the single
#: JSON blob per fingerprint (no longer read); version 2 is the sharded store.
CACHE_SCHEMA_VERSION = 2

#: Subdirectory of a namespace that holds the per-prefix shard files.
SHARDS_DIRNAME = "shards"

#: Default number of leading hex characters of the content hash that pick
#: a record's shard file (2 -> up to 256 shard files per namespace).
DEFAULT_SHARD_PREFIX_LEN = 2

# Result-tier cache telemetry (process-wide; see docs/OBSERVABILITY.md).
_CACHE_HITS = REGISTRY.counter(
    "repro_cache_result_hits_total", "Result-cache lookups served from memory."
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_cache_result_misses_total", "Result-cache lookups that missed."
)
_CACHE_FLUSHES = REGISTRY.counter(
    "repro_cache_result_flushes_total", "Result-cache flushes that wrote shards."
)


class CacheLockTimeout(RuntimeError):
    """Raised when the namespace lockfile cannot be acquired in time."""


class _NamespaceLock:
    """Advisory lock guarding a cache namespace during flushes.

    On POSIX the lock is a kernel ``flock`` on the lockfile: it is
    released automatically when the holder exits — even SIGKILLed mid
    flush — so there are no stale locks to detect, nothing to steal, and
    no time-of-check races between waiters.  The lockfile itself is left
    in place after release (unlinking it would race fresh acquirers).

    Where ``fcntl`` is unavailable the class falls back to the portable
    ``O_CREAT | O_EXCL`` lockfile dance with best-effort staleness
    breaking: the holder's pid is recorded, a lock whose pid is provably
    dead is broken, and a lock whose holder cannot be checked is broken
    after ``stale_after`` seconds.  The fallback has a narrow
    check-then-unlink window two waiters could race through; the primary
    ``flock`` path does not.
    """

    def __init__(
        self,
        path: Path,
        timeout: float = LOCK_ACQUIRE_DEADLINE_S,
        stale_after: float = LOCK_STALE_AFTER_S,
        retry_policy: RetryPolicy = LOCK_RETRY_POLICY,
    ) -> None:
        self.path = path
        self.timeout = timeout
        self.stale_after = stale_after
        self.retry_policy = retry_policy
        # Per-lock jitter source so blocked writers do not poll in lockstep.
        self._rng = random.Random()
        self._fd: Optional[int] = None

    def _holder_state(self) -> str:
        """``"alive"``, ``"dead"`` or ``"unknown"`` for the recorded holder pid."""
        try:
            pid = int(self.path.read_text().strip() or "0")
        except (OSError, ValueError):
            return "unknown"
        if pid <= 0 or pid == os.getpid():
            return "unknown"
        try:
            os.kill(pid, 0)  # signal 0: existence probe, delivers nothing
        except ProcessLookupError:
            return "dead"
        except OSError:
            return "alive"  # exists but not ours (EPERM)
        return "alive"

    def _try_break_stale(self) -> None:
        """Remove the lockfile if its holder is provably dead or unknowably old.

        A lock whose holder pid is verifiably alive is never stolen, no
        matter its age — a legitimately slow flush keeps its lock and the
        waiter times out instead.  The age fallback only applies when the
        holder cannot be checked (other machine, unreadable file).
        """
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            return  # already released
        holder = self._holder_state()
        if holder == "alive":
            return
        if holder == "unknown" and age < self.stale_after:
            return
        logger.warning("breaking stale cache lock %s (age %.1fs)", self.path, age)
        try:
            self.path.unlink()
        except OSError:
            pass  # somebody else broke it first

    def _acquire_flock(self) -> None:
        """POSIX path: take an exclusive kernel lock on the lockfile."""
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
        deadline = time.monotonic() + self.timeout
        attempt = 0
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError as exc:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    raise CacheLockTimeout(
                        f"could not acquire cache lock {self.path} "
                        f"within {self.timeout:.1f}s"
                    ) from exc
                attempt += 1
                time.sleep(self.retry_policy.backoff_s(attempt, self._rng))
            else:
                os.ftruncate(fd, 0)
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                self._fd = fd
                return

    def _acquire_lockfile(self) -> None:
        """Fallback path: the O_CREAT|O_EXCL dance with staleness breaking."""
        deadline = time.monotonic() + self.timeout
        attempt = 0
        while True:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
                self._try_break_stale()
                if time.monotonic() >= deadline:
                    raise CacheLockTimeout(
                        f"could not acquire cache lock {self.path} "
                        f"within {self.timeout:.1f}s"
                    ) from exc
                attempt += 1
                time.sleep(self.retry_policy.backoff_s(attempt, self._rng))
            else:
                os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                os.close(fd)
                return

    def acquire(self) -> None:
        """Block until the lock is held, or raise :class:`CacheLockTimeout`."""
        if fcntl is not None:
            self._acquire_flock()
        else:  # pragma: no cover - non-POSIX platforms
            self._acquire_lockfile()

    def release(self) -> None:
        """Release the lock (idempotent)."""
        if self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
            # The lockfile stays in place: unlinking would race acquirers
            # that already opened it.
            return
        try:
            self.path.unlink()
        except OSError:
            pass

    def __enter__(self) -> "_NamespaceLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def atomic_write_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as JSON via a sibling temp file + ``os.replace``.

    The temp name embeds the writer's pid so two processes atomically
    rewriting the same file (e.g. the scheduler journal of the same
    corpus) never race on one temp path; last ``os.replace`` wins.
    """
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp_path, path)


def _quarantine(path: Path, reason: Exception) -> None:
    """Move an unreadable cache file aside as ``<name>.corrupt`` and warn."""
    target = path.with_name(path.name + ".corrupt")
    logger.warning(
        "quarantining corrupt cache file %s -> %s (%s: %s)",
        path,
        target.name,
        type(reason).__name__,
        reason,
    )
    try:
        os.replace(path, target)
    except OSError:
        pass  # a concurrent scan may have quarantined it already


def _count_store_records(path: Path) -> int:
    """Number of records in one store file (0 for unreadable files)."""
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, OSError):
        return 0
    records = data.get("records") if isinstance(data, dict) else None
    return len(records) if isinstance(records, dict) else 0


def _file_size(path: Path) -> int:
    """A file's size in bytes, 0 if it vanished (concurrent quarantine)."""
    try:
        return path.stat().st_size
    except OSError:
        return 0


def describe_result_tier(directory: Union[str, Path]) -> Dict[str, Any]:
    """Describe every fingerprint namespace under a result-cache root.

    Pure directory walking plus JSON reads — no :class:`ScanCache` is
    opened and no lock is taken, so this is safe against a live cache
    (``python -m repro cache-info`` uses it).  Quarantined ``*.corrupt``
    files are counted so an operator notices corruption that the engine
    quietly survived.
    """
    root = Path(directory)
    namespaces: List[Dict[str, Any]] = []
    if root.is_dir():
        for namespace in sorted(p for p in root.iterdir() if p.is_dir()):
            # Skip the feature tier's conventional home under the same root.
            if namespace.name == "features":
                continue
            shards = sorted((namespace / SHARDS_DIRNAME).glob("*.json"))
            corrupt = list(namespace.rglob("*.corrupt"))
            if not shards and not corrupt:
                continue
            namespaces.append(
                {
                    "fingerprint": namespace.name,
                    "n_shards": len(shards),
                    "n_records": sum(_count_store_records(p) for p in shards),
                    "bytes": sum(_file_size(p) for p in shards),
                    "n_corrupt": len(corrupt),
                }
            )
    return {
        "directory": str(root),
        "namespaces": namespaces,
        "n_records": sum(ns["n_records"] for ns in namespaces),
        "bytes": sum(ns["bytes"] for ns in namespaces),
    }


class ScanCache:
    """Per-model, content-addressed store of :class:`ScanRecord` entries.

    Parameters
    ----------
    directory:
        Cache root shared by all fingerprints (e.g. ``.repro_cache``).
    fingerprint:
        Model fingerprint namespacing this store (records never cross it).
    shard_prefix_len:
        How many leading hex characters of a record's content hash select
        its shard file.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        fingerprint: str,
        shard_prefix_len: int = DEFAULT_SHARD_PREFIX_LEN,
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = fingerprint
        self.shard_prefix_len = shard_prefix_len
        self.namespace_dir = self.directory / fingerprint[:16]
        self._shards_dir = self.namespace_dir / SHARDS_DIRNAME
        self._lock = _NamespaceLock(self.namespace_dir / ".lock")
        self._records: Dict[str, dict] = {}
        self._dirty_keys: Set[str] = set()
        self._cleared = False
        self._load()

    # -- loading -------------------------------------------------------------
    def _shard_path(self, sha256: str) -> Path:
        """The shard file a content hash belongs to."""
        return self._shards_dir / f"{sha256[: self.shard_prefix_len]}.json"

    def _read_store_file(self, path: Path) -> Dict[str, dict]:
        """Read one shard file; corrupt files are quarantined, not fatal."""
        try:
            raw = corrupting_failpoint("cache.shard.read", path.read_bytes())
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            _quarantine(path, exc)
            return {}
        if not isinstance(data, dict):
            _quarantine(path, ValueError("top-level JSON value is not an object"))
            return {}
        if data.get("schema_version") != CACHE_SCHEMA_VERSION:
            return {}
        if data.get("fingerprint") != self.fingerprint:
            return {}
        records = data.get("records", {})
        return dict(records) if isinstance(records, dict) else {}

    def _load(self) -> None:
        """Populate the in-memory view from the shard files on disk."""
        self._records = {}
        if self._shards_dir.is_dir():
            for path in sorted(self._shards_dir.glob("*.json")):
                self._records.update(self._read_store_file(path))

    def reload(self) -> None:
        """Re-read the on-disk store, keeping local unflushed records.

        Lets a long-lived cache handle pick up records flushed by a
        concurrent scan; local dirty records win over the disk copy.
        """
        dirty = {key: self._records[key] for key in self._dirty_keys if key in self._records}
        self._load()
        self._records.update(dirty)
        self._dirty_keys.update(dirty)

    # -- mapping-ish protocol ------------------------------------------------
    def __len__(self) -> int:
        """Number of records currently visible (flushed or not)."""
        return len(self._records)

    def __contains__(self, sha256: str) -> bool:
        """Whether a record for this content hash is present."""
        return sha256 in self._records

    def get(self, sha256: str) -> Optional[ScanRecord]:
        """The cached record for a content hash, marked ``cached=True``."""
        data = self._records.get(sha256)
        if data is None:
            _CACHE_MISSES.inc()
            return None
        record = ScanRecord.from_dict(data)
        record.cached = True
        _CACHE_HITS.inc()
        return record

    def put(self, record: ScanRecord) -> None:
        """Insert or overwrite the record for its content hash.

        Records carrying an ``error`` are not cached: a front-end failure
        may be transient (e.g. an unreadable file) and is cheap to retry.
        """
        if record.error is not None:
            return
        stored = record.to_dict()
        stored["cached"] = False  # cached-ness is a property of the lookup
        self._records[record.sha256] = stored
        self._dirty_keys.add(record.sha256)

    def put_many(self, records: Iterable[ScanRecord]) -> None:
        """Insert several records (see :meth:`put`)."""
        for record in records:
            self.put(record)

    def clear(self) -> None:
        """Drop all records (and every shard file on the next flush)."""
        self._records = {}
        self._dirty_keys = set()
        self._cleared = True

    # -- persistence --------------------------------------------------------
    def _delete_store_files(self) -> None:
        """Remove every shard file (lock held)."""
        if self._shards_dir.is_dir():
            for path in self._shards_dir.glob("*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    def flush(self) -> Optional[Path]:
        """Atomically persist dirty records to their shard files.

        Runs under the namespace lockfile with a read-merge-write cycle per
        affected shard: records another process flushed meanwhile are kept
        (and absorbed into this cache's in-memory view), our dirty records
        win for their own keys.  Returns the namespace directory when
        anything was written, ``None`` otherwise.
        """
        if not self._dirty_keys and not self._cleared:
            return None
        self._shards_dir.mkdir(parents=True, exist_ok=True)
        by_shard: Dict[Path, List[str]] = {}
        for key in self._dirty_keys:
            by_shard.setdefault(self._shard_path(key), []).append(key)
        with self._lock:
            failpoint("cache.flush.io")
            if self._cleared:
                self._delete_store_files()
                self._cleared = False
            for path, keys in sorted(by_shard.items()):
                on_disk = self._read_store_file(path) if path.is_file() else {}
                merged = dict(on_disk)
                merged.update((key, self._records[key]) for key in keys)
                atomic_write_json(
                    path,
                    {
                        "schema_version": CACHE_SCHEMA_VERSION,
                        "fingerprint": self.fingerprint,
                        "records": merged,
                    },
                )
                for key, value in on_disk.items():
                    self._records.setdefault(key, value)
        self._dirty_keys.clear()
        _CACHE_FLUSHES.inc()
        return self.namespace_dir
