"""Model-independent feature cache: extracted modalities keyed by content hash.

The scan pipeline is two-stage: expensive per-design feature extraction
(HDL lex/parse, graph construction, graph and tabular features — mostly
pure Python) followed by a cheap batched CNN forward pass +
``searchsorted`` conformal p-values.  The result cache
(:mod:`repro.engine.cache`) sits *above* both stages and is namespaced by
model fingerprint, so the exact workflow the serving layer promotes —
recalibrate, hot-reload, rescan — used to invalidate everything and
re-pay the dominant extraction cost for designs whose source never
changed.

:class:`FeatureStore` is the missing tier underneath: a content-addressed
store of the assembled multimodal feature rows (``(tabular, graph)`` as
produced by :func:`repro.features.pipeline.extract_design_modalities`),
keyed by the design's SHA-256 content hash and **independent of any
model**.  With it, a rescan under a fresh fingerprint pays only the
forward pass: feature rows are looked up by content hash, assembled into
the batch matrix and pushed straight through inference.

Correctness of the tier rests on two invariants:

* **Content addressing** — a design's features are a pure function of its
  source text, so a row written once is valid for every future scan of
  identical source bytes, under any model.
* **Schema fingerprinting** — the store is namespaced by a fingerprint of
  the feature *schema* (:func:`feature_schema_fingerprint`): the feature
  name lists and :data:`repro.features.pipeline.FEATURE_EXTRACTION_VERSION`.
  Changing feature-extraction code bumps the version, which moves the
  store to a fresh namespace — stale rows are never looked up again
  (invalidation by construction, exactly like the result tier's model
  fingerprint).

On disk the store mirrors the result cache's concurrency discipline while
packing rows densely for zero-copy batch assembly: rows live in per-shard
``.npz`` files under ``<root>/<schema16>/shards/`` keyed by a prefix of
the content hash, each holding a ``meta`` JSON blob, the ``keys`` array
and the parallel stacked ``tabular`` and ``graph`` matrices.  All files
are written atomically (temp file + ``os.replace``); unreadable files are
quarantined as ``*.corrupt`` and their rows simply re-extracted.  Loaded
rows are *views* into the shard matrices — serving a warm batch never
copies per-design arrays.

Flushes are **append-only**: dirty rows are written as new *segment*
files (``<prefix>.<seq>.seg.npz``, same packed format) next to the base
shard instead of rewriting it, so a flush costs O(dirty rows) no matter
how large the shard has grown.  Reads merge newest-segment-first over the
base shard, so a later flush of the same content hash wins.  Segments are
folded back into the base shard by :meth:`FeatureStore.compact` — run
automatically once a prefix accumulates
:data:`SEGMENT_COMPACT_THRESHOLD` segments, and on demand by
``python -m repro cache-gc``.  Both flush and compaction run under the
namespace ``flock`` lockfile so concurrent writers (two schedulers, a
scheduler and a service) cannot clobber each other.
"""

from __future__ import annotations

import io
import json
import logging
import os
import struct
import threading
import zipfile
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from ..faults import corrupting_failpoint, failpoint
from ..features.pipeline import feature_schema_fingerprint
from ..obs.metrics import REGISTRY
from .cache import _NamespaceLock, _file_size, _quarantine

logger = logging.getLogger(__name__)

#: One extracted design: ``(tabular_row, graph_row)``.
FeatureRow = Tuple[np.ndarray, np.ndarray]

#: Bump when the on-disk shard layout (not the feature schema) changes.
FEATURE_STORE_VERSION = 2

# Feature-tier telemetry (process-wide; see docs/OBSERVABILITY.md).
_FEATURE_HITS = REGISTRY.counter(
    "repro_featurestore_hits_total", "Feature-store lookups served from a shard."
)
_FEATURE_MISSES = REGISTRY.counter(
    "repro_featurestore_misses_total", "Feature-store lookups that missed."
)

#: Subdirectory of a schema namespace that holds the packed shard files.
SHARDS_DIRNAME = "shards"

#: Default number of leading hex characters of the content hash that pick
#: a row's shard file (1 -> up to 16 shard files per namespace).  Denser
#: than the result cache's 256-way default on purpose: a warm scan opens
#: every shard its batch touches, and ``np.load``'s per-file zip/header
#: parsing dominates the warm path — 16 larger files keep a whole-corpus
#: lookup at a handful of opens while read-merge-write flushes stay
#: well-bounded for realistic corpus sizes.
DEFAULT_SHARD_PREFIX_LEN = 1

#: A flush that finds this many segment files for one shard prefix folds
#: them into the base shard right away (bounds merge-on-read work while
#: keeping the common flush append-only).
SEGMENT_COMPACT_THRESHOLD = 16

#: Filename suffix distinguishing append-only segment files from base shards.
SEGMENT_SUFFIX = ".seg.npz"


def default_feature_store_dir(cache_dir: Union[str, Path]) -> Path:
    """The feature tier's conventional location under a cache root."""
    return Path(cache_dir) / "features"


class FeatureStore:
    """Packed, content-addressed store of extracted feature rows.

    Parameters
    ----------
    directory:
        Feature-tier root shared by every schema fingerprint (conventionally
        ``<cache_dir>/features``, see :func:`default_feature_store_dir`).
    shard_prefix_len:
        How many leading hex characters of a row's content hash select its
        shard file.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        shard_prefix_len: int = DEFAULT_SHARD_PREFIX_LEN,
    ) -> None:
        self.directory = Path(directory)
        self.shard_prefix_len = shard_prefix_len
        self.schema_fingerprint = feature_schema_fingerprint()
        self.namespace_dir = self.directory / self.schema_fingerprint[:16]
        self._shards_dir = self.namespace_dir / SHARDS_DIRNAME
        self._lock = _NamespaceLock(self.namespace_dir / ".lock")
        #: Guards the in-memory state (_rows/_dirty_keys/_loaded_prefixes):
        #: the store is shared by every model lane of a serving process,
        #: whose batch workers get/put/flush it from separate threads.
        #: (The namespace lockfile above only orders *processes*.)
        self._mem_lock = threading.RLock()
        #: Rows visible in memory (loaded shard views + fresh puts).
        self._rows: Dict[str, FeatureRow] = {}
        #: Content hashes put since the last flush.
        self._dirty_keys: Set[str] = set()
        #: Shard prefixes whose on-disk file has been read already.
        self._loaded_prefixes: Set[str] = set()
        #: Lookup statistics for ``cache-info`` / profiling.
        self.n_hits = 0
        self.n_misses = 0

    # -- shard addressing ----------------------------------------------------
    def _prefix(self, sha256: str) -> str:
        """The shard prefix a content hash belongs to."""
        return sha256[: self.shard_prefix_len]

    def _shard_path(self, prefix: str) -> Path:
        """The base shard file for a hash prefix."""
        return self._shards_dir / f"{prefix}.npz"

    def _segment_paths(self, prefix: str) -> List[Path]:
        """A prefix's segment files, oldest first (sequence-number order)."""
        return sorted(self._shards_dir.glob(f"{prefix}.*{SEGMENT_SUFFIX}"))

    def _next_segment_path(self, prefix: str) -> Path:
        """The next free segment filename for a prefix (lock held)."""
        last = -1
        for path in self._segment_paths(prefix):
            seq = path.name[len(prefix) + 1 : -len(SEGMENT_SUFFIX)]
            if seq.isdigit():
                last = max(last, int(seq))
        return self._shards_dir / f"{prefix}.{last + 1:08d}{SEGMENT_SUFFIX}"

    # -- loading -------------------------------------------------------------
    def _read_shard_file(self, path: Path) -> Dict[str, FeatureRow]:
        """Read one packed shard; corrupt files are quarantined, not fatal.

        Returns rows as views into the loaded matrices (no per-row copy).
        A shard written under a different full schema fingerprint (a
        16-hex-prefix collision, or a hand-moved file) is ignored.
        """
        try:
            # Read the whole file up front (no handle for np.load to leak
            # when the zip header parse raises on a truncated shard).
            raw = corrupting_failpoint("features.shard.read", path.read_bytes())
            with np.load(io.BytesIO(raw), allow_pickle=False) as data:
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                if meta.get("store_version") != FEATURE_STORE_VERSION:
                    return {}
                if meta.get("schema_fingerprint") != self.schema_fingerprint:
                    return {}
                keys = [str(k) for k in data["keys"]]
                tabular = data["tabular"]
                graph = data["graph"]
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile,
                zlib.error, struct.error,
                json.JSONDecodeError, UnicodeDecodeError) as exc:
            _quarantine(path, exc if isinstance(exc, Exception) else ValueError(exc))
            return {}
        if not len(keys) == tabular.shape[0] == graph.shape[0]:
            _quarantine(path, ValueError("shard arrays have mismatched lengths"))
            return {}
        return {key: (tabular[i], graph[i]) for i, key in enumerate(keys)}

    def _ensure_prefix_loaded(self, prefix: str) -> None:
        """Lazily read the files backing a hash prefix (once).

        Merge order is newest-first with ``setdefault`` — fresh unflushed
        rows win over any disk copy, newer segments win over older ones,
        and every segment wins over the base shard.  A segment that
        vanishes mid-read (a concurrent compaction folded it into the
        base) is harmless: the base shard is read last and carries its
        rows.
        """
        if prefix in self._loaded_prefixes:
            return
        self._loaded_prefixes.add(prefix)
        paths = list(reversed(self._segment_paths(prefix)))
        paths.append(self._shard_path(prefix))
        for path in paths:
            if path.is_file():
                for key, row in self._read_shard_file(path).items():
                    self._rows.setdefault(key, row)

    # -- mapping-ish protocol ------------------------------------------------
    def get(self, sha256: str) -> Optional[FeatureRow]:
        """The stored feature row for a content hash, or ``None``.

        The returned arrays are read-only views into the packed shard
        matrices (or the arrays handed to :meth:`put`); batch assembly
        copies them into the batch matrix exactly once.
        """
        with self._mem_lock:
            self._ensure_prefix_loaded(self._prefix(sha256))
            row = self._rows.get(sha256)
            if row is None:
                self.n_misses += 1
                _FEATURE_MISSES.inc()
            else:
                self.n_hits += 1
                _FEATURE_HITS.inc()
            return row

    def put(self, sha256: str, row: FeatureRow) -> None:
        """Insert (or overwrite) the feature row for a content hash."""
        tabular, graph = row
        with self._mem_lock:
            self._rows[sha256] = (np.asarray(tabular), np.asarray(graph))
            self._dirty_keys.add(sha256)

    # -- persistence ---------------------------------------------------------
    def _write_shard(self, path: Path, rows: Dict[str, FeatureRow]) -> None:
        """Atomically write one packed shard file (lock held).

        Keys are written sorted so a shard's bytes are a pure function of
        its contents — byte-identical across writers and runs.
        """
        keys = sorted(rows)
        tabular = np.stack([rows[k][0] for k in keys], axis=0)
        graph = np.stack([rows[k][1] for k in keys], axis=0)
        meta = json.dumps(
            {
                "store_version": FEATURE_STORE_VERSION,
                "schema_fingerprint": self.schema_fingerprint,
            },
            sort_keys=True,
        ).encode("utf-8")
        buffer = io.BytesIO()
        np.savez(
            buffer,
            meta=np.frombuffer(meta, dtype=np.uint8),
            keys=np.array(keys),
            tabular=tabular,
            graph=graph,
        )
        tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp_path.write_bytes(buffer.getvalue())
        os.replace(tmp_path, path)

    def flush(self) -> Optional[Path]:
        """Persist dirty rows as new append-only segment files.

        Each affected shard prefix gets one fresh ``.seg.npz`` segment
        holding only this store's dirty rows — the base shard is never
        read or rewritten, so a flush costs O(dirty rows) even against a
        huge warm store.  Runs under the namespace lockfile (segment
        sequence numbers must be allocated atomically); rows another
        process flushed meanwhile live in their own segments and are
        merged on read.  A prefix that reaches
        :data:`SEGMENT_COMPACT_THRESHOLD` segments is folded into its
        base shard on the spot.  Returns the namespace directory when
        anything was written, ``None`` otherwise.
        """
        # Snapshot the dirty rows under the memory lock, then write them
        # outside it: a concurrent lane worker keeps putting rows while
        # the disk write runs, and anything it adds stays dirty for the
        # next flush (only the snapshotted keys are cleared below).
        with self._mem_lock:
            if not self._dirty_keys:
                return None
            flushed_keys = set(self._dirty_keys)
            by_prefix: Dict[str, Dict[str, FeatureRow]] = {}
            for key in flushed_keys:
                by_prefix.setdefault(self._prefix(key), {})[key] = self._rows[key]
            self._dirty_keys.clear()
        self._shards_dir.mkdir(parents=True, exist_ok=True)
        try:
            with self._lock:
                failpoint("features.flush.io")
                for prefix in sorted(by_prefix):
                    self._write_shard(self._next_segment_path(prefix), by_prefix[prefix])
                    if len(self._segment_paths(prefix)) >= SEGMENT_COMPACT_THRESHOLD:
                        self._compact_prefix(prefix)
        except BaseException:  # re-mark dirty rows for retry, then re-raise
            # The write failed mid-way: re-mark everything so the rows
            # are retried rather than silently lost.
            with self._mem_lock:
                self._dirty_keys |= flushed_keys
            raise
        return self.namespace_dir

    def _compact_prefix(self, prefix: str) -> int:
        """Fold a prefix's segments into its base shard (lock held).

        Merges base-then-oldest-to-newest so the newest write of every
        content hash wins, rewrites the base shard atomically, then
        removes the merged segment files.  Returns how many segments were
        folded in.
        """
        segments = self._segment_paths(prefix)
        if not segments:
            return 0
        base_path = self._shard_path(prefix)
        merged: Dict[str, FeatureRow] = (
            self._read_shard_file(base_path) if base_path.is_file() else {}
        )
        for path in segments:
            merged.update(self._read_shard_file(path))
        if merged:
            self._write_shard(base_path, merged)
        for path in segments:
            try:
                path.unlink()
            except OSError:
                pass  # already quarantined or removed
        return len(segments)

    def compact(self) -> int:
        """Fold every segment file in the namespace into its base shard.

        The maintenance entry point behind ``python -m repro cache-gc``:
        merge-on-read work drops back to one file open per prefix.  Safe
        against live readers and writers (runs under the namespace lock;
        readers fall back to the base shard for any segment that vanishes
        under them).  Returns the number of segment files removed.
        """
        if not self._shards_dir.is_dir():
            return 0
        prefixes = sorted(
            {
                path.name.split(".", 1)[0]
                for path in self._shards_dir.glob(f"*{SEGMENT_SUFFIX}")
            }
        )
        folded = 0
        with self._lock:
            for prefix in prefixes:
                folded += self._compact_prefix(prefix)
        return folded


def _shard_row_count(path: Path) -> int:
    """Number of rows in a packed shard file (0 for unreadable files)."""
    try:
        with open(path, "rb") as handle, np.load(handle, allow_pickle=False) as data:
            return int(data["keys"].shape[0])
    except (OSError, ValueError, KeyError, zipfile.BadZipFile):
        return 0


def describe_feature_tier(directory: Union[str, Path]) -> Dict[str, Any]:
    """Describe every schema namespace under a feature-tier root.

    Pure directory walking — no store is opened and no lock is taken, so
    this is safe to run against a live cache (``cache-info`` does).  Row
    counts sum base shards and append-only segments, so a hash rewritten
    in a segment counts once per file until the next compaction.
    """
    root = Path(directory)
    namespaces: List[Dict[str, Any]] = []
    if root.is_dir():
        for namespace in sorted(p for p in root.iterdir() if p.is_dir()):
            files = sorted((namespace / SHARDS_DIRNAME).glob("*.npz"))
            segments = [p for p in files if p.name.endswith(SEGMENT_SUFFIX)]
            shards = [p for p in files if not p.name.endswith(SEGMENT_SUFFIX)]
            namespaces.append(
                {
                    "schema": namespace.name,
                    "n_shards": len(shards),
                    "n_segments": len(segments),
                    "n_rows": sum(_shard_row_count(p) for p in files),
                    "bytes": sum(_file_size(p) for p in files),
                }
            )
    return {
        "directory": str(root),
        "namespaces": namespaces,
        "n_rows": sum(ns["n_rows"] for ns in namespaces),
        "bytes": sum(ns["bytes"] for ns in namespaces),
    }


def gc_feature_tier(directory: Union[str, Path]) -> Dict[str, Any]:
    """Garbage-collect a feature-tier root (``python -m repro cache-gc``).

    Two maintenance passes:

    * **Compact** the namespace of the *current* feature schema: every
      append-only segment file is folded into its base shard, restoring
      one-open-per-prefix reads.
    * **Remove** retired schema namespaces — directories written under an
      older :data:`~repro.features.pipeline.FEATURE_EXTRACTION_VERSION`
      or feature-name list.  Their rows can never be looked up again, so
      they are dead weight by construction.

    Returns a summary dict: the compacted namespace, segments folded,
    retired namespaces removed, and bytes reclaimed from them.
    """
    import shutil

    root = Path(directory)
    store = FeatureStore(root)
    current = store.namespace_dir.name
    folded = store.compact()
    removed: List[str] = []
    reclaimed = 0
    if root.is_dir():
        for namespace in sorted(p for p in root.iterdir() if p.is_dir()):
            if namespace.name == current:
                continue
            reclaimed += sum(
                _file_size(p) for p in namespace.rglob("*") if p.is_file()
            )
            shutil.rmtree(namespace, ignore_errors=True)
            removed.append(namespace.name)
    return {
        "directory": str(root),
        "current_schema": current,
        "n_segments_folded": folded,
        "retired_namespaces_removed": removed,
        "bytes_reclaimed": reclaimed,
    }
