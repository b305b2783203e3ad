"""Scan engine: train/calibrate once, scan many times.

This package turns the paper-reproduction pipeline into a servable
subsystem built from three parts:

* :mod:`repro.engine.artifacts` — a disk artifact store that persists a
  fitted fusion detector (CNN weights, feature scalers, Mondrian-ICP
  calibration caches and the full :class:`repro.core.NoodleConfig`) so
  training happens once and scanning happens many times;
* :mod:`repro.engine.scan` — a batched scan pipeline that accepts HDL
  sources (files, directories or in-memory strings), extracts features
  across one process pool per scan, pushes *all* designs through
  the vectorized forward pass and ``searchsorted`` p-values in single
  calls, and caches per-design results keyed by content hash in two
  tiers: the model-fingerprinted result cache (:mod:`repro.engine.cache`)
  and the model-independent feature store
  (:mod:`repro.engine.feature_store`), so recalibrated/reloaded models
  pay only the forward pass on already-seen designs;
* :mod:`repro.engine.scheduler` — the sharded, journaled scan behind
  ``scan --resume``: streams a corpus's rows from the engine's extraction
  pool, infers shard by shard in the parent, retries failed shards and
  makes interrupted scans resumable via periodic cache checkpoints;
* :mod:`repro.engine.cli` — the ``python -m repro`` command line with
  ``train`` / ``calibrate`` / ``scan`` / ``report`` / ``cache-info`` /
  ``cache-gc`` / ``serve`` subcommands.

The long-lived serving layer on top of this engine lives in
:mod:`repro.serve` (``python -m repro serve``, ``docs/SERVING.md``).

See ``docs/ENGINE.md`` for the artifact format and a CLI walkthrough.
"""

from .artifacts import ArtifactError, load_detector, save_detector
from .cache import CacheLockTimeout, ScanCache
from .feature_store import FeatureStore, default_feature_store_dir
from .scan import ScanEngine, ScanReport, ScanSource, collect_sources, hash_source
from .scheduler import ScanJournal, ScanScheduler
from .training import TrainingResult, build_strategies, recalibrate_detector, train_detector

__all__ = [
    "ArtifactError",
    "CacheLockTimeout",
    "FeatureStore",
    "ScanCache",
    "ScanEngine",
    "ScanJournal",
    "ScanScheduler",
    "ScanReport",
    "ScanSource",
    "TrainingResult",
    "build_strategies",
    "collect_sources",
    "default_feature_store_dir",
    "hash_source",
    "load_detector",
    "recalibrate_detector",
    "save_detector",
    "train_detector",
]
