"""End-to-end scan throughput benchmark (written to ``BENCH_engine.json``).

Measures the three ways the same multi-design workload can be served:

* ``engine_scan_sequential`` — one independent scan invocation per design:
  each loads the persisted artifact (``ScanEngine.from_artifact``) and
  scans a single design, which is exactly what ``N`` separate
  ``python -m repro scan <file>`` calls (or the request-per-design agent
  pattern the ROADMAP targets) cost, minus interpreter startup;
* ``engine_scan_batched`` — one engine, one call for the whole batch: the
  artifact is loaded once, feature extraction is fanned out across the
  worker pool (where cores exist), and all designs go through the
  vectorized forward pass / ``searchsorted`` p-values in single calls;
* ``engine_scan_parallel_jobsN`` — the sharded scheduler
  (:class:`repro.engine.scheduler.ScanScheduler`) running extraction *and*
  inference across a persistent pool of ``N`` workers (the multi-core
  serving configuration; on a single-core container the pool costs roughly
  what it saves, and the recorded ratio reflects that honestly);
* ``engine_scan_cached`` — the batched call repeated against a warm
  content-hash cache (the steady-state rescan cost);
* ``engine_rescan_after_reload`` — the batched call under a **fresh model
  fingerprint** against a **warm feature store**: the recalibrate →
  hot-reload → rescan workflow, where the result tier is cold by
  construction (new fingerprint namespace) but the model-independent
  feature tier serves every row, so the scan pays only the forward pass.
  Each timed call opens a fresh :class:`FeatureStore` handle (a CLI
  rescan is a fresh process), so the number includes reading the packed
  shards off disk;
* ``engine_scan_fused_f32`` — the same warm-feature-store scan under the
  ``fused_f32`` compute backend: with extraction served from the store,
  this isolates what the fused float32 forward path changes (the ratio
  against the warm ``numpy`` scan lands in
  ``engine_scan_fused_f32_vs_numpy_warm``).

All speedups are recorded against ``engine_scan_sequential``, plus
``engine_rescan_after_reload_vs_cold`` against the fully-cold batched
scan (the acceptance ratio for the feature tier); both sides are timed
in-process, best-of-N, with the same trained detector, so the ratios are
machine-independent in the same way as
``benchmarks/perf/check_regression.py``.
"""

from __future__ import annotations

import multiprocessing
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..core.config import ClassifierConfig, NoodleConfig
from ..features.pipeline import extract_modalities
from ..perf import BenchmarkSuite
from ..trojan import SuiteConfig, TrojanDataset
from .cache import ScanCache
from .feature_store import FeatureStore
from .scan import ScanEngine, ScanSource
from .scheduler import DEFAULT_SHARD_SIZE, ScanScheduler, default_jobs
from .training import train_detector

#: Default number of designs in the benchmark scan batch.
DEFAULT_N_DESIGNS = 48


def _quick_training_config(seed: int = 0) -> NoodleConfig:
    """A small configuration so the benchmark's one-off training is fast."""
    return NoodleConfig(
        classifier=ClassifierConfig(epochs=10, seed=seed),
        validation_fraction=0.2,
        seed=seed,
    )


def build_scan_batch(n_designs: int, seed: int = 23) -> list:
    """Generate a deterministic multi-design scan workload."""
    suite = TrojanDataset.generate(
        SuiteConfig(
            n_trojan_free=max(1, (2 * n_designs) // 3),
            n_trojan_infected=max(1, n_designs - (2 * n_designs) // 3),
            seed=seed,
        )
    )
    return [
        ScanSource(name=benchmark.name, source=benchmark.source)
        for benchmark in suite.benchmarks
    ]


def run_engine_benchmark(
    output: Union[str, Path],
    n_designs: int = DEFAULT_N_DESIGNS,
    workers: Optional[int] = None,
    repeats: int = 3,
    seed: int = 0,
    jobs: Optional[int] = None,
    shard_size: int = DEFAULT_SHARD_SIZE,
) -> BenchmarkSuite:
    """Train a quick detector, time the four scan modes, write the JSON.

    ``jobs`` sizes the scheduler pool for the parallel-scan measurement
    (default ``min(4, cpu_count)``).  Returns the populated
    :class:`BenchmarkSuite` (already written to ``output``).
    """
    rng = np.random.default_rng(seed)
    corpus = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=20, n_trojan_infected=10, seed=seed + 1)
    )
    features = extract_modalities(corpus)
    train, _ = features.stratified_split(0.2, rng)
    result = train_detector(train, strategy="late", config=_quick_training_config(seed))
    model = result.model

    batch = build_scan_batch(n_designs, seed=seed + 23)
    meta = {"n_designs": len(batch), "strategy": result.strategy}

    suite = BenchmarkSuite("engine")

    with tempfile.TemporaryDirectory() as workdir:
        artifact = Path(workdir) / "artifact"
        from .artifacts import save_detector

        save_detector(model, artifact)

        def scan_sequential() -> None:
            # N independent invocations: each loads the artifact and scans
            # one design (what N separate CLI calls do, sans interpreter
            # startup, which would only widen the gap).
            for source in batch:
                ScanEngine.from_artifact(artifact).scan_sources([source], workers=1)

        def scan_batched() -> None:
            ScanEngine.from_artifact(artifact).scan_sources(batch, workers=workers)

        sequential = suite.time(
            scan_sequential, "engine_scan_sequential", repeats=repeats, meta=meta
        )
        batched = suite.time(
            scan_batched, "engine_scan_batched", repeats=repeats, meta=meta
        )
        suite.record_speedup("engine_scan_batched", sequential, batched)

        n_jobs = jobs if jobs is not None else default_jobs()
        parallel_name = f"engine_scan_parallel_jobs{n_jobs}"
        parallel_meta = dict(
            meta,
            jobs=n_jobs,
            shard_size=shard_size,
            cpu_count=multiprocessing.cpu_count() or 1,
        )
        with ScanScheduler.from_artifact(
            artifact, jobs=n_jobs, shard_size=shard_size
        ) as scheduler:

            def scan_parallel() -> None:
                # Extraction + inference sharded across the persistent pool;
                # the warmup call also amortises pool start-up, mirroring a
                # long-lived scan service.
                scheduler.scan_sources(batch)

            parallel = suite.time(
                scan_parallel, parallel_name, repeats=repeats, meta=parallel_meta
            )
        suite.record_speedup(parallel_name, sequential, parallel)

        cache = ScanCache(Path(workdir) / "cache", "bench")
        warm_engine = ScanEngine(model, fingerprint="bench", cache=cache)
        warm_engine.scan_sources(batch, workers=workers)  # warm the cache

        def scan_cached() -> None:
            warm_engine.scan_sources(batch, workers=workers)

        cached = suite.time(
            scan_cached, "engine_scan_cached", repeats=repeats, meta=meta
        )
        suite.record_speedup("engine_scan_cached", sequential, cached)

        # Warm-feature, cold-model rescan: the recalibrate -> reload ->
        # rescan workflow.  Populate the model-independent feature tier
        # once, then scan under a fingerprint no result cache has seen.
        feature_dir = Path(workdir) / "feature_cache"
        seed_store = FeatureStore(feature_dir)
        ScanEngine(model, fingerprint="bench_seed", feature_store=seed_store)\
            .scan_sources(batch, workers=workers)

        def scan_rescan_after_reload() -> None:
            # A fresh store handle per call: a post-reload CLI rescan is a
            # fresh process, so the packed shards are read off disk, and a
            # fresh fingerprint means every result-tier lookup misses.
            engine = ScanEngine(
                model,
                fingerprint="bench_reloaded",
                feature_store=FeatureStore(feature_dir),
            )
            report = engine.scan_sources(batch, workers=workers)
            assert report.n_feature_hits == len(batch), "feature tier missed"

        reload_meta = dict(meta, feature_rows=len(batch))
        reloaded = suite.time(
            scan_rescan_after_reload,
            "engine_rescan_after_reload",
            repeats=repeats,
            meta=reload_meta,
        )
        suite.record_speedup("engine_rescan_after_reload", sequential, reloaded)
        # The feature-tier acceptance ratio: warm features + cold model
        # vs the fully-cold batched scan of the same corpus.
        suite.record_speedup(
            "engine_rescan_after_reload_vs_cold", batched, reloaded
        )

        # The fused_f32 backend over the same warm feature tier: with
        # extraction served from the store, the timed region is dominated
        # by the forward pass — exactly what the backend changes.
        def scan_fused_f32() -> None:
            engine = ScanEngine(
                model,
                fingerprint="bench_fused_f32",
                feature_store=FeatureStore(feature_dir),
                backend="fused_f32",
            )
            report = engine.scan_sources(batch, workers=workers)
            assert report.n_feature_hits == len(batch), "feature tier missed"

        fused = suite.time(
            scan_fused_f32,
            "engine_scan_fused_f32",
            repeats=repeats,
            meta=dict(meta, backend="fused_f32", feature_rows=len(batch)),
        )
        suite.record_speedup("engine_scan_fused_f32", sequential, fused)
        # The backend ratio: same warm-feature scan, numpy vs the fused
        # forward pass.
        suite.record_speedup("engine_scan_fused_f32_vs_numpy_warm", reloaded, fused)

    suite.write_json(output)
    return suite
