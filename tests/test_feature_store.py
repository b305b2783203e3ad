"""Feature-store tests: round-trips, corruption, schema invalidation,
concurrent writers, byte-identical warm-feature rescans, the
rescan-after-reload speed gate and pre-feature-tier cache directories."""

from __future__ import annotations

import hashlib
import io
import json

import numpy as np
import pytest

from repro.core.config import ClassifierConfig, NoodleConfig
from repro.engine import FeatureStore, ScanCache, ScanEngine, train_detector
from repro.engine.cli import build_scan_batch
from repro.engine.feature_store import (
    SEGMENT_COMPACT_THRESHOLD,
    SEGMENT_SUFFIX,
    describe_feature_tier,
    gc_feature_tier,
)
from repro.engine.scan import assemble_features, extract_feature_rows, sources_from_pairs
from repro.engine.scheduler import ScanScheduler
from repro.features import GRAPH_FEATURE_NAMES, TABULAR_FEATURE_NAMES
from repro.features.pipeline import feature_schema_fingerprint
from repro.perf import speedup, time_callable
from repro.trojan import SuiteConfig, TrojanDataset


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def scan_batch():
    suite = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=6, n_trojan_infected=3, seed=41)
    )
    return sources_from_pairs((b.name, b.source) for b in suite.benchmarks)


def _shard_files(store: FeatureStore):
    return sorted(store.namespace_dir.glob("shards/*.npz"))


def _write_image_era_namespace(directory, keys):
    """A namespace as stores wrote it before rows dropped the adjacency image.

    Schema fingerprint over extraction version 1 and ``image_size`` 16,
    store version 1, and shards carrying an ``images`` array.
    """
    schema = hashlib.sha256(
        json.dumps(
            {
                "extraction_version": 1,
                "tabular": list(TABULAR_FEATURE_NAMES),
                "graph": list(GRAPH_FEATURE_NAMES),
                "image_size": 16,
            },
            sort_keys=True,
        ).encode("utf-8")
    ).hexdigest()
    meta = json.dumps(
        {"store_version": 1, "schema_fingerprint": schema}, sort_keys=True
    ).encode("utf-8")
    n = len(keys)
    buffer = io.BytesIO()
    np.savez(
        buffer,
        meta=np.frombuffer(meta, dtype=np.uint8),
        keys=np.array(sorted(keys)),
        tabular=np.zeros((n, len(TABULAR_FEATURE_NAMES))),
        graph=np.zeros((n, len(GRAPH_FEATURE_NAMES))),
        images=np.zeros((n, 1, 16, 16)),
    )
    namespace = directory / schema[:16]
    (namespace / "shards").mkdir(parents=True)
    (namespace / "shards" / "0.npz").write_bytes(buffer.getvalue())
    return namespace


class TestRoundTrip:
    def test_put_flush_get_exact_arrays(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        rows, errors = extract_feature_rows(scan_batch, workers=1, store=store)
        assert not errors and len(rows) == len(scan_batch)
        assert store.flush() is not None
        reread = FeatureStore(tmp_path / "features")
        for i, src in enumerate(scan_batch):
            stored = reread.get(src.sha256)
            assert stored is not None
            for original, loaded in zip(rows[i], stored):
                assert original.dtype == loaded.dtype
                assert np.array_equal(original, loaded)

    def test_flush_without_dirty_rows_is_a_noop(self, tmp_path):
        store = FeatureStore(tmp_path / "features")
        assert store.flush() is None

    def test_extract_consults_store_before_frontend(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        warm = FeatureStore(tmp_path / "features")
        rows, errors = extract_feature_rows(scan_batch, workers=1, store=warm)
        assert not errors
        assert warm.n_hits == len(scan_batch) and warm.n_misses == 0
        assert len(rows) == len(scan_batch)

    def test_shard_holds_only_meta_keys_tabular_and_graph(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        rows, _ = extract_feature_rows(scan_batch, workers=1, store=store)
        assert all(len(row) == 2 for row in rows.values())
        store.flush()
        for shard in _shard_files(store):
            with np.load(shard, allow_pickle=False) as data:
                assert sorted(data.files) == ["graph", "keys", "meta", "tabular"]

    def test_shard_bytes_are_deterministic(self, scan_batch, tmp_path):
        for name in ("a", "b"):
            store = FeatureStore(tmp_path / name)
            extract_feature_rows(scan_batch, workers=1, store=store)
            store.flush()
        files_a = _shard_files(FeatureStore(tmp_path / "a"))
        files_b = _shard_files(FeatureStore(tmp_path / "b"))
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes()


class TestCorruptionQuarantine:
    def test_truncated_shard_is_quarantined_not_fatal(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        victim = _shard_files(store)[0]
        victim.write_bytes(victim.read_bytes()[:40])
        reread = FeatureStore(tmp_path / "features")
        # Rows in the corrupt shard are simply misses; nothing raises.
        results = [reread.get(src.sha256) for src in scan_batch]
        assert any(r is None for r in results)
        assert victim.with_name(victim.name + ".corrupt").is_file()
        assert not victim.is_file()

    def test_non_npz_garbage_is_quarantined(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        for shard in _shard_files(store):
            shard.write_text("this is not a zip archive")
        reread = FeatureStore(tmp_path / "features")
        assert all(reread.get(src.sha256) is None for src in scan_batch)
        corrupt = list(reread.namespace_dir.glob("shards/*.corrupt"))
        assert corrupt

    def test_quarantined_rows_are_reextracted_and_repersisted(
        self, scan_batch, tmp_path
    ):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        for shard in _shard_files(store):
            shard.write_bytes(b"junk")
        healed = FeatureStore(tmp_path / "features")
        rows, errors = extract_feature_rows(scan_batch, workers=1, store=healed)
        assert not errors and len(rows) == len(scan_batch)
        healed.flush()
        final = FeatureStore(tmp_path / "features")
        assert all(final.get(src.sha256) is not None for src in scan_batch)


class TestSchemaInvalidation:
    def test_extraction_version_bump_invalidates(
        self, scan_batch, tmp_path, monkeypatch
    ):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        import repro.features.pipeline as pipeline

        monkeypatch.setattr(pipeline, "FEATURE_EXTRACTION_VERSION", 999)
        assert feature_schema_fingerprint() != store.schema_fingerprint
        bumped = FeatureStore(tmp_path / "features")
        assert bumped.namespace_dir != store.namespace_dir
        assert all(bumped.get(src.sha256) is None for src in scan_batch)

    def test_foreign_schema_shard_is_ignored_not_served(
        self, scan_batch, tmp_path, monkeypatch
    ):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        # Forge a namespace-dir collision: move the shards under a fake
        # namespace whose 16-char prefix another schema would claim.
        import repro.features.pipeline as pipeline

        monkeypatch.setattr(pipeline, "FEATURE_EXTRACTION_VERSION", 999)
        foreign = FeatureStore(tmp_path / "features")
        foreign_shards = foreign.namespace_dir / "shards"
        foreign_shards.mkdir(parents=True)
        for shard in _shard_files(store):
            (foreign_shards / shard.name).write_bytes(shard.read_bytes())
        # The embedded full fingerprint mismatches -> rows are not served.
        assert all(foreign.get(src.sha256) is None for src in scan_batch)


class TestConcurrentWriters:
    def test_two_handles_interleaved_flushes_keep_all_rows(
        self, scan_batch, tmp_path
    ):
        half = len(scan_batch) // 2
        first, second = scan_batch[:half], scan_batch[half:]
        store_a = FeatureStore(tmp_path / "features")
        store_b = FeatureStore(tmp_path / "features")
        extract_feature_rows(first, workers=1, store=store_a)
        extract_feature_rows(second, workers=1, store=store_b)
        store_a.flush()
        store_b.flush()  # read-merge-write must keep store_a's rows
        merged = FeatureStore(tmp_path / "features")
        assert all(merged.get(src.sha256) is not None for src in scan_batch)

    def test_two_schedulers_share_one_store(self, detector, scan_batch, tmp_path):
        # Two schedulers (fresh fingerprints = cold result tiers) sharing
        # one feature-store root: the first pays extraction, the second
        # serves every row from the store; records are identical.
        feature_dir = tmp_path / "features"
        reports = []
        for fingerprint in ("fp-one", "fp-two"):
            with ScanScheduler(
                model=detector,
                fingerprint=fingerprint,
                cache=ScanCache(tmp_path / "cache", fingerprint),
                feature_store_dir=feature_dir,
                jobs=1,
                shard_size=4,
            ) as scheduler:
                reports.append(scheduler.scan_sources(scan_batch))
        assert reports[0].n_feature_hits == 0
        assert reports[1].n_feature_hits == len(scan_batch)
        first = [r.to_dict() for r in reports[0].records]
        second = [r.to_dict() for r in reports[1].records]
        assert first == second


class TestByteIdenticalRecords:
    def test_warm_feature_cold_model_scan_matches_no_cache_serial(
        self, detector, scan_batch, tmp_path
    ):
        # The acceptance property: a scan under a fresh fingerprint that
        # serves every feature row from the store must produce records
        # byte-identical to an uncached serial scan.
        baseline = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        seed_store = FeatureStore(tmp_path / "features")
        ScanEngine(detector, fingerprint="fp-a", feature_store=seed_store).scan_sources(
            scan_batch, workers=1
        )
        warm = ScanEngine(
            detector,
            fingerprint="fp-b",
            cache=ScanCache(tmp_path / "cache", "fp-b"),
            feature_store=FeatureStore(tmp_path / "features"),
        ).scan_sources(scan_batch, workers=1)
        assert warm.n_feature_hits == len(scan_batch)
        assert warm.n_cache_hits == 0
        expected = json.dumps([r.to_dict() for r in baseline.records], sort_keys=True)
        observed = json.dumps([r.to_dict() for r in warm.records], sort_keys=True)
        assert expected == observed

    def test_preallocated_assembly_matches_stacking(self, scan_batch):
        rows_map, errors = extract_feature_rows(scan_batch, workers=1)
        assert not errors
        rows = [rows_map[i] for i in range(len(scan_batch))]
        names = [s.name for s in scan_batch]
        batch = assemble_features(rows, names)
        assert np.array_equal(batch.tabular, np.vstack([r[0] for r in rows]))
        assert np.array_equal(batch.graph, np.vstack([r[1] for r in rows]))
        assert batch.tabular.dtype == rows[0][0].dtype
        assert batch.graph.dtype == rows[0][1].dtype

    def test_empty_assembly_shapes(self):
        batch = assemble_features([], [])
        assert batch.tabular.shape[0] == 0
        assert batch.graph.shape[0] == 0
        assert len(batch) == 0


class TestEngineIntegration:
    def test_result_tier_takes_precedence_over_feature_tier(
        self, detector, scan_batch, tmp_path
    ):
        engine = ScanEngine(
            detector,
            fingerprint="fp-hot",
            cache=ScanCache(tmp_path / "cache", "fp-hot"),
            feature_store=FeatureStore(tmp_path / "features"),
        )
        engine.scan_sources(scan_batch, workers=1)
        again = engine.scan_sources(scan_batch, workers=1)
        assert again.n_cache_hits == len(scan_batch)
        assert again.n_feature_hits == 0  # never reached the feature tier

    def test_legacy_cache_dir_without_feature_tier_still_works(
        self, detector, scan_batch, tmp_path
    ):
        # A pre-feature-tier cache directory: a result tier and no
        # features/ subdir.  Attaching both tiers must serve the cached
        # records and start the feature tier fresh.
        ScanEngine(
            detector,
            fingerprint="fp-legacy",
            cache=ScanCache(tmp_path / "cache", "fp-legacy"),
        ).scan_sources(scan_batch, workers=1)
        assert not (tmp_path / "cache" / "features").exists()
        engine = ScanEngine(
            detector,
            fingerprint="fp-legacy",
            cache=ScanCache(tmp_path / "cache", "fp-legacy"),
            feature_store=FeatureStore(tmp_path / "cache" / "features"),
        )
        report = engine.scan_sources(scan_batch, workers=1)
        assert report.n_cache_hits == len(scan_batch)
        assert report.n_feature_hits == 0

    def test_feature_store_flush_deferred_with_flush_cache_false(
        self, detector, scan_batch, tmp_path
    ):
        store = FeatureStore(tmp_path / "features")
        engine = ScanEngine(detector, feature_store=store)
        engine.scan_sources(scan_batch, workers=1, flush_cache=False)
        assert not _shard_files(store)  # nothing on disk yet
        store.flush()
        assert _shard_files(store)


class TestRescanAfterReload:
    @pytest.mark.parametrize("backend", ["numpy", "fused_f32"])
    def test_warm_feature_rescan_beats_cold_scan(self, detector, tmp_path, backend):
        # The recalibrate -> hot-reload -> rescan workflow.  The fresh
        # fingerprint misses the result tier by construction, but the
        # feature tier serves every row, so the rescan pays only the
        # forward pass.  Each rescan opens a fresh store handle, as a
        # post-reload CLI rescan in a fresh process does, so the timing
        # includes reading the packed shards off disk.
        batch = build_scan_batch(12, seed=23)
        features = tmp_path / "features"
        ScanEngine(
            detector, fingerprint="fp-seed", feature_store=FeatureStore(features)
        ).scan_sources(batch, workers=1)
        feature_hits = []

        def cold_scan():
            ScanEngine(detector, backend=backend).scan_sources(batch, workers=1)

        def rescan_after_reload():
            report = ScanEngine(
                detector,
                fingerprint="fp-reloaded",
                feature_store=FeatureStore(features),
                backend=backend,
            ).scan_sources(batch, workers=1)
            feature_hits.append(report.n_feature_hits)

        cold = time_callable(cold_scan, repeats=3)
        warm = time_callable(rescan_after_reload, repeats=3)
        assert feature_hits == [len(batch)] * len(feature_hits)
        assert speedup(cold, warm) > 1.0, (cold.best_s, warm.best_s)


class TestDescribe:
    def test_describe_feature_tier_counts_rows(self, scan_batch, tmp_path):
        store = FeatureStore(tmp_path / "features")
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        info = describe_feature_tier(tmp_path / "features")
        assert info["n_rows"] == len(scan_batch)
        assert len(info["namespaces"]) == 1
        assert info["namespaces"][0]["schema"] == store.schema_fingerprint[:16]
        assert info["bytes"] > 0

    def test_describe_missing_dir_is_empty(self, tmp_path):
        info = describe_feature_tier(tmp_path / "nope")
        assert info["n_rows"] == 0 and info["namespaces"] == []


class TestAppendOnlySegments:
    """Flush appends segments; compaction folds them into base shards."""

    def _store_with_rows(self, scan_batch, directory):
        store = FeatureStore(directory)
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        return store

    def test_flush_writes_numbered_segments_not_base_shards(
        self, scan_batch, tmp_path
    ):
        store = self._store_with_rows(scan_batch, tmp_path / "features")
        segments = sorted(store.namespace_dir.glob(f"shards/*{SEGMENT_SUFFIX}"))
        assert segments, "flush should write append-only segment files"
        for path in segments:
            # <prefix>.<seq:08d>.seg.npz
            seq = path.name[: -len(SEGMENT_SUFFIX)].rsplit(".", 1)[1]
            assert len(seq) == 8 and seq.isdigit()

    def test_merge_on_read_newest_segment_wins(self, scan_batch, tmp_path):
        store = self._store_with_rows(scan_batch, tmp_path / "features")
        target = scan_batch[0]
        original = store.get(target.sha256)
        # Re-put the same hash with different arrays: the second flush
        # writes a newer segment that must shadow the first on re-read.
        replacement = tuple(arr + 1.0 for arr in original)
        store.put(target.sha256, replacement)
        store.flush()
        reread = FeatureStore(tmp_path / "features")
        loaded = reread.get(target.sha256)
        for new, got in zip(replacement, loaded):
            assert np.array_equal(new, got)

    def test_compact_folds_segments_and_preserves_rows(self, scan_batch, tmp_path):
        store = self._store_with_rows(scan_batch, tmp_path / "features")
        store.put(scan_batch[0].sha256, store.get(scan_batch[0].sha256))
        store.flush()
        compacting = FeatureStore(tmp_path / "features")
        folded = compacting.compact()
        assert folded >= 2
        assert not list(compacting.namespace_dir.glob(f"shards/*{SEGMENT_SUFFIX}"))
        reread = FeatureStore(tmp_path / "features")
        for src in scan_batch:
            assert reread.get(src.sha256) is not None

    def test_flush_auto_compacts_at_threshold(self, scan_batch, tmp_path):
        store = self._store_with_rows(scan_batch, tmp_path / "features")
        target = scan_batch[0]
        row = store.get(target.sha256)
        for _ in range(SEGMENT_COMPACT_THRESHOLD):
            store.put(target.sha256, row)
            store.flush()
        # The threshold-th flush triggers an inline fold: no segment
        # backlog survives unbounded growth.
        prefix_segments = [
            p
            for p in store.namespace_dir.glob(f"shards/*{SEGMENT_SUFFIX}")
            if p.name.startswith(target.sha256[:2])
        ]
        assert len(prefix_segments) < SEGMENT_COMPACT_THRESHOLD

    def test_describe_reports_segment_counts(self, scan_batch, tmp_path):
        store = self._store_with_rows(scan_batch, tmp_path / "features")
        info = describe_feature_tier(tmp_path / "features")
        assert info["namespaces"][0]["n_segments"] >= 1
        compacted = FeatureStore(tmp_path / "features")
        compacted.compact()
        info = describe_feature_tier(tmp_path / "features")
        assert info["namespaces"][0]["n_segments"] == 0


class TestGcFeatureTier:
    def test_gc_removes_retired_namespaces_and_folds_segments(
        self, scan_batch, tmp_path
    ):
        directory = tmp_path / "features"
        store = FeatureStore(directory)
        extract_feature_rows(scan_batch, workers=1, store=store)
        store.flush()
        retired = directory / "feedfacefeedface"
        (retired / "shards").mkdir(parents=True)
        (retired / "shards" / "old.npz").write_bytes(b"y" * 256)
        summary = gc_feature_tier(directory)
        assert summary["current_schema"] == store.namespace_dir.name
        assert summary["n_segments_folded"] >= 1
        assert summary["retired_namespaces_removed"] == ["feedfacefeedface"]
        assert summary["bytes_reclaimed"] >= 256
        assert not retired.exists()
        # The surviving namespace still serves every row.
        reread = FeatureStore(directory)
        for src in scan_batch:
            assert reread.get(src.sha256) is not None

    def test_gc_removes_a_namespace_written_with_images(self, scan_batch, tmp_path):
        # Rows that carried the adjacency image live under the old schema
        # fingerprint; they are never read and plain gc removes them.
        directory = tmp_path / "features"
        old = _write_image_era_namespace(directory, [s.sha256 for s in scan_batch])
        store = FeatureStore(directory)
        assert store.namespace_dir != old
        assert all(store.get(src.sha256) is None for src in scan_batch)
        summary = gc_feature_tier(directory)
        assert summary["retired_namespaces_removed"] == [old.name]
        assert not old.exists()

    def test_gc_on_empty_directory(self, tmp_path):
        summary = gc_feature_tier(tmp_path / "nothing")
        assert summary["n_segments_folded"] == 0
        assert summary["retired_namespaces_removed"] == []
        assert summary["bytes_reclaimed"] == 0
