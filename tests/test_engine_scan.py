"""Scan pipeline tests: batched == sequential, cache hits and invalidation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import ClassifierConfig, NoodleConfig
from repro.core.results import ScanRecord
from repro.engine import ScanCache, ScanEngine, save_detector, train_detector
from repro.engine.scan import (
    ScanReport,
    ScanSource,
    collect_sources,
    hash_source,
    sources_from_pairs,
)
from repro.trojan import SuiteConfig, TrojanDataset


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def scan_batch():
    suite = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=6, n_trojan_infected=3, seed=31)
    )
    return sources_from_pairs((b.name, b.source) for b in suite.benchmarks)


class TestBatchedEqualsSequential:
    def test_identical_p_values_and_verdicts(self, detector, scan_batch):
        engine = ScanEngine(detector)
        batched = engine.scan_sources(scan_batch).records
        sequential = [engine.scan_sources([s]).records[0] for s in scan_batch]
        assert len(batched) == len(sequential) == len(scan_batch)
        for one, many in zip(sequential, batched):
            assert one.decision.p_value_trojan_free == many.decision.p_value_trojan_free
            assert one.decision.p_value_trojan_infected == many.decision.p_value_trojan_infected
            assert one.decision.predicted_label == many.decision.predicted_label
            assert one.verdict == many.verdict

    def test_matches_direct_model_p_values(self, detector, scan_batch, small_features):
        from repro.engine.scan import assemble_features, extract_feature_rows

        rows, errors = extract_feature_rows(scan_batch, workers=1)
        assert not errors
        features = assemble_features(
            [rows[i] for i in range(len(scan_batch))], [s.name for s in scan_batch]
        )
        expected = detector.p_values(features)
        records = ScanEngine(detector).scan_sources(scan_batch).records
        observed = np.array(
            [
                [r.decision.p_value_trojan_free, r.decision.p_value_trojan_infected]
                for r in records
            ]
        )
        assert np.array_equal(observed, expected)


class TestPoolFallback:
    def test_lost_pool_is_counted_and_extracts_serially(
        self, scan_batch, monkeypatch, caplog
    ):
        import multiprocessing

        from repro.engine.scan import extract_feature_rows
        from repro.obs.metrics import REGISTRY

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        serial, _ = extract_feature_rows(scan_batch, workers=1)
        before = REGISTRY.value("repro_engine_degraded_total", tier="pool")
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        rows, errors = extract_feature_rows(scan_batch, workers=2)
        assert REGISTRY.value("repro_engine_degraded_total", tier="pool") == before + 1
        assert "extraction pool failed" in caplog.text
        assert not errors and sorted(rows) == sorted(serial)
        for index, row in serial.items():
            for expected, got in zip(row, rows[index]):
                assert np.array_equal(got, expected)


class TestScanCache:
    def test_second_scan_hits(self, detector, scan_batch, tmp_path):
        cache = ScanCache(tmp_path, "fp-test")
        engine = ScanEngine(detector, fingerprint="fp-test", cache=cache)
        first = engine.scan_sources(scan_batch)
        assert first.n_cache_hits == 0
        second = engine.scan_sources(scan_batch)
        assert second.n_cache_hits == len(scan_batch)
        for a, b in zip(first.records, second.records):
            assert b.cached and not a.cached
            assert a.decision.p_value_trojan_infected == b.decision.p_value_trojan_infected

    def test_cache_survives_reload(self, detector, scan_batch, tmp_path):
        ScanEngine(
            detector, fingerprint="fp-persist", cache=ScanCache(tmp_path, "fp-persist")
        ).scan_sources(scan_batch)
        fresh = ScanEngine(
            detector, fingerprint="fp-persist", cache=ScanCache(tmp_path, "fp-persist")
        )
        assert fresh.scan_sources(scan_batch).n_cache_hits == len(scan_batch)

    def test_content_change_invalidates(self, detector, scan_batch, tmp_path):
        cache = ScanCache(tmp_path, "fp-inv")
        engine = ScanEngine(detector, fingerprint="fp-inv", cache=cache)
        engine.scan_sources(scan_batch)
        edited = list(scan_batch)
        edited[0] = ScanSource(
            name=edited[0].name, source=edited[0].source + "\n// benign edit\n"
        )
        report = engine.scan_sources(edited)
        assert report.n_cache_hits == len(scan_batch) - 1
        assert not report.records[0].cached

    def test_fingerprint_isolation(self, detector, scan_batch, tmp_path):
        ScanEngine(
            detector, fingerprint="fp-a", cache=ScanCache(tmp_path, "fp-a")
        ).scan_sources(scan_batch)
        other = ScanEngine(
            detector, fingerprint="fp-b", cache=ScanCache(tmp_path, "fp-b")
        )
        assert other.scan_sources(scan_batch).n_cache_hits == 0

    def test_error_records_not_cached(self, detector, tmp_path):
        cache = ScanCache(tmp_path, "fp-err")
        engine = ScanEngine(detector, fingerprint="fp-err", cache=cache)
        bad = [ScanSource(name="broken", source="module broken (x; endmodule")]
        report = engine.scan_sources(bad)
        assert report.n_errors == 1
        assert report.records[0].error is not None
        assert report.records[0].verdict == "error"
        assert len(cache) == 0


class TestSourceCollection:
    def test_directory_collection(self, detector, scan_batch, tmp_path):
        for source in scan_batch[:4]:
            (tmp_path / f"{source.name}.v").write_text(source.source)
        collected = collect_sources([tmp_path])
        assert sorted(s.name for s in collected) == sorted(
            s.name for s in scan_batch[:4]
        )
        assert all(s.path is not None for s in collected)

    def test_missing_input_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_sources(["/definitely/not/here.v"])

    def test_hash_is_content_addressed(self):
        assert hash_source("module m; endmodule") == hash_source("module m; endmodule")
        assert hash_source("a") != hash_source("b")

    def test_directory_walk_is_sorted(self, tmp_path):
        # Creation order deliberately scrambled: the walk must come back
        # path-sorted regardless of what order the filesystem yields.
        for name in ("zeta", "alpha", "mid"):
            (tmp_path / f"{name}.v").write_text(f"module {name}; endmodule")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "beta.v").write_text("module beta; endmodule")
        collected = collect_sources([tmp_path])
        paths = [s.path for s in collected]
        assert paths == sorted(paths)

    def test_duplicate_inputs_are_deduplicated(self, tmp_path):
        target = tmp_path / "one.v"
        target.write_text("module one; endmodule")
        # The same file listed twice, and again via its directory.
        collected = collect_sources([target, target, tmp_path])
        assert [s.name for s in collected] == ["one"]

    def test_symlinked_duplicates_resolve_to_one_source(self, tmp_path):
        target = tmp_path / "real.v"
        target.write_text("module real_mod; endmodule")
        link = tmp_path / "alias.v"
        try:
            link.symlink_to(target)
        except (OSError, NotImplementedError):
            pytest.skip("platform does not support symlinks")
        collected = collect_sources([tmp_path])
        assert len(collected) == 1
        # First occurrence in sorted order wins, under its given path.
        assert collected[0].path == str(link)

    def test_file_plus_containing_directory_keeps_first_occurrence(self, tmp_path):
        target = tmp_path / "dup.v"
        target.write_text("module dup; endmodule")
        collected = collect_sources([target, tmp_path])
        assert [s.path for s in collected] == [str(target)]


class TestReportsAndRecords:
    def test_report_json_round_trip(self, detector, scan_batch):
        report = ScanEngine(detector).scan_sources(scan_batch)
        restored = ScanReport.from_dict(report.to_dict())
        assert restored.n_designs == report.n_designs
        assert [r.to_dict() for r in restored.records] == [
            r.to_dict() for r in report.records
        ]

    def test_triage_partitions_every_record(self, detector, scan_batch):
        report = ScanEngine(detector).scan_sources(scan_batch)
        queues = report.triage()
        assert sum(len(q) for q in queues.values()) == len(report.records)
        assert report.n_scanned == len(scan_batch)

    def test_scan_record_round_trip(self, detector, scan_batch):
        record = ScanEngine(detector).scan_sources(scan_batch[:1]).records[0]
        restored = ScanRecord.from_dict(record.to_dict())
        assert restored == record

    def test_worker_pool_matches_serial(self, detector, scan_batch):
        serial = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        pooled = ScanEngine(detector).scan_sources(scan_batch, workers=2)
        for a, b in zip(serial.records, pooled.records):
            assert a.decision.p_value_trojan_infected == b.decision.p_value_trojan_infected


class TestCacheHitRenaming:
    def test_renamed_design_updates_decision_name(self, detector, scan_batch, tmp_path):
        cache = ScanCache(tmp_path, "fp-rename")
        engine = ScanEngine(detector, fingerprint="fp-rename", cache=cache)
        engine.scan_sources(scan_batch[:1])
        renamed = [
            ScanSource(name="renamed_design", source=scan_batch[0].source)
        ]
        record = engine.scan_sources(renamed).records[0]
        assert record.cached
        assert record.name == "renamed_design"
        assert record.decision.name == "renamed_design"

    def test_cache_hit_respects_requested_confidence(
        self, detector, scan_batch, tmp_path
    ):
        cache = ScanCache(tmp_path, "fp-conf")
        engine = ScanEngine(detector, fingerprint="fp-conf", cache=cache)
        engine.scan_sources(scan_batch, confidence=0.5)
        cached = engine.scan_sources(scan_batch, confidence=0.99)
        assert cached.n_cache_hits == len(scan_batch)
        fresh = ScanEngine(detector).scan_sources(scan_batch, confidence=0.99)
        for hit, ref in zip(cached.records, fresh.records):
            assert hit.decision.region_labels == ref.decision.region_labels
            assert hit.decision.p_value_trojan_infected == ref.decision.p_value_trojan_infected
            assert hit.verdict == ref.verdict


class TestComputeBackends:
    """Backend-selected scans agree with the golden numpy pipeline."""

    def test_fused_f32_verdicts_and_p_values_match(self, detector, scan_batch):
        golden = ScanEngine(detector).scan_sources(scan_batch)
        try:
            fused = ScanEngine(detector, backend="fused_f32").scan_sources(scan_batch)
        finally:
            detector.set_backend("numpy")
        assert fused.backend == "fused_f32"
        for a, b in zip(golden.records, fused.records):
            assert a.verdict == b.verdict
            assert a.decision.predicted_label == b.decision.predicted_label
            assert abs(
                a.decision.p_value_trojan_infected - b.decision.p_value_trojan_infected
            ) < 0.05

    def test_non_default_backend_records_infer_substages(self, detector, scan_batch):
        try:
            report = ScanEngine(detector, backend="fused_f32").scan_sources(scan_batch)
        finally:
            detector.set_backend("numpy")
        assert "infer/gemm" in report.stage_seconds
        assert "infer/activation" in report.stage_seconds
        substage_total = sum(
            v for k, v in report.stage_seconds.items() if k.startswith("infer/")
        )
        assert substage_total <= report.stage_seconds["infer"] + 1e-6

    def test_numpy_backend_has_no_infer_substages(self, detector, scan_batch):
        report = ScanEngine(detector).scan_sources(scan_batch)
        assert not any(k.startswith("infer/") for k in report.stage_seconds)

    def test_report_round_trips_backend_through_profile(self, detector, scan_batch):
        try:
            report = ScanEngine(detector, backend="fused_f32").scan_sources(scan_batch)
        finally:
            detector.set_backend("numpy")
        payload = report.to_dict()
        assert payload["profile"]["backend"] == "fused_f32"
        restored = ScanReport.from_dict(payload)
        assert restored.backend == "fused_f32"
        assert restored.stage_seconds.keys() == report.stage_seconds.keys()

    def test_unknown_backend_rejected_before_any_work(self, detector):
        with pytest.raises(ValueError, match="unknown compute backend"):
            ScanEngine(detector, backend="nope")
        assert detector  # construction failed fast; model untouched
