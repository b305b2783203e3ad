"""Scan pipeline tests: batched == sequential, cache hits and invalidation."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time

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
        import concurrent.futures

        from repro.engine import scan
        from repro.engine.scan import extract_feature_rows
        from repro.obs.metrics import REGISTRY

        def no_pool(*args, **kwargs):
            raise OSError("no semaphores")

        serial, _ = extract_feature_rows(scan_batch, workers=1)
        before = REGISTRY.value("repro_engine_degraded_total", tier="pool")
        deaths = REGISTRY.value("repro_engine_worker_deaths_total")
        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)  # the batch is small
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        rows, errors = extract_feature_rows(scan_batch, workers=2)
        assert REGISTRY.value("repro_engine_degraded_total", tier="pool") == before + 1
        # A pool that never started lost no worker.
        assert REGISTRY.value("repro_engine_worker_deaths_total") == deaths
        assert "extraction pool failed" in caplog.text
        assert not errors and sorted(rows) == sorted(serial)
        for index, row in serial.items():
            for expected, got in zip(row, rows[index]):
                assert np.array_equal(got, expected)

    def test_pool_broken_during_submission_counts_a_worker_death(
        self, scan_batch, monkeypatch
    ):
        # A worker can die while the parent is still submitting chunks; the
        # next submit then raises BrokenProcessPool.  That pool had started,
        # so the loss is a worker death, as it is when a result reports it.
        import concurrent.futures
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool

        from repro.engine import scan
        from repro.obs.metrics import REGISTRY

        class BreaksOnSecondSubmit(concurrent.futures.ProcessPoolExecutor):
            submitted = 0

            def submit(self, *args, **kwargs):
                self.submitted += 1
                if self.submitted > 1:
                    raise BrokenProcessPool("a worker died during submission")
                return super().submit(*args, **kwargs)

        serial, _ = scan.extract_feature_rows(scan_batch, workers=1)
        degraded = REGISTRY.value("repro_engine_degraded_total", tier="pool")
        deaths = REGISTRY.value("repro_engine_worker_deaths_total")
        before = set(multiprocessing.active_children())
        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)  # the batch is small
        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", BreaksOnSecondSubmit
        )
        report = ScanReport(n_designs=len(scan_batch))
        streamed = list(scan.iter_feature_rows(scan_batch, workers=2, report=report))
        assert [index for index, _, _ in streamed] == list(range(len(scan_batch)))
        for index, row, error in streamed:
            assert error is None
            for expected, got in zip(serial[index], row):
                assert got.tobytes() == expected.tobytes()
        assert report.n_worker_deaths == 1
        assert REGISTRY.value("repro_engine_degraded_total", tier="pool") == degraded + 1
        assert REGISTRY.value("repro_engine_worker_deaths_total") == deaths + 1
        assert set(multiprocessing.active_children()) - before == set()

    def test_dead_worker_is_counted_and_extracts_serially(self):
        # A pool worker that exits mid-task breaks the pool at once: the
        # call falls back to the parent long before the default 600 s
        # chunk deadline.  40 designs (~91 KB) pass the pool threshold
        # as-is.  Run in a subprocess so a hang fails this test instead of
        # the suite.
        script = textwrap.dedent(
            """
            import os
            from repro.engine import scan
            from repro.engine.cli import build_scan_batch
            from repro.obs.metrics import REGISTRY

            parent, extract = os.getpid(), scan._extract_worker

            def dying_worker(task):
                if task[0] == 1 and os.getpid() != parent:
                    os._exit(137)
                return extract(task)

            batch = build_scan_batch(40)
            assert sum(len(s.source) for s in batch) >= scan.POOL_MIN_SOURCE_BYTES
            assert scan.SHARD_DEADLINE_S == 600.0
            serial, _ = scan.extract_feature_rows(batch, workers=1)
            scan._extract_worker = dying_worker
            degraded = REGISTRY.value("repro_engine_degraded_total", tier="pool")
            deaths = REGISTRY.value("repro_engine_worker_deaths_total")
            rows, errors = scan.extract_feature_rows(batch, workers=2)
            assert not errors and sorted(rows) == sorted(serial)
            for index, row in serial.items():
                for expected, got in zip(row, rows[index]):
                    assert got.shape == expected.shape
                    assert got.tobytes() == expected.tobytes()
            assert REGISTRY.value("repro_engine_degraded_total", tier="pool") == degraded + 1
            assert REGISTRY.value("repro_engine_worker_deaths_total") == deaths + 1
            print("recovered")
            """
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert "recovered" in done.stdout
        assert "extraction pool failed (BrokenProcessPool" in done.stderr


class TestSmallScansSkipThePool:
    def test_small_batch_extracts_serially(
        self, scan_batch, pool_constructions, monkeypatch
    ):
        from repro.engine import scan

        assert sum(len(s.source) for s in scan_batch) < scan.POOL_MIN_SOURCE_BYTES
        serial, _ = scan.extract_feature_rows(scan_batch, workers=1)
        rows, errors = scan.extract_feature_rows(scan_batch, workers=2)
        assert pool_constructions == []
        assert not errors and sorted(rows) == sorted(serial)
        for index, row in serial.items():
            for expected, got in zip(row, rows[index]):
                assert got.tobytes() == expected.tobytes()
        # The fixture does see the pool once the threshold is met, so the
        # empty list above is not vacuous.
        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)
        scan.extract_feature_rows(scan_batch, workers=2)
        assert len(pool_constructions) == 1


class TestFeatureRowStream:
    def test_rows_stream_in_input_order_around_store_hits(
        self, scan_batch, tmp_path, monkeypatch, pool_constructions
    ):
        from repro.engine import scan
        from repro.engine.feature_store import FeatureStore

        serial, _ = scan.extract_feature_rows(scan_batch, workers=1)
        store = FeatureStore(tmp_path / "features")
        scan.extract_feature_rows(scan_batch[::2], workers=1, store=store)
        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)  # the batch is small
        streamed = list(scan.iter_feature_rows(scan_batch, workers=2, store=store))
        assert len(pool_constructions) == 1
        assert [index for index, _, _ in streamed] == list(range(len(scan_batch)))
        for index, row, error in streamed:
            assert error is None
            for expected, got in zip(serial[index], row):
                assert got.tobytes() == expected.tobytes()

    def test_serial_stream_extracts_design_by_design(self, scan_batch, monkeypatch):
        from repro.engine import scan

        original = scan._extract_worker
        calls = []

        def extract(task):
            calls.append(task[0])
            return original(task)

        monkeypatch.setattr(scan, "_extract_worker", extract)
        stream = scan.iter_feature_rows(scan_batch, workers=1)
        next(stream)
        next(stream)
        assert calls == [0, 1]  # a consumer gets each row before the next is extracted
        stream.close()

    def test_on_wait_is_called_through_a_long_wait(
        self, scan_batch, monkeypatch, pool_constructions
    ):
        from repro import faults
        from repro.engine import scan

        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)  # the batch is small
        monkeypatch.delenv(faults.FAILPOINTS_ENV, raising=False)
        calls = []

        def on_wait():
            calls.append(time.monotonic())
            return 0.05

        faults.configure("extract.worker.body=delay:500")  # fork-started workers inherit it
        try:
            rows = list(scan.iter_feature_rows(scan_batch, workers=2, on_wait=on_wait))
        finally:
            faults.configure(None)
        assert [index for index, _, _ in rows] == list(range(len(scan_batch)))
        assert len(pool_constructions) == 1
        # The first chunk is out for at least 500 ms; a 50 ms pause means
        # several calls during that wait alone.
        assert len(calls) >= 4
        assert all(b - a >= 0.04 for a, b in zip(calls, calls[1:4]))

    def test_consumer_error_mid_stream_leaves_no_pool_worker(
        self, scan_batch, monkeypatch, pool_constructions
    ):
        import multiprocessing

        from repro.engine import scan

        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)  # the batch is small

        def consume():
            for _ in scan.iter_feature_rows(scan_batch, workers=2):
                raise RuntimeError("consumer gave up")

        before = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="consumer gave up"):
            consume()
        assert len(pool_constructions) == 1
        assert set(multiprocessing.active_children()) - before == set()


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

    def test_crlf_file_keeps_its_universal_newline_hash(self, tmp_path):
        text = "module crlf (a, y);\n  input a;\n  output y;\n  assign y = a;\nendmodule\n"
        (tmp_path / "crlf.v").write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        (collected,) = collect_sources([tmp_path])
        assert collected.source == text
        assert collected.sha256 == hash_source(text)

    def test_undecodable_bytes_are_replaced_not_fatal(self, tmp_path, monkeypatch):
        # Decoding ignores the locale: records must not depend on LANG.
        monkeypatch.setenv("LANG", "C")
        monkeypatch.setenv("LC_ALL", "C")
        (tmp_path / "latin1.v").write_bytes(b"// Autor: Jos\xe9\nmodule m; endmodule\n")
        (tmp_path / "utf8.v").write_bytes("// Autor: Jos\u00e9\n".encode("utf-8"))
        latin1, utf8 = collect_sources([tmp_path])
        assert latin1.source == "// Autor: Jos\ufffd\nmodule m; endmodule\n"
        assert utf8.source == "// Autor: Jos\u00e9\n"


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

    def test_worker_pool_matches_serial(
        self, detector, scan_batch, monkeypatch, pool_constructions
    ):
        from repro.engine import scan

        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)  # the batch is small
        serial = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        pooled = ScanEngine(detector).scan_sources(scan_batch, workers=2)
        assert len(pool_constructions) == 1
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
