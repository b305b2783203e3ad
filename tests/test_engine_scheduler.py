"""Scheduler tests: parallel == serial, resume after kill, bounded retry."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.core.config import ClassifierConfig, NoodleConfig
from repro.engine import (
    ScanCache,
    ScanEngine,
    ScanScheduler,
    save_detector,
    train_detector,
)
from repro.engine import scan as scan_module
from repro.engine import scheduler as scheduler_module
from repro.engine.cli import build_scan_batch
from repro.engine.scan import ScanSource
from repro.obs.metrics import REGISTRY


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def scan_batch():
    return build_scan_batch(14, seed=55)


@pytest.fixture(scope="module")
def serial_records(detector, scan_batch):
    """Reference records from a plain single-process engine scan."""
    return ScanEngine(detector).scan_sources(scan_batch, workers=1).records


@pytest.fixture
def forced_pool(monkeypatch, pool_constructions):
    """Make ``workers=2`` fork a pool even for the small test corpus.

    The corpus is far under ``POOL_MIN_SOURCE_BYTES``, so without this a
    "pooled" scan would extract in-process.  Returns the pool-construction
    log so a test can assert one pool per ``scan_sources`` call.
    """
    monkeypatch.setattr(scan_module, "POOL_MIN_SOURCE_BYTES", 0)
    return pool_constructions


def _dicts(records):
    return [r.to_dict() for r in records]


def _p_values(record):
    return (record.decision.p_value_trojan_free, record.decision.p_value_trojan_infected)


class TestParallelEqualsSerial:
    def test_pooled_scan_is_byte_identical(
        self, detector, scan_batch, serial_records, forced_pool
    ):
        scheduler = ScanScheduler(ScanEngine(detector), shard_size=4)
        report = scheduler.scan_sources(scan_batch, workers=2)
        assert _dicts(report.records) == _dicts(serial_records)
        assert len(forced_pool) == 1  # one pool for the whole corpus

    def test_serial_scheduler_path_is_byte_identical(
        self, detector, scan_batch, serial_records, pool_constructions
    ):
        scheduler = ScanScheduler(ScanEngine(detector), shard_size=3)
        report = scheduler.scan_sources(scan_batch, workers=1)
        assert _dicts(report.records) == _dicts(serial_records)
        assert pool_constructions == []  # shards extract in the parent process

    def test_shard_size_does_not_change_results(
        self, detector, scan_batch, serial_records, forced_pool
    ):
        for calls, shard_size in enumerate((1, 5, 100), start=1):
            scheduler = ScanScheduler(ScanEngine(detector), shard_size=shard_size)
            report = scheduler.scan_sources(scan_batch, workers=2)
            assert _dicts(report.records) == _dicts(serial_records)
            assert len(forced_pool) == calls  # a pool per call, not per shard

    def test_pooled_fused_f32_scan_is_byte_identical(
        self, detector, scan_batch, tmp_path, forced_pool
    ):
        artifact = save_detector(detector, tmp_path / "artifact")
        engine = ScanEngine.from_artifact(artifact, backend="fused_f32")
        serial = engine.scan_sources(scan_batch, workers=1)
        for calls, shard_size in enumerate((1, 5, 100), start=1):
            scheduler = ScanScheduler(engine, shard_size=shard_size)
            report = scheduler.scan_sources(scan_batch, workers=2)
            assert report.backend == "fused_f32"
            assert _dicts(report.records) == _dicts(serial.records)
            assert len(forced_pool) == calls

    def test_front_end_errors_become_records_not_failures(
        self, detector, scan_batch, forced_pool
    ):
        mixed = list(scan_batch[:3]) + [
            ScanSource(name="broken", source="module broken (x; endmodule")
        ]
        scheduler = ScanScheduler(ScanEngine(detector), shard_size=2)
        report = scheduler.scan_sources(mixed, workers=2)
        assert report.n_errors == 1
        assert report.records[3].error is not None
        assert all(r.ok for r in report.records[:3])
        assert len(forced_pool) == 1

    def test_interrupted_scan_leaves_no_pool_worker(
        self, detector, scan_batch, forced_pool, monkeypatch
    ):
        class Abort(BaseException):
            """Not an ``Exception``: the shard retry must not swallow it."""

        engine = ScanEngine(detector)

        def abort(*args, **kwargs):
            raise Abort()

        monkeypatch.setattr(engine, "infer_records", abort)
        before = set(multiprocessing.active_children())
        with pytest.raises(Abort):
            ScanScheduler(engine, shard_size=2).scan_sources(scan_batch, workers=2)
        assert len(forced_pool) == 1
        assert set(multiprocessing.active_children()) - before == set()


class TestResume:
    def test_partial_results_are_reused(self, detector, scan_batch, tmp_path):
        cache_dir = tmp_path / "cache"
        half = scan_batch[: len(scan_batch) // 2]

        def scheduler():
            engine = ScanEngine(
                detector, fingerprint="fp-res", cache=ScanCache(cache_dir, "fp-res")
            )
            return ScanScheduler(engine, shard_size=3)

        scheduler().scan_sources(half, workers=1)
        report = scheduler().scan_sources(scan_batch, workers=1, resume=True)
        assert report.n_cache_hits == len(half)
        fresh = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        observed = [
            (r.decision.p_value_trojan_free, r.decision.p_value_trojan_infected)
            for r in report.records
        ]
        expected = [
            (r.decision.p_value_trojan_free, r.decision.p_value_trojan_infected)
            for r in fresh.records
        ]
        assert observed == expected

    def test_journal_records_progress(self, detector, scan_batch, tmp_path):
        cache = ScanCache(tmp_path, "fp-journal")
        engine = ScanEngine(detector, fingerprint="fp-journal", cache=cache)
        ScanScheduler(engine, shard_size=5).scan_sources(scan_batch, workers=1)
        journal_path = next(cache.namespace_dir.glob("scan_state_*.json"))
        state = json.loads(journal_path.read_text())
        assert state["status"] == "complete"
        assert state["runs"] == 1
        assert len(state["shards"]) == (len(scan_batch) + 4) // 5
        assert all(s["status"] == "done" for s in state["shards"].values())
        # A resumed run of the same corpus continues the same journal.
        again = ScanEngine(
            detector, fingerprint="fp-journal", cache=ScanCache(tmp_path, "fp-journal")
        )
        ScanScheduler(again, shard_size=5).scan_sources(
            scan_batch, workers=1, resume=True
        )
        assert json.loads(journal_path.read_text())["runs"] == 2

    def test_resume_requires_cache(self, detector, scan_batch):
        scheduler = ScanScheduler(ScanEngine(detector))
        with pytest.raises(ValueError, match="cache"):
            scheduler.scan_sources(scan_batch, resume=True)


def _interruptible_scan(cache_dir: str, ready) -> None:
    """Child process: slow sharded scan that checkpoints per shard (kill target)."""
    model = _interruptible_scan.model  # attached by the parent before fork
    batch = _interruptible_scan.batch
    scheduler_module.FLUSH_INTERVAL_S = 0.0  # checkpoint after every shard
    engine = ScanEngine(model, fingerprint="fp-kill", cache=ScanCache(cache_dir, "fp-kill"))
    original = engine.infer_records
    state = {"count": 0}

    def slow(*args, **kwargs):
        if state["count"] >= 1:
            # The previous shard has been absorbed AND flushed by now.
            ready.set()
            time.sleep(0.3)  # widen the kill window mid-shard
        state["count"] += 1
        return original(*args, **kwargs)

    engine.infer_records = slow
    ScanScheduler(engine, shard_size=1).scan_sources(batch, workers=1)


class TestResumeAfterKill:
    def test_sigkill_mid_scan_then_resume_completes_cleanly(
        self, detector, scan_batch, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        ready = multiprocessing.Event()
        _interruptible_scan.model = detector
        _interruptible_scan.batch = scan_batch
        child = multiprocessing.Process(
            target=_interruptible_scan, args=(str(cache_dir), ready)
        )
        child.start()
        assert ready.wait(timeout=120), "child never completed a shard"
        time.sleep(0.05)  # let the first shard's flush land, then kill mid-run
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        # No corrupt or half-written cache state may survive the kill ...
        survivors = ScanCache(cache_dir, "fp-kill")
        assert not list(cache_dir.rglob("*.corrupt"))
        assert len(survivors) >= 1  # at least the flushed first shard

        # ... and the resumed scan serves the survivors and finishes the rest.
        engine = ScanEngine(detector, fingerprint="fp-kill", cache=survivors)
        report = ScanScheduler(engine, shard_size=1).scan_sources(
            scan_batch, workers=1, resume=True
        )
        assert report.n_errors == 0
        assert report.n_cache_hits >= 1
        fresh = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        observed = [
            (r.decision.p_value_trojan_free, r.decision.p_value_trojan_infected)
            for r in report.records
        ]
        expected = [
            (r.decision.p_value_trojan_free, r.decision.p_value_trojan_infected)
            for r in fresh.records
        ]
        assert observed == expected
        assert not list(cache_dir.rglob("*.corrupt"))
        assert not list(cache_dir.rglob("*.tmp"))


def _kill_during_extraction(cache_dir: str, ready) -> None:
    """Child process: serial scan whose fifth design extraction hangs (kill target)."""
    model = _kill_during_extraction.model  # attached by the parent before fork
    batch = _kill_during_extraction.batch
    scheduler_module.FLUSH_INTERVAL_S = 0.0  # checkpoint after every shard
    original = scan_module._extract_worker
    calls = {"n": 0}

    def extract(task):
        calls["n"] += 1
        if calls["n"] == 5:  # shards 0 and 1 (two designs each) are done
            ready.set()
            time.sleep(120)  # killed here, inside the extraction
        return original(task)

    scan_module._extract_worker = extract
    engine = ScanEngine(
        model, fingerprint="fp-extract-kill", cache=ScanCache(cache_dir, "fp-extract-kill")
    )
    ScanScheduler(engine, shard_size=2).scan_sources(batch, workers=1)


class TestResumeAfterKillDuringExtraction:
    def test_sigkill_inside_serial_extraction_keeps_finished_shards(
        self, detector, scan_batch, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        ready = multiprocessing.Event()
        _kill_during_extraction.model = detector
        _kill_during_extraction.batch = scan_batch
        child = multiprocessing.Process(
            target=_kill_during_extraction, args=(str(cache_dir), ready)
        )
        child.start()
        assert ready.wait(timeout=120), "child never reached the fifth extraction"
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30)
        assert child.exitcode == -signal.SIGKILL

        # The serial stream extracts design by design, so the two shards
        # before the kill were inferred and checkpointed, not lost.
        survivors = ScanCache(cache_dir, "fp-extract-kill")
        assert len(survivors) == 4
        assert not list(cache_dir.rglob("*.corrupt"))

        engine = ScanEngine(detector, fingerprint="fp-extract-kill", cache=survivors)
        report = ScanScheduler(engine, shard_size=2).scan_sources(
            scan_batch, workers=1, resume=True
        )
        assert report.n_cache_hits == 4
        assert report.n_errors == 0
        fresh = ScanEngine(detector).scan_sources(scan_batch, workers=1)
        assert [_p_values(r) for r in report.records] == [
            _p_values(r) for r in fresh.records
        ]
        assert not list(cache_dir.rglob("*.tmp"))


class TestCheckpointCadence:
    def test_pooled_scan_checkpoints_while_it_waits_for_rows(
        self, detector, scan_batch, tmp_path, forced_pool, monkeypatch
    ):
        from repro import faults

        # 14 designs in 7 two-design chunks over 2 workers, each chunk
        # 600 ms: chunks 0 and 1 arrive together, chunk 2 about 600 ms
        # later.  The 200 ms cadence comes due while the scan waits for
        # chunk 2, with shard 1 (designs 2-3) inferred but not flushed.
        monkeypatch.setattr(scheduler_module, "FLUSH_INTERVAL_S", 0.2)
        monkeypatch.delenv(faults.FAILPOINTS_ENV, raising=False)
        cache_dir = tmp_path / "cache"
        engine = ScanEngine(
            detector, fingerprint="fp-wait", cache=ScanCache(cache_dir, "fp-wait")
        )
        scheduler = ScanScheduler(engine, shard_size=2)
        original = scheduler._checkpoint
        durable = []

        def checkpoint(*args, **kwargs):
            original(*args, **kwargs)
            durable.append(len(ScanCache(cache_dir, "fp-wait")))

        monkeypatch.setattr(scheduler, "_checkpoint", checkpoint)
        faults.configure("extract.worker.body=delay:600")  # fork-started workers inherit it
        try:
            report = scheduler.scan_sources(scan_batch, workers=2)
        finally:
            faults.configure(None)
        assert report.n_errors == 0
        assert len(forced_pool) == 1
        assert durable[-1] == len(scan_batch)  # the final checkpoint
        assert 4 in durable  # shards 0 and 1 flushed before chunk 2 was back


def _failing(engine, monkeypatch, failures, message):
    """Hook the parent-side shard step: its first ``failures`` calls raise.

    ``failures=None`` makes every call raise.
    """
    original = engine.infer_records
    left = {"n": failures}

    def step(*args, **kwargs):
        if left["n"] is None or left["n"] > 0:
            if left["n"] is not None:
                left["n"] -= 1
            raise RuntimeError(message)
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, "infer_records", step)
    return engine


class TestBoundedRetry:
    def test_transient_shard_failure_is_retried(
        self, detector, scan_batch, serial_records, monkeypatch
    ):
        engine = _failing(ScanEngine(detector), monkeypatch, 2, "transient blip")
        report = ScanScheduler(engine, shard_size=5, max_retries=2).scan_sources(
            scan_batch, workers=1
        )
        assert report.n_errors == 0
        assert report.n_shard_retries == 2
        assert _dicts(report.records) == _dicts(serial_records)

    def test_exhausted_retries_yield_error_records(
        self, detector, scan_batch, monkeypatch
    ):
        engine = _failing(ScanEngine(detector), monkeypatch, None, "worker keeps dying")
        report = ScanScheduler(engine, shard_size=4, max_retries=1).scan_sources(
            scan_batch, workers=1
        )
        assert report.n_errors == len(scan_batch)
        assert all(
            r.error is not None and "failed after 2 attempts" in r.error
            for r in report.records
        )

    def test_shard_timeout_becomes_a_retryable_failure(
        self, detector, scan_batch, serial_records, forced_pool, monkeypatch
    ):
        # A zero chunk deadline means no pool result can ever arrive in
        # time: the stand-in for a worker that is alive but stuck.  The
        # chunk is re-extracted in the parent, so the scan loses the pool,
        # not its records.
        monkeypatch.setattr(scan_module, "SHARD_DEADLINE_S", 0.0)
        before = REGISTRY.value("repro_engine_degraded_total", tier="pool")
        before_children = set(multiprocessing.active_children())
        report = ScanScheduler(
            ScanEngine(detector), shard_size=4, max_retries=0
        ).scan_sources(scan_batch, workers=2)
        assert report.n_errors == 0
        assert _dicts(report.records) == _dicts(serial_records)
        assert report.n_worker_deaths == 1
        assert REGISTRY.value("repro_engine_degraded_total", tier="pool") == before + 1
        assert len(forced_pool) == 1
        assert set(multiprocessing.active_children()) - before_children == set()

    def test_failed_designs_are_not_cached(self, detector, scan_batch, tmp_path, monkeypatch):
        cache = ScanCache(tmp_path, "fp-fail")
        engine = _failing(
            ScanEngine(detector, fingerprint="fp-fail", cache=cache), monkeypatch, None, "nope"
        )
        ScanScheduler(engine, max_retries=0).scan_sources(scan_batch, workers=1)
        assert len(cache) == 0


class TestValidation:
    def test_rejects_bad_shard_size(self, detector):
        with pytest.raises(ValueError, match="shard_size"):
            ScanScheduler(ScanEngine(detector), shard_size=0)

    def test_rejects_negative_retries(self, detector):
        with pytest.raises(ValueError, match="max_retries"):
            ScanScheduler(ScanEngine(detector), max_retries=-1)


class TestReportRoundTripWithErrors:
    """ScanReport JSON round-trips must preserve retry-exhaustion errors."""

    def _exhausted_report(self, detector, scan_batch, monkeypatch):
        engine = _failing(ScanEngine(detector), monkeypatch, None, "worker keeps dying")
        return ScanScheduler(engine, shard_size=4, max_retries=1).scan_sources(
            scan_batch, workers=1
        )

    def test_round_trip_preserves_error_records(
        self, detector, scan_batch, monkeypatch
    ):
        from repro.engine.scan import ScanReport

        report = self._exhausted_report(detector, scan_batch, monkeypatch)
        assert report.n_errors == len(scan_batch)
        restored = ScanReport.from_dict(
            json.loads(json.dumps(report.to_dict(), sort_keys=True))
        )
        assert restored.n_errors == report.n_errors
        assert restored.n_designs == report.n_designs
        assert restored.confidence_level == report.confidence_level
        assert [r.to_dict() for r in restored.records] == [
            r.to_dict() for r in report.records
        ]
        for record in restored.records:
            assert record.decision is None
            assert "failed after 2 attempts" in record.error
            assert not record.ok and record.verdict == "error"

    def test_round_trip_preserves_mixed_success_and_errors(
        self, detector, scan_batch, monkeypatch
    ):
        from repro.engine.scan import ScanReport

        engine = _failing(ScanEngine(detector), monkeypatch, 1, "one bad shard")
        report = ScanScheduler(engine, shard_size=4, max_retries=0).scan_sources(
            scan_batch, workers=1
        )
        assert 0 < report.n_errors < len(scan_batch)
        restored = ScanReport.from_dict(
            json.loads(json.dumps(report.to_dict(), sort_keys=True))
        )
        assert restored.to_dict() == report.to_dict()
        queues = restored.triage()
        assert len(queues["error"]) == report.n_errors
