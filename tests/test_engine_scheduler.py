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
from repro.engine.cli import build_scan_batch
from repro.engine.scan import ScanSource
from repro.engine import scheduler as scheduler_module


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


class TestParallelEqualsSerial:
    def test_pooled_scan_is_byte_identical(self, detector, scan_batch, serial_records):
        with ScanScheduler(model=detector, jobs=2, shard_size=4) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]

    def test_serial_scheduler_path_is_byte_identical(
        self, detector, scan_batch, serial_records
    ):
        with ScanScheduler(model=detector, jobs=1, shard_size=3) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]

    def test_shard_size_does_not_change_results(self, detector, scan_batch, serial_records):
        for shard_size in (1, 5, 100):
            with ScanScheduler(model=detector, jobs=2, shard_size=shard_size) as s:
                report = s.scan_sources(scan_batch)
            assert [r.to_dict() for r in report.records] == [
                r.to_dict() for r in serial_records
            ]

    def test_from_artifact_workers_load_the_detector(
        self, detector, scan_batch, serial_records, tmp_path
    ):
        artifact = save_detector(detector, tmp_path / "artifact")
        with ScanScheduler.from_artifact(artifact, jobs=2, shard_size=4) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        observed = [
            (r.decision.p_value_trojan_free, r.decision.p_value_trojan_infected)
            for r in report.records
        ]
        expected = [
            (r.decision.p_value_trojan_free, r.decision.p_value_trojan_infected)
            for r in serial_records
        ]
        assert observed == expected

    def test_pooled_fused_f32_scan_is_byte_identical(
        self, detector, scan_batch, tmp_path
    ):
        artifact = save_detector(detector, tmp_path / "artifact")
        serial = ScanEngine.from_artifact(artifact, backend="fused_f32").scan_sources(
            scan_batch, workers=1
        )
        with ScanScheduler.from_artifact(
            artifact, jobs=2, shard_size=7, backend="fused_f32"
        ) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        assert report.backend == "fused_f32"
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial.records
        ]

    def test_front_end_errors_become_records_not_failures(self, detector, scan_batch):
        mixed = list(scan_batch[:3]) + [
            ScanSource(name="broken", source="module broken (x; endmodule")
        ]
        with ScanScheduler(model=detector, jobs=2, shard_size=2) as scheduler:
            report = scheduler.scan_sources(mixed)
        assert report.n_errors == 1
        assert report.records[3].error is not None
        assert all(r.ok for r in report.records[:3])


class TestResume:
    def test_partial_results_are_reused(self, detector, scan_batch, tmp_path):
        cache_dir = tmp_path / "cache"
        half = scan_batch[: len(scan_batch) // 2]
        with ScanScheduler(
            model=detector,
            fingerprint="fp-res",
            cache=ScanCache(cache_dir, "fp-res"),
            jobs=1,
            shard_size=3,
        ) as first:
            first.scan_sources(half)
        with ScanScheduler(
            model=detector,
            fingerprint="fp-res",
            cache=ScanCache(cache_dir, "fp-res"),
            jobs=1,
            shard_size=3,
        ) as second:
            report = second.scan_sources(scan_batch, resume=True)
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
        with ScanScheduler(
            model=detector, fingerprint="fp-journal", cache=cache, jobs=1, shard_size=5
        ) as scheduler:
            scheduler.scan_sources(scan_batch)
        journal_path = next(cache.namespace_dir.glob("scan_state_*.json"))
        state = json.loads(journal_path.read_text())
        assert state["status"] == "complete"
        assert state["runs"] == 1
        assert len(state["shards"]) == (len(scan_batch) + 4) // 5
        assert all(s["status"] == "done" for s in state["shards"].values())
        # A resumed run of the same corpus continues the same journal.
        with ScanScheduler(
            model=detector, fingerprint="fp-journal", cache=ScanCache(tmp_path, "fp-journal"),
            jobs=1, shard_size=5,
        ) as again:
            again.scan_sources(scan_batch, resume=True)
        assert json.loads(journal_path.read_text())["runs"] == 2

    def test_resume_requires_cache(self, detector, scan_batch):
        with ScanScheduler(model=detector, jobs=1) as scheduler:
            with pytest.raises(ValueError, match="cache"):
                scheduler.scan_sources(scan_batch, resume=True)


def _interruptible_scan(cache_dir: str, ready) -> None:
    """Child process: slow sharded scan that flushes per shard (kill target)."""
    model = _interruptible_scan.model  # attached by the parent before fork
    batch = _interruptible_scan.batch
    original = scheduler_module._scan_shard_serial

    state = {"count": 0}

    def slow(engine, task, workers=None):
        if state["count"] >= 1:
            # The previous shard has been absorbed AND flushed by now.
            ready.set()
            time.sleep(0.3)  # widen the kill window mid-shard
        state["count"] += 1
        return original(engine, task, workers=workers)

    scheduler_module._scan_shard_serial = slow
    with ScanScheduler(
        model=model,
        fingerprint="fp-kill",
        cache=ScanCache(cache_dir, "fp-kill"),
        jobs=1,
        shard_size=1,
    ) as scheduler:
        scheduler.scan_sources(batch)


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
        with ScanScheduler(
            model=detector,
            fingerprint="fp-kill",
            cache=survivors,
            jobs=1,
            shard_size=1,
        ) as scheduler:
            report = scheduler.scan_sources(scan_batch, resume=True)
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


class TestBoundedRetry:
    def test_transient_shard_failure_is_retried(
        self, detector, scan_batch, serial_records, monkeypatch
    ):
        original = scheduler_module._scan_shard_serial
        failures = {"remaining": 2}

        def flaky(engine, task, workers=None):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                return task[0], None, 0.0, 0.0, 0, "RuntimeError: transient blip"
            return original(engine, task, workers=workers)

        monkeypatch.setattr(scheduler_module, "_scan_shard_serial", flaky)
        with ScanScheduler(
            model=detector, jobs=1, shard_size=5, max_retries=2
        ) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        assert report.n_errors == 0
        assert [r.to_dict() for r in report.records] == [
            r.to_dict() for r in serial_records
        ]

    def test_exhausted_retries_yield_error_records(
        self, detector, scan_batch, monkeypatch
    ):
        def always_fails(engine, task, workers=None):
            return task[0], None, 0.0, 0.0, 0, "RuntimeError: worker keeps dying"

        monkeypatch.setattr(scheduler_module, "_scan_shard_serial", always_fails)
        with ScanScheduler(
            model=detector, jobs=1, shard_size=4, max_retries=1
        ) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        assert report.n_errors == len(scan_batch)
        assert all(
            r.error is not None and "failed after 2 attempts" in r.error
            for r in report.records
        )

    def test_shard_timeout_becomes_a_retryable_failure(self, detector, scan_batch):
        # A deadline of ~0 means no pool result can ever arrive in time —
        # the stand-in for a worker that died hard and will never reply.
        with ScanScheduler(
            model=detector, jobs=2, shard_size=4, max_retries=0, shard_timeout=0.001
        ) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        assert report.n_errors == len(scan_batch)
        assert all(
            r.error is not None and "no result within" in r.error
            for r in report.records
        )

    def test_failed_designs_are_not_cached(self, detector, scan_batch, tmp_path, monkeypatch):
        def always_fails(engine, task, workers=None):
            return task[0], None, 0.0, 0.0, 0, "RuntimeError: nope"

        monkeypatch.setattr(scheduler_module, "_scan_shard_serial", always_fails)
        cache = ScanCache(tmp_path, "fp-fail")
        with ScanScheduler(
            model=detector, fingerprint="fp-fail", cache=cache, jobs=1, max_retries=0
        ) as scheduler:
            scheduler.scan_sources(scan_batch)
        assert len(cache) == 0


class TestValidation:
    def test_needs_model_or_artifact(self):
        with pytest.raises(ValueError, match="model or an artifact_path"):
            ScanScheduler()

    def test_rejects_bad_shard_size(self, detector):
        with pytest.raises(ValueError, match="shard_size"):
            ScanScheduler(model=detector, shard_size=0)

    def test_rejects_negative_retries(self, detector):
        with pytest.raises(ValueError, match="max_retries"):
            ScanScheduler(model=detector, max_retries=-1)


class TestReportRoundTripWithErrors:
    """ScanReport JSON round-trips must preserve retry-exhaustion errors."""

    def _exhausted_report(self, detector, scan_batch, monkeypatch):
        def always_fails(engine, task, workers=None):
            return task[0], None, 0.0, 0.0, 0, "RuntimeError: worker keeps dying"

        monkeypatch.setattr(scheduler_module, "_scan_shard_serial", always_fails)
        with ScanScheduler(
            model=detector, jobs=1, shard_size=4, max_retries=1
        ) as scheduler:
            return scheduler.scan_sources(scan_batch)

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

        original = scheduler_module._scan_shard_serial
        failures = {"remaining": 1}

        def first_shard_fails(engine, task, workers=None):
            if failures["remaining"] > 0:
                failures["remaining"] -= 1
                return task[0], None, 0.0, 0.0, 0, "RuntimeError: one bad shard"
            return original(engine, task, workers=workers)

        monkeypatch.setattr(scheduler_module, "_scan_shard_serial", first_shard_fails)
        with ScanScheduler(
            model=detector, jobs=1, shard_size=4, max_retries=0
        ) as scheduler:
            report = scheduler.scan_sources(scan_batch)
        assert 0 < report.n_errors < len(scan_batch)
        restored = ScanReport.from_dict(
            json.loads(json.dumps(report.to_dict(), sort_keys=True))
        )
        assert restored.to_dict() == report.to_dict()
        queues = restored.triage()
        assert len(queues["error"]) == report.n_errors
