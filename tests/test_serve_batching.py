"""Micro-batcher tests: coalescing, caps, grouping, errors, drain."""

from __future__ import annotations

import threading
import time
from typing import List, Optional, Sequence
from unittest import mock

import pytest

from repro.core.results import ScanRecord, TrojanDecision
from repro.engine.scan import ScanReport, ScanSource
from repro.serve.batching import (
    BatcherClosed,
    BatchResult,
    MicroBatchError,
    MicroBatcher,
)
from repro.serve.metrics import ServiceMetrics


def _decision(name: str, level: float) -> TrojanDecision:
    return TrojanDecision(
        name=name,
        predicted_label=0,
        probability_infected=0.1,
        p_value_trojan_free=0.8,
        p_value_trojan_infected=0.05,
        region_labels=(0,),
        credibility=0.8,
        confidence=level,
    )


class FakeScanner:
    """A scan_fn standing in for the engine: records calls, echoes sources."""

    def __init__(self, delay_s: float = 0.0, fail: bool = False) -> None:
        self.delay_s = delay_s
        self.fail = fail
        self.calls: List[tuple] = []
        self.lock = threading.Lock()
        self.release = threading.Event()
        self.release.set()

    def __call__(self, sources, confidence):
        self.release.wait(5.0)
        with self.lock:
            self.calls.append(([s.name for s in sources], confidence))
        if self.fail:
            raise RuntimeError("model exploded")
        if self.delay_s:
            time.sleep(self.delay_s)
        level = confidence if confidence is not None else 0.9
        return ScanReport(
            records=[
                ScanRecord(name=s.name, sha256=s.sha256, decision=_decision(s.name, level))
                for s in sources
            ],
            n_designs=len(sources),
            confidence_level=level,
        )


def _sources(*names: str) -> List[ScanSource]:
    return [ScanSource(name=n, source=f"module {n}; endmodule") for n in names]


class _Completion:
    """The ``on_done`` callback of one request, with a blocking wait."""

    def __init__(self) -> None:
        self._done = threading.Event()
        self.result: Optional[BatchResult] = None
        self.error: Optional[str] = None

    def __call__(self, result: Optional[BatchResult], error: Optional[str]) -> None:
        self.result, self.error = result, error
        self._done.set()

    def wait(self, timeout: float = 10.0) -> BatchResult:
        """The request's result; raises ``MicroBatchError`` if it failed."""
        assert self._done.wait(timeout), "batch result never arrived"
        if self.error is not None:
            raise MicroBatchError(self.error)
        assert self.result is not None
        return self.result


def _submit(
    batcher: MicroBatcher,
    sources: Sequence[ScanSource],
    confidence: Optional[float] = None,
) -> _Completion:
    """Enqueue one request through ``submit_nowait``; returns its handle."""
    completion = _Completion()
    batcher.submit_nowait(sources, confidence=confidence, on_done=completion)
    return completion


class TestSubmission:
    def test_single_submit_returns_own_records(self):
        scanner = FakeScanner()
        batcher = MicroBatcher(scanner, batch_window_s=0.0)
        try:
            result = _submit(batcher, _sources("a", "b")).wait()
            assert [r.name for r in result.records] == ["a", "b"]
            assert result.batch_requests == 1
            assert result.batch_designs == 2
        finally:
            batcher.close()

    def test_empty_submit_rejected(self):
        batcher = MicroBatcher(FakeScanner(), batch_window_s=0.0)
        try:
            with pytest.raises(MicroBatchError, match="at least one source"):
                _submit(batcher, [])
        finally:
            batcher.close()

    def test_records_are_sliced_per_request(self):
        scanner = FakeScanner()
        scanner.release.clear()  # hold the worker so submissions queue up
        batcher = MicroBatcher(scanner, batch_window_s=0.5, max_batch=16)
        try:
            pending = [
                _submit(batcher, _sources(*names))
                for names in (("a",), ("b", "c"), ("d",))
            ]
            scanner.release.set()
            results = [p.wait() for p in pending]
            assert [r.name for r in results[0].records] == ["a"]
            assert [r.name for r in results[1].records] == ["b", "c"]
            assert [r.name for r in results[2].records] == ["d"]
        finally:
            batcher.close()


class TestCoalescing:
    def test_default_dispatches_a_lone_request_without_waiting(self):
        """Dispatch on idle: the worker never holds a lone request open."""
        scanner = FakeScanner()
        batcher = MicroBatcher(scanner)
        cond = batcher._cond
        with mock.patch.object(cond, "wait", wraps=cond.wait) as wait:
            try:
                result = _submit(batcher, _sources("a")).wait()
                assert [r.name for r in result.records] == ["a"]
                assert scanner.calls == [(["a"], None)]
            finally:
                batcher.close()
        # The idle worker blocks without a timeout; a timed wait would be
        # a straggler hold.
        assert all(call == mock.call() for call in wait.call_args_list), (
            wait.call_args_list
        )

    @pytest.mark.parametrize(
        "window", [{}, {"batch_window_s": 0.5}], ids=["default", "window"]
    )
    def test_queued_requests_share_one_scan_call(self, window):
        scanner = FakeScanner()
        scanner.release.clear()
        batcher = MicroBatcher(scanner, max_batch=16, **window)
        try:
            pending = [_submit(batcher, _sources(f"d{i}")) for i in range(4)]
            scanner.release.set()
            results = [p.wait() for p in pending]
            # The first request may run alone (it was dequeued before the
            # others arrived), but the queued remainder must coalesce.
            assert max(r.batch_requests for r in results) >= 3
            assert len(scanner.calls) <= 2
        finally:
            batcher.close()

    def test_max_batch_caps_designs_per_call(self):
        scanner = FakeScanner()
        scanner.release.clear()
        batcher = MicroBatcher(scanner, batch_window_s=0.5, max_batch=2)
        try:
            pending = [_submit(batcher, _sources(f"d{i}")) for i in range(4)]
            scanner.release.set()
            for p in pending:
                p.wait()
            assert all(len(names) <= 2 for names, _ in scanner.calls)
        finally:
            batcher.close()

    def test_oversized_request_still_runs_whole(self):
        scanner = FakeScanner()
        batcher = MicroBatcher(scanner, batch_window_s=0.0, max_batch=2)
        try:
            result = _submit(batcher, _sources("a", "b", "c", "d")).wait()
            assert len(result.records) == 4
            assert scanner.calls[0][0] == ["a", "b", "c", "d"]
        finally:
            batcher.close()

    def test_confidence_levels_never_mix_in_one_call(self):
        scanner = FakeScanner()
        scanner.release.clear()
        batcher = MicroBatcher(scanner, batch_window_s=0.5, max_batch=16)
        try:
            pending = [
                _submit(batcher, _sources(f"d{i}"), 0.9 if i % 2 else 0.99)
                for i in range(4)
            ]
            scanner.release.set()
            results = [p.wait() for p in pending]
            for (names, confidence) in scanner.calls:
                assert confidence in (0.9, 0.99)
            for i, result in enumerate(results):
                assert result.confidence_level == (0.9 if i % 2 else 0.99)
        finally:
            batcher.close()

    def test_batch_metrics_observed(self):
        metrics = ServiceMetrics()
        batcher = MicroBatcher(FakeScanner(), batch_window_s=0.0, metrics=metrics)
        try:
            _submit(batcher, _sources("a", "b", "c")).wait()
            snapshot = metrics.snapshot()
            assert snapshot["batches_total"] == 1
            assert snapshot["batched_designs_total"] == 3
            assert snapshot["max_batch_designs"] == 3
        finally:
            batcher.close()


class TestFailuresAndLifecycle:
    def test_scan_failure_propagates_to_every_member(self):
        scanner = FakeScanner(fail=True)
        scanner.release.clear()
        batcher = MicroBatcher(scanner, batch_window_s=0.5, max_batch=16)
        try:
            pending = [_submit(batcher, _sources(f"d{i}")) for i in range(2)]
            scanner.release.set()
            for p in pending:
                with pytest.raises(MicroBatchError, match="model exploded"):
                    p.wait()
        finally:
            batcher.close()

    def test_failure_does_not_kill_the_worker(self):
        scanner = FakeScanner()
        batcher = MicroBatcher(scanner, batch_window_s=0.0)
        try:
            scanner.fail = True
            with pytest.raises(MicroBatchError):
                _submit(batcher, _sources("a")).wait()
            scanner.fail = False
            assert [r.name for r in _submit(batcher, _sources("b")).wait().records] == ["b"]
        finally:
            batcher.close()

    def test_close_drains_queued_requests(self):
        scanner = FakeScanner(delay_s=0.05)
        batcher = MicroBatcher(scanner, batch_window_s=0.0, max_batch=1)
        pending = [_submit(batcher, _sources(f"d{i}")) for i in range(2)]
        time.sleep(0.02)  # one request mid-batch, the other still queued
        batcher.close()
        assert [p.wait(timeout=0).records[0].name for p in pending] == ["d0", "d1"]

    def test_submit_after_close_raises(self):
        batcher = MicroBatcher(FakeScanner(), batch_window_s=0.0)
        batcher.close()
        with pytest.raises(BatcherClosed):
            _submit(batcher, _sources("a"))

    def test_close_is_idempotent(self):
        batcher = MicroBatcher(FakeScanner(), batch_window_s=0.0)
        batcher.close()
        batcher.close()

    def test_constructor_validation(self):
        for window in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="batch_window_s"):
                MicroBatcher(FakeScanner(), batch_window_s=window)
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(FakeScanner(), max_batch=0)
