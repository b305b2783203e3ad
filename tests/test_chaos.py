"""Chaos suite: injected faults must degrade the system, never corrupt it.

Every scenario drives a *public* surface (engine scan, extraction pool,
serve HTTP) with failpoints activated underneath, and asserts the two
robustness invariants from ``docs/ROBUSTNESS.md``:

* every accepted request is answered and every scan completes with
  verdicts byte-identical to a fault-free serial scan;
* the degradation is observable (``repro_engine_degraded_total`` /
  ``rejected_by_reason`` move, ``/healthz`` reports active faults).
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import faults
from repro.core.config import ClassifierConfig, NoodleConfig
from repro.engine import ScanEngine, ScanScheduler, save_detector, train_detector
from repro.engine.cli import build_scan_batch
from repro.obs.metrics import REGISTRY
from repro.serve.client import ScanServiceClient, ScanServiceError
from repro.serve.server import ScanService


@pytest.fixture(autouse=True)
def _clean_failpoints(monkeypatch):
    """Never leak an activation table (or env spec) into the next test."""
    monkeypatch.delenv(faults.FAILPOINTS_ENV, raising=False)
    faults.configure(None)
    yield
    faults.configure(None)


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def artifact(detector, tmp_path_factory):
    return save_detector(detector, tmp_path_factory.mktemp("chaos") / "artifact")


@pytest.fixture(scope="module")
def corpus():
    return build_scan_batch(10, seed=91)


@pytest.fixture(scope="module")
def serial_records(detector, corpus):
    """Fault-free reference verdicts every chaos scan must reproduce."""
    return ScanEngine(detector).scan_sources(corpus, workers=1).records


def _dicts(records):
    return [r.to_dict() for r in records]


def _degraded(tier: str) -> float:
    return REGISTRY.value("repro_engine_degraded_total", tier=tier)


# -- storage-tier chaos ------------------------------------------------------


class TestStorageChaos:
    def test_cache_flush_enospc_degrades_not_fails(
        self, artifact, corpus, serial_records, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        engine = ScanEngine.from_artifact(artifact, cache_dir=cache_dir)
        before = _degraded("cache")
        faults.configure("cache.flush.io=error:OSError")
        report = engine.scan_sources(corpus, workers=1)
        assert _dicts(report.records) == _dicts(serial_records)
        assert _degraded("cache") > before
        # No partial shard may survive the failed flush.
        assert list(cache_dir.rglob("*.tmp")) == []

    def test_feature_store_flush_enospc_degrades_not_fails(
        self, artifact, corpus, serial_records, tmp_path
    ):
        store_dir = tmp_path / "features"
        engine = ScanEngine.from_artifact(artifact, feature_store_dir=store_dir)
        before = _degraded("features")
        faults.configure("features.flush.io=error:OSError")
        report = engine.scan_sources(corpus, workers=1)
        assert _dicts(report.records) == _dicts(serial_records)
        assert _degraded("features") > before
        assert list(store_dir.rglob("*.tmp")) == []

    def test_corrupt_cache_shard_is_quarantined_and_recomputed(
        self, artifact, corpus, serial_records, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        warm = ScanEngine.from_artifact(artifact, cache_dir=cache_dir)
        warm.scan_sources(corpus, workers=1)  # seed the shard on disk
        faults.configure("cache.shard.read=corrupt")
        engine = ScanEngine.from_artifact(artifact, cache_dir=cache_dir)
        report = engine.scan_sources(corpus, workers=1)
        assert _dicts(report.records) == _dicts(serial_records)
        assert list(cache_dir.rglob("*.corrupt")), "corrupt shard not quarantined"

    def test_corrupt_feature_shard_is_quarantined_and_recomputed(
        self, artifact, corpus, serial_records, tmp_path
    ):
        store_dir = tmp_path / "features"
        warm = ScanEngine.from_artifact(artifact, feature_store_dir=store_dir)
        warm.scan_sources(corpus, workers=1)
        faults.configure("features.shard.read=corrupt")
        engine = ScanEngine.from_artifact(artifact, feature_store_dir=store_dir)
        report = engine.scan_sources(corpus, workers=1)
        assert _dicts(report.records) == _dicts(serial_records)
        assert list(store_dir.rglob("*.corrupt")), "corrupt segment not quarantined"


# -- worker-pool chaos -------------------------------------------------------


class TestWorkerChaos:
    def test_killed_workers_fall_back_to_serial(
        self, detector, corpus, serial_records, monkeypatch, pool_constructions
    ):
        """SIGKILL-grade worker loss (os._exit) must not lose the scan.

        The dead worker breaks the pool at once; the default 600 s chunk
        deadline never comes into play.  Both scan paths share the pool.
        """
        from repro.engine import scan

        monkeypatch.setattr(scan, "POOL_MIN_SOURCE_BYTES", 0)  # 10 designs, ~21 KB
        monkeypatch.setenv(faults.FAILPOINTS_ENV, "extract.worker.body=kill")
        faults.configure_from_env()  # fork-started workers inherit this table
        before = _degraded("pool")
        deaths = REGISTRY.value("repro_engine_worker_deaths_total")
        start = time.monotonic()
        report = ScanScheduler(ScanEngine(detector), shard_size=5).scan_sources(
            corpus, workers=2
        )
        assert _dicts(report.records) == _dicts(serial_records)
        assert report.n_worker_deaths == 1
        plain = ScanEngine(detector).scan_sources(corpus, workers=2)
        assert _dicts(plain.records) == _dicts(serial_records)
        assert plain.n_worker_deaths == 1
        assert time.monotonic() - start < 60.0
        assert len(pool_constructions) == 2  # one per scan_sources call
        assert _degraded("pool") == before + 2
        assert REGISTRY.value("repro_engine_worker_deaths_total") == deaths + 2


# -- serve chaos -------------------------------------------------------------


def _post_scan(host, port, payload, headers=None):
    """One raw POST /scan; returns (status, headers dict, body dict)."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload).encode("utf-8")
        all_headers = {"Content-Type": "application/json"}
        all_headers.update(headers or {})
        conn.request("POST", "/scan", body=body, headers=all_headers)
        response = conn.getresponse()
        raw = response.read()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            json.loads(raw) if raw else {},
        )
    finally:
        conn.close()


class TestServeOverload:
    def test_admission_gate_sheds_with_429_and_retry_after(self, artifact, corpus):
        payload = {"sources": [{"name": corpus[0].name, "source": corpus[0].source}]}
        with ScanService(
            artifact,
            port=0,
            batch_window_s=0.25,
            max_batch=1,
            max_queue_depth=1,
        ) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(
                    pool.map(
                        lambda _: _post_scan(service.host, service.port, payload),
                        range(8),
                    )
                )
            statuses = [status for status, _, _ in results]
            # Every request was answered: accepted ones scanned, the rest shed.
            assert set(statuses) <= {200, 429}
            assert 200 in statuses
            shed = [
                (status, headers) for status, headers, _ in results if status == 429
            ]
            assert shed, f"no overload shedding across {statuses}"
            assert all("retry-after" in headers for _, headers in shed)
            snapshot = service.metrics.snapshot()
            assert snapshot["rejected_by_reason"].get("overload", 0) >= len(shed)

    def test_expired_deadline_returns_504(self, artifact, corpus):
        payload = {"sources": [{"name": corpus[0].name, "source": corpus[0].source}]}
        with ScanService(
            artifact, port=0, batch_window_s=0.3, max_batch=8
        ) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
            status, _, body = _post_scan(
                service.host,
                service.port,
                payload,
                headers={"X-Repro-Deadline-Ms": "1"},
            )
            assert status == 504
            assert "deadline" in body["error"]
            # A generous deadline is honored normally.
            status, _, body = _post_scan(
                service.host,
                service.port,
                payload,
                headers={"X-Repro-Deadline-Ms": "30000"},
            )
            assert status == 200 and len(body["records"]) == 1
            snapshot = service.metrics.snapshot()
            assert snapshot["rejected_by_reason"].get("deadline", 0) >= 1

    def test_malformed_deadline_header_is_a_request_error(self, artifact, corpus):
        payload = {"sources": [{"name": corpus[0].name, "source": corpus[0].source}]}
        with ScanService(artifact, port=0, batch_window_s=0.01) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
            for bad in ("soon", "-5", "0", "nan", "inf", "1e400"):
                status, _, _ = _post_scan(
                    service.host,
                    service.port,
                    payload,
                    headers={"X-Repro-Deadline-Ms": bad},
                )
                assert status == 400

    def test_pipelining_budget_closes_greedy_connections(self, artifact, corpus):
        with ScanService(
            artifact,
            port=0,
            batch_window_s=0.2,
            max_batch=16,
            max_pipelined_requests=2,
        ) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
            body = json.dumps(
                {"sources": [{"name": corpus[0].name, "source": corpus[0].source}]}
            ).encode("utf-8")
            scan = (
                b"POST /scan HTTP/1.1\r\nHost: t\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
            )
            healthz = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
            with socket.create_connection(
                (service.host, service.port), timeout=30
            ) as sock:
                # One slow in-flight scan, then more pipelined requests than
                # the per-connection budget allows.
                sock.sendall(scan + healthz * 4)
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            stream = b"".join(chunks)
            # Bodies are not CRLF-terminated, so scan for status lines anywhere.
            statuses = [int(m) for m in re.findall(rb"HTTP/1\.1 (\d{3}) ", stream)]
            # scan + the two budgeted healthz answered, then the shed + close.
            assert statuses == [200, 200, 200, 429]
            assert b"Retry-After" in stream
            snapshot = service.metrics.snapshot()
            assert snapshot["rejected_by_reason"].get("connection_budget", 0) >= 1

    def test_healthz_reports_active_faults_as_degraded(self, artifact):
        with ScanService(artifact, port=0, batch_window_s=0.01) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
                faults.configure("chaos.test.marker=delay:0")
                payload = client.healthz()
                assert payload["status"] == "degraded"
                assert [fp["name"] for fp in payload["faults"]] == [
                    "chaos.test.marker"
                ]
                faults.configure(None)
                payload = client.healthz()
                assert payload["status"] == "ok" and payload["faults"] == []

    def test_dispatch_failpoint_injects_500_then_recovers(self, artifact):
        with ScanService(artifact, port=0, batch_window_s=0.01) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
                faults.configure("serve.dispatch=error,n=1")
                with pytest.raises(ScanServiceError) as excinfo:
                    client.healthz()
                assert excinfo.value.status == 500
            # The injected failure is bounded (n=1): service stays up and
            # keeps reporting the (now spent) failpoint until it is cleared.
            with ScanServiceClient(service.host, service.port) as client:
                payload = client.healthz()
                assert payload["status"] == "degraded"
                assert payload["faults"][0]["fired"] == 1
                faults.configure(None)
                assert client.healthz()["status"] == "ok"

    def test_overloaded_service_drains_cleanly(self, artifact, corpus):
        """Shutdown under load: accepted requests answered, no hang."""
        payload = {"sources": [{"name": s.name, "source": s.source} for s in corpus]}
        start = time.monotonic()
        with ScanService(
            artifact, port=0, batch_window_s=0.1, max_batch=4, max_queue_depth=2
        ) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(_post_scan, service.host, service.port, payload)
                    for _ in range(4)
                ]
                statuses = [f.result()[0] for f in futures]
            assert all(status in (200, 429) for status in statuses)
        assert time.monotonic() - start < 60.0
