"""End-to-end scan-service tests over real loopback HTTP.

Covers the acceptance property of the serving layer: concurrent,
micro-batched scans return records byte-identical to a serial engine
scan of the same corpus, plus the operational surface (healthz/metrics/
reload), error mapping, and graceful shutdown.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import __version__
from repro.core.config import ClassifierConfig, NoodleConfig
from repro.core.results import ScanRecord
from repro.engine import ScanEngine, save_detector, train_detector
from repro.engine.cli import build_scan_batch
from repro.serve.client import ScanServiceClient, ScanServiceError
from repro.serve.server import ScanService


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def artifact(detector, tmp_path_factory):
    return save_detector(detector, tmp_path_factory.mktemp("serve") / "artifact")


@pytest.fixture(scope="module")
def corpus():
    return build_scan_batch(10, seed=91)


@pytest.fixture()
def service(artifact):
    with ScanService(artifact, port=0, batch_window_s=0.05, max_batch=16) as svc:
        yield svc


@pytest.fixture()
def client(service):
    with ScanServiceClient(service.host, service.port) as c:
        c.wait_until_ready()
        yield c


class TestOperationalEndpoints:
    def test_healthz_reports_version_and_model(self, client, artifact):
        payload = client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == __version__
        manifest = json.loads((artifact / "manifest.json").read_text())
        assert payload["model"]["fingerprint"] == manifest["fingerprint"]
        assert payload["batching"]["max_batch"] == 16

    def test_metrics_counts_requests_and_designs(self, client, corpus):
        client.scan_texts([(corpus[0].name, corpus[0].source)])
        snapshot = client.metrics()
        assert snapshot["scan_requests"] == 1
        assert snapshot["designs_total"] == 1
        assert snapshot["batches_total"] == 1
        assert snapshot["requests_by_route"]["/scan"] == 1
        assert snapshot["latency_seconds"]["p50"] is not None

    def test_reload_endpoint_answers(self, client):
        payload = client.reload()
        assert payload["reloaded"] is False  # artifact unchanged
        assert payload["version"] == __version__

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ScanServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404


class TestScanEndpoint:
    def test_inline_sources_return_records(self, client, corpus, artifact):
        response = client.scan_texts([(s.name, s.source) for s in corpus[:3]])
        assert response["n_designs"] == 3
        records = client.iter_scan_records(response)
        assert [r["name"] for r in records] == [s.name for s in corpus[:3]]
        assert all(r["decision"] is not None for r in records)
        manifest = json.loads((artifact / "manifest.json").read_text())
        # The response names the model that actually scanned the batch.
        assert response["fingerprint"] == manifest["fingerprint"]

    def test_server_side_paths_are_scanned(self, client, corpus, tmp_path):
        for source in corpus[:2]:
            (tmp_path / f"{source.name}.v").write_text(source.source)
        response = client.scan(paths=[str(tmp_path)])
        assert response["n_designs"] == 2
        assert all(r["source_path"] for r in response["records"])

    def test_unparseable_design_gets_error_record(self, client):
        response = client.scan_texts([("broken", "module broken (x; endmodule")])
        assert response["n_errors"] == 1
        assert response["records"][0]["error"] is not None

    def test_confidence_is_respected(self, client, corpus):
        strict = client.scan_texts([(corpus[0].name, corpus[0].source)], confidence=0.99)
        assert strict["confidence_level"] == 0.99

    def test_bad_payloads_are_400(self, client):
        for payload in (
            {},  # no sources
            {"sources": [{"bad": 1}]},
            {"sources": "nope"},
            {"confidence": 2.0, "sources": [{"source": "module m; endmodule"}]},
            {"paths": ["/does/not/exist"]},
            {"unknown_field": 1},
        ):
            with pytest.raises(ScanServiceError) as excinfo:
                client._request("POST", "/scan", payload=payload)
            assert excinfo.value.status == 400

    def test_paths_can_be_disabled(self, artifact, tmp_path):
        with ScanService(artifact, port=0, allow_paths=False) as svc:
            with ScanServiceClient(svc.host, svc.port) as c:
                c.wait_until_ready()
                with pytest.raises(ScanServiceError) as excinfo:
                    c.scan(paths=[str(tmp_path)])
                assert excinfo.value.status == 400
                assert "disabled" in str(excinfo.value)


class TestServedEqualsSerial:
    @pytest.mark.parametrize(
        "window", [{"batch_window_s": 0.05}, {}], ids=["window", "default"]
    )
    def test_concurrent_microbatched_records_byte_identical_to_serial(
        self, detector, artifact, corpus, window
    ):
        """The serving acceptance property, uncached on both sides.

        At the default (dispatch on idle) the first request runs alone and
        the rest coalesce from the backlog that queued behind it.
        """
        serial = ScanEngine(detector).scan_sources(corpus, workers=1)
        expected = [record.to_dict() for record in serial.records]

        with ScanService(artifact, port=0, max_batch=16, **window) as svc:
            ScanServiceClient(svc.host, svc.port).wait_until_ready()

            def scan_one(source):
                with ScanServiceClient(svc.host, svc.port) as c:
                    return c.scan_texts([(source.name, source.source)])

            with ThreadPoolExecutor(len(corpus)) as pool:
                responses = list(pool.map(scan_one, corpus))
            snapshot = svc.metrics.snapshot()

        observed = [response["records"][0] for response in responses]
        assert json.dumps(observed, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        # And they genuinely shared forward passes.
        assert snapshot["batches_total"] < snapshot["scan_requests"]
        assert snapshot["max_batch_designs"] > 1

    def test_cache_hits_are_marked_and_identical(self, artifact, corpus, tmp_path):
        pairs = [(s.name, s.source) for s in corpus[:3]]
        with ScanService(
            artifact, port=0, batch_window_s=0.0, cache_dir=tmp_path / "cache"
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as c:
                c.wait_until_ready()
                cold = c.scan_texts(pairs)
                warm = c.scan_texts(pairs)
        assert cold["n_cache_hits"] == 0
        assert warm["n_cache_hits"] == 3
        strip = lambda rs: [{k: v for k, v in r.items() if k != "cached"} for r in rs]
        assert strip(warm["records"]) == strip(cold["records"])


class TestLifecycle:
    def test_shutdown_is_idempotent_and_flushes(self, artifact, corpus, tmp_path):
        svc = ScanService(
            artifact, port=0, cache_dir=tmp_path / "cache", flush_every=10_000
        ).start()
        with ScanServiceClient(svc.host, svc.port) as c:
            c.wait_until_ready()
            c.scan_texts([(corpus[0].name, corpus[0].source)])
        svc.shutdown()
        svc.shutdown()
        # flush_every was huge, so only the shutdown flush can have
        # persisted the record.
        entry = svc.registry.entries()[0]
        shards = tmp_path / "cache" / entry.fingerprint[:16] / "shards"
        assert shards.is_dir() and any(shards.glob("*.json"))

    def test_shutdown_is_not_pinned_by_idle_keepalive_connections(self, artifact):
        import time

        svc = ScanService(artifact, port=0).start()
        idle = ScanServiceClient(svc.host, svc.port)
        idle.wait_until_ready()  # leaves a keep-alive connection open, idle
        t_start = time.monotonic()
        svc.shutdown()
        elapsed = time.monotonic() - t_start
        idle.close()
        # Well under the handler read timeout (60s): the grace period is
        # 2s, after which remaining connections are force-closed.
        assert elapsed < 10.0, f"shutdown took {elapsed:.1f}s with an idle connection"

    def test_scans_after_shutdown_are_refused(self, artifact, corpus):
        svc = ScanService(artifact, port=0).start()
        client = ScanServiceClient(svc.host, svc.port)
        client.wait_until_ready()
        svc.shutdown()
        with pytest.raises((ScanServiceError, OSError)):
            client.scan_texts([(corpus[0].name, corpus[0].source)])
        client.close()


class TestFeatureTierOverHttp:
    def test_post_reload_rescan_pays_only_the_forward_pass(
        self, detector, corpus, tmp_path
    ):
        import copy

        from repro.engine import recalibrate_detector
        from repro.features import extract_modalities
        from repro.trojan import SuiteConfig, TrojanDataset

        # A private copy: recalibrating the module-scoped detector fixture
        # in place would skew the serial baselines of the other tests.
        detector = copy.deepcopy(detector)
        artifact = save_detector(detector, tmp_path / "artifact")
        with ScanService(
            artifact,
            port=0,
            batch_window_s=0.0,
            max_batch=16,
            cache_dir=tmp_path / "cache",
        ) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
                first = client.scan_texts([(s.name, s.source) for s in corpus])
                assert first["n_cache_hits"] == 0
                # Recalibrate -> new fingerprint -> forced hot reload.
                fresh = extract_modalities(
                    TrojanDataset.generate(
                        SuiteConfig(n_trojan_free=10, n_trojan_infected=6, seed=93)
                    )
                )
                recalibrate_detector(detector, fresh)
                save_detector(detector, artifact)
                reload_payload = client.reload()
                assert reload_payload["reloaded"]
                second = client.scan_texts([(s.name, s.source) for s in corpus])
                # New fingerprint: the result tier is cold by construction,
                # but every design rides the warm feature tier.
                assert second["fingerprint"] != first["fingerprint"]
                assert second["n_cache_hits"] == 0
                metrics = client.metrics()
                assert metrics["feature_hits"] == len(corpus)


class TestServeBackends:
    """--backend selection surfaces in /metrics and preserves verdicts."""

    def test_metrics_reports_default_backend(self, client):
        snapshot = client.metrics()
        assert snapshot["backend"] == "numpy"
        assert snapshot["backend_dtype"] == "float64"

    def test_fused_service_metrics_and_verdict_parity(self, artifact, corpus):
        pairs = [(s.name, s.source) for s in corpus[:6]]
        with ScanService(
            artifact, port=0, batch_window_s=0.05, max_batch=16, backend="fused_f32"
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as fused_client:
                fused_client.wait_until_ready()
                snapshot = fused_client.metrics()
                assert snapshot["backend"] == "fused_f32"
                assert snapshot["backend_dtype"] == "float32"
                served = fused_client.scan_texts(pairs)["records"]
        golden = ScanEngine.from_artifact(artifact).scan_sources(
            build_scan_batch(10, seed=91)[:6]
        )
        for a, b in zip(golden.records, served):
            restored = ScanRecord.from_dict(b)
            assert a.name == restored.name
            assert a.verdict == restored.verdict
            assert a.decision.predicted_label == restored.decision.predicted_label

    def test_unknown_backend_fails_at_construction(self, artifact):
        with pytest.raises(ValueError, match="unknown compute backend"):
            ScanService(artifact, port=0, backend="nope")


#: The documented JSON /metrics schema (docs/SERVING.md).  The Prometheus
#: exposition rides the same endpoint via content negotiation; this frozen
#: set is the regression guard that negotiation never changed the default.
METRICS_JSON_KEYS = {
    "uptime_seconds",
    "requests_total",
    "requests_by_route",
    "http_errors",
    "scan_requests",
    "designs_total",
    "cache_hits",
    "cache_hit_rate",
    "feature_hits",
    "design_errors",
    "batches_total",
    "batched_designs_total",
    "mean_batch_designs",
    "max_batch_designs",
    "reloads",
    "scans_by_model",
    "designs_by_model",
    "shadow_scans",
    "shadow_designs",
    "promotions",
    "forced_promotions",
    "rejected_by_reason",
    "latency_seconds",
    "backend",
    "backend_dtype",
    "frontend",
    "champion",
    "rollout",
    "drift",
    "scheduler",
}


class TestMetricsExposition:
    """Content negotiation on /metrics: JSON by default, Prometheus on ask."""

    def test_default_json_schema_is_unchanged(self, client, corpus):
        """A bare GET /metrics still returns the documented JSON document."""
        client.scan_texts([(corpus[0].name, corpus[0].source)])
        snapshot = client.metrics()
        assert set(snapshot) == METRICS_JSON_KEYS
        assert set(snapshot["latency_seconds"]) == {"p50", "p95", "p99", "count"}
        assert set(snapshot["scheduler"]) == {
            "shard_retries",
            "worker_deaths",
            "shard_failures",
        }
        for snap in snapshot["drift"].values():
            assert snap["state"] in ("ok", "alarming")

    def test_format_param_selects_prometheus(self, client, corpus):
        """?format=prometheus returns a parseable text exposition."""
        from repro.obs.metrics import parse_prometheus_text

        client.scan_texts([(s.name, s.source) for s in corpus[:2]])
        text = client.metrics_prometheus()
        samples = parse_prometheus_text(text)
        names = {name for name, _ in samples}
        assert "repro_serve_requests_total" in names
        assert "repro_serve_designs_total" in names
        assert "repro_serve_scan_latency_seconds_count" in names
        assert "repro_serve_coverage_observed" in names
        count_keys = [
            key
            for key in samples
            if key[0] == "repro_serve_scan_latency_seconds_count"
        ]
        assert sum(samples[key] for key in count_keys) >= 1

    def test_accept_header_negotiates_prometheus(self, service):
        """Accept: text/plain (no query param) also selects the exposition."""
        import http.client

        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.request("GET", "/metrics", headers={"Accept": "text/plain"})
            response = conn.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type", "").startswith("text/plain")
            assert "# TYPE repro_serve_requests_total counter" in body
        finally:
            conn.close()

    def test_format_param_overrides_accept_header(self, service):
        """?format=json beats Accept: text/plain — the explicit ask wins."""
        import http.client

        conn = http.client.HTTPConnection(service.host, service.port, timeout=10)
        try:
            conn.request(
                "GET", "/metrics?format=json", headers={"Accept": "text/plain"}
            )
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            assert response.status == 200
            assert response.getheader("Content-Type", "").startswith(
                "application/json"
            )
            assert set(payload) == METRICS_JSON_KEYS
        finally:
            conn.close()


class TestCoverageDriftE2E:
    """The ISSUE acceptance loop: stale calibration -> alarm -> reload -> ok."""

    @staticmethod
    def _stale_state(icp, n_per_class: int = 50):
        """A calibration state whose scores make every region empty.

        All calibration scores are pushed to -1e9: any real test score
        exceeds every calibration score, so each label's p-value collapses
        to 1/(n+1) < 0.1 and the region at confidence 0.9 is empty — the
        observable signature of a stale/tampered calibration set.
        """
        import numpy as np

        state = icp.calibration_state()
        scores = np.full(2 * n_per_class, -1e9)
        state["calibration_scores"] = scores
        state["calibration_labels"] = np.array(
            [0] * n_per_class + [1] * n_per_class
        )
        state["sorted_marginal"] = scores.copy()
        for label in (0, 1):
            state[f"sorted_label_{label}"] = np.full(n_per_class, -1e9)
        return state

    def test_stale_calibration_trips_alarm_and_reload_clears_it(
        self, detector, corpus, tmp_path
    ):
        import copy

        from repro.conformal.icp import InductiveConformalClassifier
        from repro.obs.metrics import parse_prometheus_text

        detector = copy.deepcopy(detector)
        artifact = save_detector(detector, tmp_path / "artifact")
        pairs = [(s.name, s.source) for s in corpus[:4]]
        good_states = {
            modality: icp.calibration_state()
            for modality, icp in detector._icps.items()
        }
        with ScanService(
            artifact,
            port=0,
            batch_window_s=0.0,
            max_batch=16,
            drift_window=16,
            drift_min_observations=4,
        ) as service:
            with ScanServiceClient(service.host, service.port) as client:
                client.wait_until_ready()
                # Healthy traffic: status ok, no alarms.
                client.scan_texts(pairs)
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["drift_alarms"] == []
                (model_name,) = health["drift"].keys()

                # Stale calibration -> new fingerprint -> hot reload.
                for modality in detector._icps:
                    detector._icps[modality] = (
                        InductiveConformalClassifier.from_calibration_state(
                            self._stale_state(detector._icps[modality])
                        )
                    )
                save_detector(detector, artifact)
                assert client.reload()["reloaded"]

                # Every region is now empty; the window trips the alarm.
                response = client.scan_texts(pairs)
                assert all(
                    r["decision"]["region_labels"] == []
                    for r in response["records"]
                )
                health = client.healthz()
                assert health["status"] == "degraded"
                assert health["drift_alarms"] == [model_name]
                snap = health["drift"][model_name]
                assert snap["state"] == "alarming"
                assert snap["observed_coverage"] == 0.0
                # Both expositions carry the alarm.
                assert client.metrics()["drift"][model_name]["state"] == "alarming"
                samples = parse_prometheus_text(client.metrics_prometheus())
                key = ("repro_serve_coverage_alarm", (("model", model_name),))
                assert samples[key] == 1

                # Remediation: recalibrate (restore the good calibration)
                # and POST /reload — the window resets and the alarm clears.
                for modality, state in good_states.items():
                    detector._icps[modality] = (
                        InductiveConformalClassifier.from_calibration_state(state)
                    )
                save_detector(detector, artifact)
                assert client.reload()["reloaded"]
                assert client.healthz()["status"] == "ok"
                client.scan_texts(pairs)
                health = client.healthz()
                assert health["status"] == "ok"
                assert health["drift_alarms"] == []
                assert health["drift"][model_name]["state"] == "ok"
                samples = parse_prometheus_text(client.metrics_prometheus())
                key = ("repro_serve_coverage_alarm", (("model", model_name),))
                assert samples[key] == 0
