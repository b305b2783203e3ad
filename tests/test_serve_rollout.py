"""Champion–challenger rollout tests: ledger, gate, routing, parity.

The promotion policy is a pure state machine (:class:`RolloutController`)
so most of the gate's behaviour is tested without HTTP; the service-level
tests then cover the wiring — shadow scans riding live traffic, the
one-shot auto-promotion swapping default routing, rejection leaving the
champion in place with the evidence in ``/metrics`` — and the acceptance
property that multi-model routed scans return records byte-identical to
a single-model serial CLI scan of the same corpus.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.config import ClassifierConfig, NoodleConfig
from repro.engine import (
    ScanEngine,
    recalibrate_detector,
    save_detector,
    train_detector,
)
from repro.engine.cli import build_scan_batch
from repro.features import extract_modalities
from repro.serve.client import ScanServiceClient, ScanServiceError
from repro.serve.rollout import (
    STATE_PROMOTED,
    STATE_REJECTED,
    STATE_SHADOWING,
    RolloutController,
    RolloutError,
)
from repro.serve.server import ScanService
from repro.trojan import SuiteConfig, TrojanDataset


@pytest.fixture(scope="module")
def detector_a(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def detector_b():
    """An independently trained model (different data, seed, epochs)."""
    features = extract_modalities(
        TrojanDataset.generate(
            SuiteConfig(n_trojan_free=6, n_trojan_infected=6, seed=41)
        )
    )
    config = NoodleConfig(classifier=ClassifierConfig(epochs=1, seed=9), seed=9)
    return train_detector(features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def detector_disagreeing(detector_a):
    """A copy of ``detector_a`` recalibrated on skewed data.

    With these pinned seeds it flips the triage verdict of exactly some
    of the ``corpus`` designs — enough that a ``promote_threshold`` of
    1.0 must reject it.
    """
    challenger = copy.deepcopy(detector_a)
    fresh = extract_modalities(
        TrojanDataset.generate(
            SuiteConfig(n_trojan_free=3, n_trojan_infected=9, seed=99)
        )
    )
    recalibrate_detector(challenger, fresh)
    return challenger


@pytest.fixture(scope="module")
def artifact_a(detector_a, tmp_path_factory):
    return save_detector(detector_a, tmp_path_factory.mktemp("rollout") / "a")


@pytest.fixture(scope="module")
def artifact_a_twin(detector_a, tmp_path_factory):
    """A second copy of the same model: a challenger that always agrees."""
    return save_detector(detector_a, tmp_path_factory.mktemp("rollout") / "a_twin")


@pytest.fixture(scope="module")
def artifact_b(detector_b, tmp_path_factory):
    return save_detector(detector_b, tmp_path_factory.mktemp("rollout") / "b")


@pytest.fixture(scope="module")
def artifact_disagreeing(detector_disagreeing, tmp_path_factory):
    return save_detector(
        detector_disagreeing, tmp_path_factory.mktemp("rollout") / "disagree"
    )


@pytest.fixture(scope="module")
def corpus():
    return build_scan_batch(12, seed=202)


def _wait_for(predicate, timeout: float = 20.0, interval: float = 0.02):
    """Poll until ``predicate()`` is truthy; return its value or fail."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    pytest.fail(f"condition not reached within {timeout}s")


class TestControllerLedger:
    def test_accounting_and_rate(self):
        rollout = RolloutController("champ", "chal", min_shadow_designs=100)
        assert rollout.agreement_rate() is None
        decision = rollout.observe(
            ["trojan_free", "uncertain", "trojan_free"],
            ["trojan_free", "trojan_free", "trojan_free"],
            names=["x", "y", "z"],
        )
        assert decision is None  # below min_shadow_designs
        snapshot = rollout.snapshot()
        assert snapshot["shadow_designs"] == 3
        assert snapshot["agreements"] == 2
        assert snapshot["agreement_rate"] == pytest.approx(2 / 3)
        assert snapshot["state"] == STATE_SHADOWING
        assert snapshot["disagreements"] == [
            {"name": "y", "champion": "uncertain", "challenger": "trojan_free"}
        ]

    def test_promotes_at_threshold(self):
        rollout = RolloutController(
            "champ", "chal", promote_threshold=0.75, min_shadow_designs=4
        )
        decision = rollout.observe(["a", "a", "a", "b"], ["a", "a", "a", "c"])
        # 3/4 agreement meets the 0.75 threshold exactly.
        assert decision == STATE_PROMOTED
        assert rollout.state == STATE_PROMOTED
        assert rollout.snapshot()["forced"] is False
        assert rollout.snapshot()["decided_at"] is not None

    def test_rejects_below_threshold_and_decision_is_one_shot(self):
        rollout = RolloutController(
            "champ", "chal", promote_threshold=0.9, min_shadow_designs=4
        )
        assert rollout.observe(["a"] * 4, ["a", "a", "b", "b"]) == STATE_REJECTED
        assert rollout.state == STATE_REJECTED
        # A late-arriving perfect batch must not flip the terminal state.
        assert rollout.observe(["a"] * 50, ["a"] * 50) is None
        assert rollout.state == STATE_REJECTED
        assert rollout.snapshot()["shadow_designs"] == 4
        assert rollout.should_sample() is False  # terminal: stop shadowing

    def test_decision_waits_for_min_designs(self):
        rollout = RolloutController("champ", "chal", min_shadow_designs=10)
        for _ in range(9):
            assert rollout.observe(["a"], ["a"]) is None
        assert rollout.observe(["a"], ["a"]) == STATE_PROMOTED

    def test_force_promote_is_recorded_as_forced(self):
        rollout = RolloutController("champ", "chal")
        rollout.force_promote()
        snapshot = rollout.snapshot()
        assert snapshot["state"] == STATE_PROMOTED
        assert snapshot["forced"] is True

    def test_force_promote_can_overrule_a_rejection(self):
        rollout = RolloutController(
            "champ", "chal", promote_threshold=1.0, min_shadow_designs=1
        )
        assert rollout.observe(["a"], ["b"]) == STATE_REJECTED
        rollout.force_promote()
        assert rollout.state == STATE_PROMOTED

    def test_disagreement_sample_is_bounded(self):
        rollout = RolloutController("champ", "chal", min_shadow_designs=1000)
        rollout.observe(["a"] * 100, ["b"] * 100)
        assert len(rollout.snapshot()["disagreements"]) == 16

    def test_error_diffusion_sampling_is_deterministic(self):
        rollout = RolloutController("champ", "chal", sample_rate=0.25)
        pattern = [rollout.should_sample() for _ in range(8)]
        assert pattern == [False, False, False, True] * 2
        full = RolloutController("champ2", "chal2")  # sample_rate=1.0
        assert all(full.should_sample() for _ in range(10))

    def test_validation_errors(self):
        with pytest.raises(RolloutError):
            RolloutController("same", "same")
        with pytest.raises(RolloutError):
            RolloutController("a", "b", promote_threshold=1.5)
        with pytest.raises(RolloutError):
            RolloutController("a", "b", min_shadow_designs=0)
        with pytest.raises(RolloutError):
            RolloutController("a", "b", sample_rate=0.0)
        rollout = RolloutController("a", "b")
        with pytest.raises(RolloutError):
            rollout.observe(["x"], ["x", "y"])


class TestServiceRollout:
    def test_shadow_accounting_surfaces_in_metrics(
        self, artifact_a, artifact_a_twin, corpus
    ):
        with ScanService(
            artifacts={"champ": artifact_a, "chal": artifact_a_twin},
            shadow="chal",
            promote_threshold=0.9,
            min_shadow_designs=10_000,  # never decides during this test
            port=0,
            batch_window_s=0.0,
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                client.scan_texts([(s.name, s.source) for s in corpus[:4]])

                def shadow_counted():
                    snapshot = client.metrics()
                    return (
                        snapshot["shadow_designs"] == 4
                        and snapshot["rollout"]["shadow_designs"] == 4
                    ) and snapshot
                snapshot = _wait_for(shadow_counted)
            assert snapshot["shadow_scans"] == 1
            assert snapshot["rollout"]["state"] == STATE_SHADOWING
            assert snapshot["rollout"]["agreement_rate"] == 1.0
            assert snapshot["champion"] == "champ"

    def test_challenger_auto_promotes_at_threshold(
        self, artifact_a, artifact_a_twin, corpus
    ):
        with ScanService(
            artifacts={"champ": artifact_a, "chal": artifact_a_twin},
            shadow="chal",
            promote_threshold=0.98,
            min_shadow_designs=6,
            port=0,
            batch_window_s=0.0,
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                response = client.scan_texts([(s.name, s.source) for s in corpus])
                assert response["model"] == "champ"
                _wait_for(lambda: svc.champion == "chal")
                snapshot = client.metrics()
                assert snapshot["rollout"]["state"] == STATE_PROMOTED
                assert snapshot["rollout"]["forced"] is False
                assert snapshot["promotions"] == 1
                assert snapshot["forced_promotions"] == 0
                # Default routing now lands on the promoted challenger.
                after = client.scan_texts([(corpus[0].name, corpus[0].source)])
                assert after["model"] == "chal"
                health = client.healthz()
                assert health["champion"] == "chal"
                assert health["rollout"] == STATE_PROMOTED

    def test_disagreeing_challenger_is_rejected_with_evidence(
        self, artifact_a, artifact_disagreeing, corpus
    ):
        with ScanService(
            artifacts={"champ": artifact_a, "chal": artifact_disagreeing},
            shadow="chal",
            promote_threshold=1.0,
            min_shadow_designs=len(corpus),
            port=0,
            batch_window_s=0.0,
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                client.scan_texts([(s.name, s.source) for s in corpus])
                snapshot = _wait_for(
                    lambda: (m := client.metrics())["rollout"]["state"]
                    != STATE_SHADOWING
                    and m
                )
                assert snapshot["rollout"]["state"] == STATE_REJECTED
                assert snapshot["rollout"]["agreement_rate"] < 1.0
                assert snapshot["rollout"]["disagreements"]
                disagreement = snapshot["rollout"]["disagreements"][0]
                assert disagreement["champion"] != disagreement["challenger"]
                assert snapshot["promotions"] == 0
                # The champion keeps serving.
                assert svc.champion == "champ"
                after = client.scan_texts([(corpus[0].name, corpus[0].source)])
                assert after["model"] == "champ"

    def test_forced_promotion_overrides_the_gate(
        self, artifact_a, artifact_b, corpus
    ):
        with ScanService(
            artifacts={"champ": artifact_a, "chal": artifact_b},
            shadow="chal",
            promote_threshold=1.0,
            min_shadow_designs=10_000,
            port=0,
            batch_window_s=0.0,
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                payload = client.promote()
                assert payload["champion"] == "chal"
                assert payload["rollout"]["forced"] is True
                assert svc.champion == "chal"
                snapshot = client.metrics()
                assert snapshot["forced_promotions"] == 1
                response = client.scan_texts([(corpus[0].name, corpus[0].source)])
                assert response["model"] == "chal"

    def test_promote_without_a_rollout_is_400(self, artifact_a):
        with ScanService(artifact_a, port=0) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                with pytest.raises(ScanServiceError) as excinfo:
                    client.promote()
                assert excinfo.value.status == 400


class TestMultiModelRouting:
    def test_body_field_and_header_route_to_the_named_model(
        self, artifact_a, artifact_b, corpus
    ):
        fingerprints = {
            name: json.loads((path / "manifest.json").read_text())["fingerprint"]
            for name, path in (("a", artifact_a), ("b", artifact_b))
        }
        with ScanService(
            artifacts={"a": artifact_a, "b": artifact_b}, port=0, batch_window_s=0.0
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                default = client.scan_texts([(corpus[0].name, corpus[0].source)])
                assert default["model"] == "a"  # first entry is the champion
                assert default["fingerprint"] == fingerprints["a"]
                routed = client.scan_texts(
                    [(corpus[1].name, corpus[1].source)], model="b"
                )
                assert routed["model"] == "b"
                assert routed["fingerprint"] == fingerprints["b"]
                # Header routing (per-tenant proxies set a header, not the
                # body) reaches the same lane.
                conn = client._connection()
                conn.request(
                    "POST",
                    "/scan",
                    body=json.dumps(
                        {
                            "sources": [
                                {"name": corpus[2].name, "source": corpus[2].source}
                            ]
                        }
                    ),
                    headers={
                        "Content-Type": "application/json",
                        "X-Repro-Model": "b",
                    },
                )
                http_response = conn.getresponse()
                via_header = json.loads(http_response.read())
                assert http_response.status == 200
                assert via_header["model"] == "b"
                assert via_header["fingerprint"] == fingerprints["b"]
                per_model = client.metrics()["scans_by_model"]
                assert per_model == {"a": 1, "b": 2}

    def test_unknown_model_is_400(self, artifact_a, corpus):
        with ScanService(artifact_a, port=0) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                with pytest.raises(ScanServiceError) as excinfo:
                    client.scan_texts(
                        [(corpus[0].name, corpus[0].source)], model="nope"
                    )
                assert excinfo.value.status == 400
                assert "nope" in str(excinfo.value)

    def test_healthz_lists_every_model(self, artifact_a, artifact_b):
        with ScanService(
            artifacts={"a": artifact_a, "b": artifact_b}, port=0
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                health = client.wait_until_ready()
                assert set(health["models"]) == {"a", "b"}
                assert health["champion"] == "a"
                assert (
                    health["models"]["a"]["fingerprint"]
                    != health["models"]["b"]["fingerprint"]
                )


class TestRoutedEqualsSerial:
    def test_routed_records_byte_identical_to_serial_engine(
        self, detector_b, artifact_a, artifact_b, corpus, pool_constructions
    ):
        """Concurrent scans routed to model b == a serial scan with b.

        A multi-design batch extracts in-process inside the serve lane:
        the service forks no extraction pool.
        """
        serial = ScanEngine(detector_b).scan_sources(corpus, workers=1)
        expected = [record.to_dict() for record in serial.records]

        with ScanService(
            artifacts={"a": artifact_a, "b": artifact_b},
            port=0,
            batch_window_s=0.05,
            max_batch=16,
        ) as svc:
            ScanServiceClient(svc.host, svc.port).wait_until_ready()

            def scan_one(source):
                with ScanServiceClient(svc.host, svc.port) as client:
                    return client.scan_texts(
                        [(source.name, source.source)], model="b"
                    )

            with ThreadPoolExecutor(len(corpus)) as pool:
                responses = list(pool.map(scan_one, corpus))
            max_batch_designs = svc.metrics.snapshot()["max_batch_designs"]

        observed = [response["records"][0] for response in responses]
        assert json.dumps(observed, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert all(response["model"] == "b" for response in responses)
        assert max_batch_designs > 1  # a multi-design batch ran
        assert pool_constructions == []  # ... and the lane forked no pool

    def test_routed_records_byte_identical_to_single_model_cli_scan(
        self, artifact_a, artifact_b, corpus, tmp_path
    ):
        """The acceptance property against the real single-model CLI."""
        hdl_dir = tmp_path / "designs"
        hdl_dir.mkdir()
        for source in corpus:
            (hdl_dir / f"{source.name}.v").write_text(source.source)
        output = tmp_path / "serial.json"
        env = dict(
            os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src")
        )
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "scan",
                "--artifact",
                str(artifact_b),
                str(hdl_dir),
                "--no-cache",
                "--output",
                str(output),
            ],
            check=True,
            env=env,
            capture_output=True,
            text=True,
        )
        expected = json.loads(output.read_text())["records"]

        with ScanService(
            artifacts={"a": artifact_a, "b": artifact_b},
            port=0,
            batch_window_s=0.0,
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as client:
                client.wait_until_ready()
                response = client.scan(paths=[str(hdl_dir)], model="b")
        assert json.dumps(response["records"], sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
