"""Event-loop front-end stress tests: churn, pipelining, slow loris, drain.

The ``selectors`` reactor holds every connection in one thread, so the
failure modes worth testing are the ones a thread-per-connection server
never sees: hundreds of short-lived connections arriving at once,
pipelined keep-alive requests that must come back in order, half-sent
requests squatting on the loop (slow loris), and a shutdown landing in
the middle of an open micro-batch window — which must drain, not drop,
every request already accepted.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core.config import ClassifierConfig, NoodleConfig
from repro.engine import save_detector, train_detector
from repro.engine.cli import build_scan_batch
from repro.serve.client import ScanServiceClient
from repro.serve.server import ScanService


@pytest.fixture(scope="module")
def detector(small_features):
    config = NoodleConfig(classifier=ClassifierConfig(epochs=3, seed=0), seed=0)
    return train_detector(small_features, strategy="late", config=config).model


@pytest.fixture(scope="module")
def artifact(detector, tmp_path_factory):
    return save_detector(detector, tmp_path_factory.mktemp("eventloop") / "artifact")


@pytest.fixture(scope="module")
def corpus():
    return build_scan_batch(8, seed=171)


def _scan_payload(name: str, text: str) -> bytes:
    return json.dumps(
        {"sources": [{"name": name, "source": text}]}, separators=(",", ":")
    ).encode("utf-8")


def _raw_request(
    method: str, path: str, body: bytes = b"", keep_alive: bool = True
) -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    if not keep_alive:
        head += "Connection: close\r\n"
    return head.encode("ascii") + b"\r\n" + body


class _ByteStream:
    """The server's byte stream on one socket, read in exact pieces."""

    def __init__(self, sock: socket.socket, timeout: float = 30.0) -> None:
        sock.settimeout(timeout)
        self.sock = sock
        self.buffer = b""

    def _fill(self, n: int) -> None:
        while len(self.buffer) < n:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError(f"EOF with {len(self.buffer)}/{n} bytes")
            self.buffer += chunk

    def take(self, n: int) -> bytes:
        self._fill(n)
        out, self.buffer = self.buffer[:n], self.buffer[n:]
        return out

    def response(self):
        """The next Content-Length-framed response: ``(status, json or None)``."""
        while b"\r\n\r\n" not in self.buffer:
            self._fill(len(self.buffer) + 1)
        head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        status = int(head.split(b"\r\n")[0].split()[1])
        length = 0
        for line in head.split(b"\r\n")[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value.strip())
        body = self.take(length)
        return status, json.loads(body) if body else None


def _read_responses(sock: socket.socket, n: int, timeout: float = 30.0):
    """Read ``n`` Content-Length-framed responses; returns (status, json) pairs."""
    stream = _ByteStream(sock, timeout)
    return [stream.response() for _ in range(n)]


_INTERIM = b"HTTP/1.1 100 Continue\r\n\r\n"


def _expect_continue_head(body: bytes) -> bytes:
    """Headers of a scan request that withholds ``body`` until a 100 arrives."""
    return (
        "POST /scan HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n"
        f"Expect: 100-continue\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")


class TestConnectionChurn:
    def test_hundreds_of_short_lived_connections(self, artifact, corpus):
        """~300 connect/request/close cycles mixing healthz and scans."""
        with ScanService(artifact, port=0, batch_window_s=0.005, max_batch=16) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()

            def churn(worker: int) -> int:
                ok = 0
                for i in range(30):
                    with socket.create_connection(
                        (svc.host, svc.port), timeout=30.0
                    ) as sock:
                        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        if i % 3 == 0:
                            source = corpus[(worker + i) % len(corpus)]
                            sock.sendall(
                                _raw_request(
                                    "POST",
                                    "/scan",
                                    _scan_payload(source.name, source.source),
                                    keep_alive=False,
                                )
                            )
                        else:
                            sock.sendall(
                                _raw_request("GET", "/healthz", keep_alive=False)
                            )
                        ((status, payload),) = _read_responses(sock, 1)
                        assert status == 200, payload
                        ok += 1
                        # Connection: close must actually close.
                        assert sock.recv(1) == b""
                return ok

            with ThreadPoolExecutor(10) as pool:
                done = list(pool.map(churn, range(10)))
            assert sum(done) == 300
            assert svc.metrics.snapshot()["scan_requests"] == 100

    def test_pipelined_keepalive_requests_answer_in_order(self, artifact, corpus):
        """Many requests in one write; responses must come back in order."""
        with ScanService(artifact, port=0, batch_window_s=0.02, max_batch=16) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                # healthz, scan, healthz, scan, healthz — one sendall.
                blob = b""
                expected = []
                for i in range(5):
                    if i % 2 == 1:
                        source = corpus[i % len(corpus)]
                        blob += _raw_request(
                            "POST", "/scan", _scan_payload(source.name, source.source)
                        )
                        expected.append(("scan", source.name))
                    else:
                        blob += _raw_request("GET", "/healthz")
                        expected.append(("healthz", None))
                sock.sendall(blob)
                responses = _read_responses(sock, 5)
            for (kind, name), (status, payload) in zip(expected, responses):
                assert status == 200
                if kind == "scan":
                    # The slow dispatched scan did not let the cheap
                    # healthz behind it jump the queue.
                    assert payload["records"][0]["name"] == name
                else:
                    assert payload["status"] == "ok"

    def test_keepalive_clients_interleaved_with_churn(self, artifact, corpus):
        """Persistent scanners and short-lived healthz probes coexist."""
        with ScanService(artifact, port=0, batch_window_s=0.005, max_batch=16) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            stop = threading.Event()
            failures = []

            def prober() -> None:
                while not stop.is_set():
                    try:
                        with socket.create_connection(
                            (svc.host, svc.port), timeout=30.0
                        ) as sock:
                            sock.sendall(
                                _raw_request("GET", "/healthz", keep_alive=False)
                            )
                            ((status, _),) = _read_responses(sock, 1)
                            assert status == 200
                    except Exception as exc:  # surfaced after the join
                        failures.append(exc)
                        return

            probe_threads = [threading.Thread(target=prober) for _ in range(4)]
            for thread in probe_threads:
                thread.start()
            try:

                def persistent_scans(worker: int) -> int:
                    with ScanServiceClient(svc.host, svc.port) as client:
                        for i in range(6):
                            source = corpus[(worker + i) % len(corpus)]
                            response = client.scan_texts(
                                [(source.name, source.source)]
                            )
                            assert response["n_designs"] == 1
                    return 6

                with ThreadPoolExecutor(6) as pool:
                    counts = list(pool.map(persistent_scans, range(6)))
            finally:
                stop.set()
                for thread in probe_threads:
                    thread.join(timeout=30.0)
            assert not failures, failures[0]
            assert sum(counts) == 36


class TestSlowLoris:
    def test_partial_request_line_gets_408_and_close(self, artifact):
        with ScanService(artifact, port=0, request_timeout_s=0.3) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                sock.sendall(b"POST /scan HTT")  # never finishes the line
                ((status, payload),) = _read_responses(sock, 1)
                assert status == 408
                assert "timeout" in payload["error"]
                assert sock.recv(1) == b""  # and the squatter is evicted

    def test_partial_headers_get_408(self, artifact):
        with ScanService(artifact, port=0, request_timeout_s=0.3) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                sock.sendall(b"POST /scan HTTP/1.1\r\nHost: t\r\nContent-Len")
                ((status, _),) = _read_responses(sock, 1)
                assert status == 408

    def test_stalled_body_gets_408(self, artifact):
        with ScanService(artifact, port=0, request_timeout_s=0.3) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                head = (
                    b"POST /scan HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 1000\r\n\r\n"
                )
                sock.sendall(head + b'{"sources"')  # 990 bytes never arrive
                ((status, _),) = _read_responses(sock, 1)
                assert status == 408

    def test_idle_keepalive_outlives_the_request_timeout(self, artifact, corpus):
        """Between requests the 408 clock must not run (idle != slow)."""
        timeout_s = 0.3
        with ScanService(artifact, port=0, request_timeout_s=timeout_s) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(_raw_request("GET", "/healthz"))
                ((status, _),) = _read_responses(sock, 1)
                assert status == 200
                time.sleep(timeout_s * 4)  # idle well past the request budget
                source = corpus[0]
                sock.sendall(
                    _raw_request(
                        "POST", "/scan", _scan_payload(source.name, source.source)
                    )
                )
                ((status, payload),) = _read_responses(sock, 1)
                assert status == 200, payload

    def test_in_flight_scan_is_exempt_from_the_request_timeout(
        self, artifact, corpus
    ):
        """A dispatched request waiting on its batch window is not slow."""
        with ScanService(
            artifact, port=0, request_timeout_s=0.2, batch_window_s=0.6, max_batch=64
        ) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            source = corpus[0]
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                sock.sendall(
                    _raw_request(
                        "POST", "/scan", _scan_payload(source.name, source.source)
                    )
                )
                # The batch window (0.6s) exceeds the request timeout
                # (0.2s) threefold; the sweep must leave it alone.
                ((status, payload),) = _read_responses(sock, 1)
                assert status == 200, payload


class TestExpectContinue:
    """``Expect: 100-continue``: where the interim line falls in the stream."""

    def test_interim_line_is_written_before_the_body_arrives(self, artifact, corpus):
        first, second = corpus[0], corpus[1]
        body = _scan_payload(first.name, first.source)
        with ScanService(artifact, port=0) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                stream = _ByteStream(sock)
                sock.sendall(_expect_continue_head(body))
                # Nothing is in flight, so the interim line is the first
                # thing the server writes, before any body byte is sent.
                assert stream.take(len(_INTERIM)) == _INTERIM
                sock.sendall(
                    body
                    + _raw_request(
                        "POST", "/scan", _scan_payload(second.name, second.source)
                    )
                )
                for source in (first, second):
                    status, payload = stream.response()
                    assert status == 200, payload
                    assert payload["records"][0]["name"] == source.name

    def test_pipelined_interim_line_waits_for_the_earlier_response(
        self, artifact, corpus
    ):
        first, second = corpus[2], corpus[3]
        body = _scan_payload(second.name, second.source)
        # A held batch window keeps the first scan in flight while the
        # second request's headers are parsed behind it.
        with ScanService(artifact, port=0, batch_window_s=0.3, max_batch=64) as svc:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            with socket.create_connection((svc.host, svc.port), timeout=30.0) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                stream = _ByteStream(sock)
                sock.sendall(
                    _raw_request("POST", "/scan", _scan_payload(first.name, first.source))
                    + _expect_continue_head(body)
                )
                # The first response comes out whole, and only then the
                # interim line owed to the request queued behind it.
                status, payload = stream.response()
                assert status == 200, payload
                assert payload["records"][0]["name"] == first.name
                assert stream.take(len(_INTERIM)) == _INTERIM
                sock.sendall(body)
                status, payload = stream.response()
                assert status == 200, payload
                assert payload["records"][0]["name"] == second.name


class TestMidBatchDrain:
    def test_shutdown_mid_window_drains_every_accepted_request(
        self, artifact, corpus
    ):
        """Requests accepted before a shutdown finish with 200, in one batch.

        A gate request holds the lane's batch worker inside its scan until
        the test releases it, so all 8 requests are accepted and queued
        behind it however busy the host is.  The service shuts down while
        they wait; the drain must then answer every one of them.
        """
        svc = ScanService(
            artifact, port=0, batch_window_s=1.0, max_batch=64
        ).start()
        batcher = svc.batcher
        n_requests = 8
        outcomes = [None] * n_requests
        entered, release = threading.Event(), threading.Event()
        scan = batcher.scan_fn

        def held_scan(sources, confidence):
            if not entered.is_set():
                entered.set()
                release.wait(60.0)
            return scan(sources, confidence)

        def scan_one(i: int) -> None:
            source = corpus[i % len(corpus)]
            with socket.create_connection((svc.host, svc.port), timeout=60.0) as sock:
                sock.sendall(
                    _raw_request(
                        "POST",
                        "/scan",
                        _scan_payload(f"drain_{i}_{source.name}", source.source),
                    )
                )
                outcomes[i] = _read_responses(sock, 1, timeout=60.0)[0]

        threads = [
            threading.Thread(target=scan_one, args=(i,), daemon=True)
            for i in range(n_requests)
        ]
        stopper = threading.Thread(target=svc.shutdown, daemon=True)
        try:
            with ScanServiceClient(svc.host, svc.port) as probe:
                probe.wait_until_ready()
            batcher.scan_fn = held_scan
            batcher.submit_nowait([corpus[0]], on_done=lambda result, error: None)
            assert entered.wait(30.0), "the gate batch never started"
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30.0
            while batcher.queue_depth < n_requests and time.monotonic() < deadline:
                time.sleep(0.01)
            assert batcher.queue_depth == n_requests
            assert batcher.in_flight_requests >= n_requests
            # Shut down while all 8 wait, then let the worker drain them.
            stopper.start()
            while not batcher.closed and time.monotonic() < deadline:
                time.sleep(0.01)
            assert batcher.closed
            release.set()
            stopper.join(timeout=60.0)
            for thread in threads:
                thread.join(timeout=60.0)
            assert not stopper.is_alive()
            assert not any(thread.is_alive() for thread in threads)
        finally:
            release.set()
            if stopper.is_alive():
                stopper.join(timeout=60.0)
            svc.shutdown()
        for i, outcome in enumerate(outcomes):
            assert outcome is not None, f"request {i} got no response"
            status, payload = outcome
            assert status == 200, (i, payload)
            assert payload["records"][0]["decision"] is not None
            assert payload["batch"]["requests"] == n_requests

    def test_requests_after_drain_are_refused_not_hung(self, artifact, corpus):
        svc = ScanService(artifact, port=0, batch_window_s=0.0).start()
        client = ScanServiceClient(svc.host, svc.port)
        client.wait_until_ready()
        svc.shutdown()
        t_start = time.monotonic()
        with pytest.raises(Exception):
            client.scan_texts([(corpus[0].name, corpus[0].source)])
        assert time.monotonic() - t_start < 30.0
        client.close()


class TestSigtermDrain:
    def test_sigterm_mid_batch_exits_clean_with_zero_drops(
        self, artifact, corpus, tmp_path
    ):
        """The subprocess variant: SIGTERM lands mid-window, nothing drops."""
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--artifact",
                str(artifact),
                "--port",
                "0",
                "--batch-window-ms",
                "800",
                "--max-batch",
                "64",
                "--cache-dir",
                str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src")),
        )
        try:
            port = None
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and port is None:
                line = proc.stdout.readline()
                if not line:
                    break
                if "http://" in line:
                    port = int(line.split("http://")[1].split()[0].split(":")[1])
            assert port is not None, "service never announced its port"

            n_requests = 6
            outcomes = [None] * n_requests

            def scan_one(i: int) -> None:
                source = corpus[i % len(corpus)]
                with socket.create_connection(
                    ("127.0.0.1", port), timeout=60.0
                ) as sock:
                    sock.sendall(
                        _raw_request(
                            "POST",
                            "/scan",
                            _scan_payload(f"term_{i}_{source.name}", source.source),
                        )
                    )
                    outcomes[i] = _read_responses(sock, 1, timeout=60.0)[0]

            threads = [
                threading.Thread(target=scan_one, args=(i,))
                for i in range(n_requests)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.3)  # inside the 800ms batch window
            proc.send_signal(signal.SIGTERM)
            for thread in threads:
                thread.join(timeout=60.0)
            output, _ = proc.communicate(timeout=60.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, output
        assert "shutdown clean" in output
        for i, outcome in enumerate(outcomes):
            assert outcome is not None, f"request {i} dropped: {output}"
            status, payload = outcome
            assert status == 200, (i, payload)
