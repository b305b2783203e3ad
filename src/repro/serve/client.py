"""Thin stdlib client for the scan service (used by tests and tools).

:class:`ScanServiceClient` wraps ``http.client`` with a persistent
keep-alive connection — the server speaks HTTP/1.1, so a client issuing
many requests (a CI smoke loop, a soak test) pays the TCP setup
once, not per request.  A connection object is not thread-safe; use one
client per thread (they are cheap) when fanning out concurrent requests.

Typical use::

    from repro.serve.client import ScanServiceClient

    client = ScanServiceClient(port=8731)
    client.wait_until_ready()
    response = client.scan_texts([("top", "module top; endmodule")])
    for record in response["records"]:
        print(record["name"], record["decision"] or record["error"])
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .server import DEFAULT_HOST, DEFAULT_PORT


class ScanServiceError(RuntimeError):
    """A non-2xx response (or transport failure) from the scan service."""

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        payload: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ScanServiceClient:
    """Keep-alive JSON client for one scan-service endpoint.

    Parameters
    ----------
    host / port:
        Where the service listens.
    timeout:
        Socket timeout per request (covers the queueing behind earlier
        batches, any micro-batch window the service holds, and the scan
        itself).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # -- transport -----------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._conn.connect()
            # Headers and body go out as separate small writes; without
            # TCP_NODELAY Nagle holds the second one for the delayed ACK
            # (~40ms per request on loopback).
            self._conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
        return self._conn

    def close(self) -> None:
        """Close the persistent connection (reopened on next use)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ScanServiceClient":
        """Context-manager entry: the client itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the persistent connection."""
        self.close()

    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        """One JSON round trip; retries once after a dropped keep-alive.

        Only connection-reuse failures are retried.  A socket timeout is
        *not*: the server may still be processing the request (scans are
        not idempotent work), so resubmitting would double it — the
        timeout surfaces to the caller instead.
        """
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        last_exc: Optional[Exception] = None
        for attempt in range(2):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                raw = response.read()
                break
            except socket.timeout:
                self.close()
                raise ScanServiceError(
                    f"{method} {path} timed out after {self.timeout}s"
                )
            except (http.client.HTTPException, ConnectionError) as exc:
                # A keep-alive connection the server closed between
                # requests surfaces here; reconnect once, then give up.
                self.close()
                last_exc = exc
        else:
            raise ScanServiceError(
                f"{method} {path} failed: {type(last_exc).__name__}: {last_exc}"
            ) from last_exc
        try:
            data = json.loads(raw.decode("utf-8")) if raw else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ScanServiceError(
                f"{method} {path}: response is not JSON ({exc})",
                status=response.status,
            ) from exc
        if not 200 <= response.status < 300:
            message = (
                data.get("error", raw.decode("utf-8", "replace"))
                if isinstance(data, dict)
                else str(data)
            )
            raise ScanServiceError(
                f"{method} {path} -> HTTP {response.status}: {message}",
                status=response.status,
                payload=data if isinstance(data, dict) else {},
            )
        return data

    # -- endpoints -----------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``: status, version, resident model."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``: the service's counters/percentiles snapshot."""
        return self._request("GET", "/metrics")

    def metrics_prometheus(self) -> str:
        """``GET /metrics?format=prometheus``: the text exposition, raw.

        Kept out of :meth:`_request` on purpose — that path JSON-decodes
        every response, while the Prometheus exposition is plain text
        (parse it with :func:`repro.obs.metrics.parse_prometheus_text`).
        """
        conn = self._connection()
        try:
            conn.request(
                "GET", "/metrics?format=prometheus", headers={"Accept": "text/plain"}
            )
            response = conn.getresponse()
            raw = response.read()
        except socket.timeout:
            self.close()
            raise ScanServiceError(
                f"GET /metrics?format=prometheus timed out after {self.timeout}s"
            )
        except (http.client.HTTPException, ConnectionError) as exc:
            self.close()
            raise ScanServiceError(
                f"GET /metrics?format=prometheus failed: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if response.status != 200:
            raise ScanServiceError(
                f"GET /metrics?format=prometheus -> HTTP {response.status}",
                status=response.status,
            )
        return raw.decode("utf-8")

    def reload(self, model: Optional[str] = None) -> Dict[str, Any]:
        """``POST /reload``: force hot-reload checks (all models or one)."""
        payload: Dict[str, Any] = {}
        if model is not None:
            payload["model"] = model
        return self._request("POST", "/reload", payload=payload)

    def promote(self) -> Dict[str, Any]:
        """``POST /promote``: force-promote the rollout challenger now."""
        return self._request("POST", "/promote", payload={})

    def scan(
        self,
        sources: Optional[Sequence[Dict[str, str]]] = None,
        paths: Optional[Sequence[str]] = None,
        confidence: Optional[float] = None,
        model: Optional[str] = None,
    ) -> Dict[str, Any]:
        """``POST /scan`` with raw payload pieces (see ``docs/SERVING.md``).

        ``model`` routes the request to a named registered model instead
        of the current champion (multi-model serving).
        """
        payload: Dict[str, Any] = {}
        if sources:
            payload["sources"] = list(sources)
        if paths:
            payload["paths"] = list(paths)
        if confidence is not None:
            payload["confidence"] = confidence
        if model is not None:
            payload["model"] = model
        return self._request("POST", "/scan", payload=payload)

    def scan_texts(
        self,
        pairs: Sequence[Tuple[str, str]],
        confidence: Optional[float] = None,
        model: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Scan in-memory ``(name, verilog_text)`` pairs."""
        return self.scan(
            sources=[{"name": name, "source": text} for name, text in pairs],
            confidence=confidence,
            model=model,
        )

    def wait_until_ready(
        self, timeout: float = 15.0, interval: float = 0.05
    ) -> Dict[str, Any]:
        """Poll ``/healthz`` until the service answers (start-up helper).

        Returns the first healthy payload; raises
        :class:`ScanServiceError` if the deadline passes first.
        """
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (ScanServiceError, OSError) as exc:
                last = exc
                self.close()
                time.sleep(interval)
        raise ScanServiceError(
            f"scan service at {self.host}:{self.port} not ready "
            f"within {timeout:.1f}s (last error: {last})"
        )

    def iter_scan_records(
        self, response: Dict[str, Any]
    ) -> List[Dict[str, Any]]:
        """The ``records`` list of a scan response (shape-checked)."""
        records = response.get("records")
        if not isinstance(records, list):
            raise ScanServiceError("scan response is missing its 'records' list")
        return records
