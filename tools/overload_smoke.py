#!/usr/bin/env python
"""Serve overload smoke: flood past the admission budget, then drain.

The chaos suite (``tests/test_chaos.py``) covers overload protection
in-process; this script covers what only a subprocess can: the
``python -m repro serve`` entry point under sustained overload with a
tiny admission budget, memory boundedness of the shedding path, and a
clean signal-driven drain while rejected traffic is still arriving.  It

1. starts ``python -m repro serve`` with ``--max-batch 1`` and
   ``--max-queue-depth 2``: every design is its own batch, so scan time
   alone backs the queue up and a concurrent flood must overflow the
   admission gate,
2. fires waves of concurrent ``POST /scan`` requests and asserts every
   single one is *answered* — accepted requests scan (200), excess is
   shed with ``429`` + ``Retry-After`` (and never a socket error or
   hang),
3. asserts the shedding is observable (``rejected_by_reason.overload``
   in ``/metrics``) and free of memory growth: server RSS after the
   flood must stay within a fixed budget of its pre-flood value,
4. sends SIGTERM and asserts a clean drain: exit code 0 and the
   ``shutdown clean`` summary line.

Run from the repository root (CI chaos job)::

    PYTHONPATH=src python tools/overload_smoke.py --artifact /tmp/detector

Exit status is non-zero on any failed expectation.
"""

from __future__ import annotations

import argparse
import http.client
import json
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.serve.bench import build_request_corpus  # noqa: E402
from repro.serve.client import ScanServiceClient  # noqa: E402


def _free_port() -> int:
    """Ask the kernel for a currently-free TCP port."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _rss_kib(pid: int) -> int:
    """The process's resident set size in KiB (Linux /proc)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise AssertionError(f"no VmRSS for pid {pid}")


def _post_scan(port: int, name: str, text: str) -> tuple:
    """One raw POST /scan; returns (status, retry_after_header_or_None)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        body = json.dumps({"sources": [{"name": name, "source": text}]})
        conn.request(
            "POST", "/scan", body=body, headers={"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        response.read()
        return response.status, response.getheader("Retry-After")
    finally:
        conn.close()


def main() -> int:
    """Run the overload sequence; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact", required=True, metavar="DIR", help="trained artifact directory"
    )
    parser.add_argument("--waves", type=int, default=4, help="flood waves to fire")
    parser.add_argument(
        "--requests", type=int, default=16, help="concurrent scans per wave"
    )
    parser.add_argument(
        "--rss-budget-mib",
        type=int,
        default=256,
        help="max allowed server RSS growth across the flood",
    )
    args = parser.parse_args()

    port = _free_port()
    command = [
        sys.executable, "-m", "repro", "serve",
        "--artifact", args.artifact,
        "--port", str(port),
        "--no-cache",
        "--max-batch", "1",
        "--max-queue-depth", "2",
    ]
    print(f"starting: {' '.join(command)}")
    server = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    try:
        probe = ScanServiceClient(port=port, timeout=30.0)
        health = probe.wait_until_ready(timeout=60.0)
        assert health["status"] == "ok", health
        assert health["faults"] == [], health  # no injection leaked into serve
        rss_before = _rss_kib(server.pid)
        print(f"healthy on port {port}, RSS {rss_before // 1024} MiB")

        corpus = build_request_corpus(args.requests, seed=321)
        accepted = shed = 0
        for wave in range(args.waves):
            with ThreadPoolExecutor(args.requests) as pool:
                outcomes = list(
                    pool.map(lambda p: _post_scan(port, *p), corpus)
                )
            statuses = [status for status, _ in outcomes]
            assert set(statuses) <= {200, 429}, statuses
            for status, retry_after in outcomes:
                if status == 429:
                    assert retry_after is not None, "429 without Retry-After"
                    shed += 1
                else:
                    accepted += 1
            print(
                f"wave {wave + 1}/{args.waves}: "
                f"{statuses.count(200)} accepted, {statuses.count(429)} shed"
            )
        assert accepted > 0, "admission gate shed every request"
        assert shed > 0, (
            "flood never overflowed the admission gate; smoke is not "
            "exercising overload protection"
        )

        metrics = probe.metrics()
        rejected = metrics["rejected_by_reason"]
        assert rejected.get("overload", 0) >= shed, rejected
        assert metrics["scan_requests"] == accepted, metrics

        rss_after = _rss_kib(server.pid)
        growth_mib = max(0, rss_after - rss_before) // 1024
        print(f"RSS after flood {rss_after // 1024} MiB (+{growth_mib} MiB)")
        assert growth_mib < args.rss_budget_mib, (
            f"server RSS grew {growth_mib} MiB under overload "
            f"(budget {args.rss_budget_mib} MiB): shed requests are leaking"
        )

        probe.close()
        print("sending SIGTERM")
        server.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60.0
        while server.poll() is None and time.monotonic() < deadline:
            time.sleep(0.1)
        assert server.poll() is not None, "server did not exit after SIGTERM"
        output = server.stdout.read() if server.stdout else ""
        print(output)
        assert server.returncode == 0, f"server exited {server.returncode}"
        assert "shutdown clean" in output, "drain summary missing from output"
        print(f"overload smoke OK ({accepted} accepted, {shed} shed)")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
