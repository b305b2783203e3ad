#!/usr/bin/env python
"""End-to-end smoke test of the online scan service as a real process.

The pytest suite drives :class:`repro.serve.server.ScanService`
in-process; this script covers what only a subprocess can: the
``python -m repro serve`` entry point itself, signal-driven graceful
shutdown, and the drain summary on stdout.  It

1. starts ``python -m repro serve`` against the given artifact(s) on a
   free port (repeat ``--artifact NAME=DIR`` for a multi-model fleet,
   ``--shadow NAME`` to stand up a challenger),
2. fires concurrent single-design scans through
   :class:`repro.serve.client.ScanServiceClient` (one client per
   thread), routing across every registered model,
3. asserts the ``/metrics`` batch counters prove micro-batching
   actually coalesced requests (and that per-model routing counted),
   then scrapes ``/metrics?format=prometheus`` and validates the text
   exposition parses with the expected counter/histogram/gauge families;
   with ``--shadow`` the batch counters also count challenger batches
   made only of shadow scans, which no response reports, so they are
   bounded by the scans plus the shadow scans instead of matched exactly,
4. exercises ``POST /reload`` and ``/healthz`` — plus ``POST /promote``
   when ``--promote`` is given, asserting the champion actually swaps,
5. sends SIGTERM and asserts a clean drain: exit code 0 and the
   ``shutdown clean`` summary line.

Run from the repository root (CI serve job)::

    PYTHONPATH=src python tools/serve_smoke.py --artifact /tmp/detector
    PYTHONPATH=src python tools/serve_smoke.py \
        --artifact champ=/tmp/a --artifact chal=/tmp/b \
        --shadow chal --promote

Exit status is non-zero on any failed expectation.
"""

from __future__ import annotations

import argparse
import signal
import socket
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.metrics import parse_prometheus_text  # noqa: E402
from repro.serve.bench import build_request_corpus  # noqa: E402
from repro.serve.client import ScanServiceClient  # noqa: E402


def _free_port() -> int:
    """Ask the kernel for a currently-free TCP port."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _model_names(specs) -> list:
    """The registered model names for a list of ``[NAME=]DIR`` specs."""
    names = []
    for spec in specs:
        name, sep, _ = spec.partition("=")
        names.append(name if sep and name else "default")
    return names


def main() -> int:
    """Run the smoke sequence; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact",
        action="append",
        required=True,
        metavar="[NAME=]DIR",
        help="trained artifact directory (repeat for a multi-model fleet)",
    )
    parser.add_argument(
        "--shadow", default=None, metavar="NAME", help="challenger model name"
    )
    parser.add_argument(
        "--promote",
        action="store_true",
        help="force-promote the challenger mid-run and assert the swap",
    )
    parser.add_argument("--requests", type=int, default=24, help="concurrent scans to fire")
    parser.add_argument("--clients", type=int, default=6, help="client threads")
    parser.add_argument(
        "--cache-dir", default=None, help="cache directory (default: artifact-sibling)"
    )
    args = parser.parse_args()
    if args.promote and not args.shadow:
        parser.error("--promote needs --shadow NAME")

    names = _model_names(args.artifact)
    first_dir = args.artifact[0].partition("=")[2] or args.artifact[0]
    port = _free_port()
    cache_dir = args.cache_dir or str(Path(first_dir).parent / "serve_smoke_cache")
    command = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--port", str(port),
        "--cache-dir", cache_dir,
    ]
    for spec in args.artifact:
        command += ["--artifact", spec]
    if args.shadow:
        # A huge evidence floor: this run tests *forced* promotion, the
        # auto-promotion gate is covered by tests/test_serve_rollout.py.
        command += ["--shadow", args.shadow, "--min-shadow", "1000000"]
    print(f"starting: {' '.join(command)}")
    server = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    n_scans = 0
    try:
        probe = ScanServiceClient(port=port, timeout=30.0)
        health = probe.wait_until_ready(timeout=60.0)
        assert health["status"] == "ok", health
        assert set(health["models"]) == set(names), health
        champion = health["champion"]
        print(
            f"healthy: version {health['version']}, frontend "
            f"{health['frontend']}, models {sorted(health['models'])}, "
            f"champion {champion}"
        )

        corpus = build_request_corpus(args.requests, seed=123)
        routed = [names[i % len(names)] for i in range(args.requests)]

        def scan_one(pair_model):
            (name, text), model = pair_model
            with ScanServiceClient(port=port, timeout=60.0) as client:
                return client.scan_texts([(name, text)], model=model)

        with ThreadPoolExecutor(args.clients) as pool:
            responses = list(pool.map(scan_one, zip(corpus, routed)))
        n_scans += args.requests
        assert len(responses) == args.requests
        assert all(r["n_designs"] == 1 and r["n_errors"] == 0 for r in responses)
        assert [r["model"] for r in responses] == routed
        biggest = max(r["batch"]["designs"] for r in responses)
        print(f"scanned {args.requests} designs across {len(names)} model(s); "
              f"largest micro-batch {biggest}")

        metrics = probe.metrics()
        n_shadow = 0
        if args.shadow:
            # At the default sample rate every champion-routed scan is
            # mirrored once.  Wait for all of them, so no shadow batch is
            # still counted at its start but not yet finished.
            n_shadow = routed.count(champion)
            deadline = time.monotonic() + 30.0
            while metrics["shadow_scans"] < n_shadow and time.monotonic() < deadline:
                time.sleep(0.05)
                metrics = probe.metrics()
            assert metrics["shadow_scans"] == n_shadow, metrics
        assert metrics["scan_requests"] == args.requests, metrics
        assert metrics["designs_total"] == args.requests, metrics
        assert 0 < metrics["batches_total"] <= args.requests + n_shadow, metrics
        if args.shadow:
            # Shadow-only challenger batches appear in no response.
            assert metrics["max_batch_designs"] >= biggest, metrics
        else:
            assert metrics["max_batch_designs"] == biggest, metrics
        assert biggest > 1, "micro-batching never coalesced concurrent requests"
        assert metrics["latency_seconds"]["p50"] is not None
        for name in names:
            assert metrics["scans_by_model"].get(name, 0) > 0, metrics

        # Prometheus scrape: the exposition must parse (parse_prometheus_text
        # raises on any malformed line) and agree with the JSON counters.
        exposition = parse_prometheus_text(probe.metrics_prometheus())
        assert exposition[("repro_serve_scan_requests_total", ())] == args.requests
        latency_count = sum(
            value
            for (name, _labels), value in exposition.items()
            if name == "repro_serve_scan_latency_seconds_count"
        )
        assert latency_count == args.requests, latency_count
        for name in names:
            nominal_key = ("repro_serve_coverage_nominal", (("model", name),))
            alarm_key = ("repro_serve_coverage_alarm", (("model", name),))
            assert 0.0 < exposition[nominal_key] < 1.0, exposition[nominal_key]
            assert exposition[alarm_key] == 0.0, exposition[alarm_key]
        print(f"prometheus exposition OK ({len(exposition)} samples)")

        reload_payload = probe.reload()
        assert reload_payload["reloaded"] is False  # unchanged artifacts
        # Repeat traffic must hit the (flushed-on-demand) result cache or
        # the in-memory records.
        warm = probe.scan_texts([corpus[0]], model=routed[0])
        n_scans += 1
        assert warm["n_cache_hits"] == 1, warm
        print("metrics, reload and cache-hit checks OK")

        if args.promote:
            assert metrics["rollout"]["state"] == "shadowing", metrics
            promoted = probe.promote()
            assert promoted["champion"] == args.shadow, promoted
            assert promoted["rollout"]["forced"] is True, promoted
            after = probe.scan_texts([corpus[1]])  # default routing
            n_scans += 1
            assert after["model"] == args.shadow, after
            forced = probe.metrics()
            assert forced["forced_promotions"] == 1, forced
            print(f"forced promotion OK: champion is now {args.shadow!r}")

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
        assert f"served {n_scans} scan requests" in output
        print("serve smoke OK")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
