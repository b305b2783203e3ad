"""Load benchmark for the scan service (written to ``BENCH_serve.json``).

Measures the configurations that matter for a long-lived scan service fed
by many small requests (the high-QPS traffic micro-batching exists for):

* ``serve_unbatched_sequential`` — one client, one request at a time,
  micro-batching disabled (``max_batch=1``): every request is its own
  forward pass and its own cache flush.  This is "one-request-per-
  forward-pass serving", the baseline all speedups are recorded against;
* ``serve_unbatched_concurrent`` — the same unbatched server under
  concurrent clients: shows how little raw concurrency buys when every
  request still pays the per-call overheads;
* ``serve_microbatch_concurrent`` — concurrent clients against the
  micro-batching server: requests coalesce into shared forward passes and
  shared cache flushes.  The headline number;
* ``serve_microbatch_fused_f32`` — the same micro-batched serving with
  ``--backend fused_f32``: batched forward passes run the fused float32
  inference path instead of the golden float64 one;
* ``serve_cached_rescan`` — the micro-batching server re-serving a corpus
  it has already scanned: the steady-state cost of repeat traffic (pure
  cache hits);
* ``serve_rescan_after_reload`` — the recalibration workflow end to end:
  before every timed round the detector is recalibrated on fresh data,
  saved over the artifact and hot-reloaded (``POST /reload``), then the
  same corpus is re-served.  The new fingerprint makes every result-cache
  lookup miss by construction, but the model-independent feature tier
  stays warm across the reload, so each design costs only its share of a
  batched forward pass — no HDL parsing, no feature extraction;
* ``serve_eventloop_multimodel`` — fleet serving on the event-loop
  front-end: two registered models behind one process, concurrent
  clients alternating the ``model`` field request to request, so every
  wave splits across two independent micro-batch lanes sharing one
  feature store.  Measures what per-request routing and the extra lane
  cost on top of single-model micro-batched serving.

Every timed run scans *fresh* design content (a new deterministic corpus
per invocation) so the cache never short-circuits the comparison — except
``serve_cached_rescan``, which measures exactly that.  Client-side
latencies are collected per request; their percentiles land in each
result's ``meta`` alongside requests/sec.

Everything runs in one process over loopback HTTP with keep-alive
clients, so the ratios measure serving architecture, not the network.
"""

from __future__ import annotations

import json
import multiprocessing
import socket
import tempfile
import threading
import time
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

import numpy as np

from ..core.config import ClassifierConfig, NoodleConfig
from ..features.pipeline import extract_modalities
from ..perf import BenchmarkSuite, TimingResult
from ..trojan import SuiteConfig, TrojanDataset
from ..engine.artifacts import save_detector
from ..engine.training import recalibrate_detector, train_detector
from .client import ScanServiceClient
from .server import ScanService

#: Default number of scan requests per timed run.  Long enough that the
#: per-run fixed costs (client threads starting, sockets connecting, the
#: first partial batches) are noise against steady-state serving.
DEFAULT_N_REQUESTS = 240

#: Default number of concurrent clients for the concurrent measurements.
#: On a small host the sweet spot is a few more clients than the batch
#: cap — enough backlog that the batch worker never idles between waves,
#: not so many threads that context switching eats the win.
DEFAULT_CLIENTS = 32

#: Micro-batch window used by the batched measurement (milliseconds).
#: Closed-loop clients send their next request the moment the previous
#: response lands, so a few milliseconds is enough to catch the wave; a
#: large window would only add latency while the clients sit blocked.
DEFAULT_BENCH_WINDOW_MS = 5.0

#: Micro-batch design cap used by the batched measurement.
DEFAULT_BENCH_MAX_BATCH = 32


def _combinational_block(name: str, width: int, mask: int) -> str:
    """A small combinational block (masked AND)."""
    return f"""module {name} (a, b, y);
  input [{width - 1}:0] a;
  input [{width - 1}:0] b;
  output [{width - 1}:0] y;
  assign y = (a & b) ^ {width}'d{mask};
endmodule
"""


def _registered_block(name: str, width: int, mask: int) -> str:
    """A small registered block (enable + reset register)."""
    return f"""module {name} (clk, rst, en, d, q);
  input clk;
  input rst;
  input en;
  input [{width - 1}:0] d;
  output reg [{width - 1}:0] q;
  wire [{width - 1}:0] m;
  assign m = d ^ {width}'d{mask};
  always @(posedge clk)
    begin
      if (rst)
        q <= {width}'d0;
      else
        begin
          if (en)
            q <= m;
        end
    end
endmodule
"""


def build_request_corpus(
    n_designs: int, seed: int = 0
) -> List[Tuple[str, str]]:
    """Deterministic corpus of small, unique designs (one per request).

    The modules are the shape of high-rate serving traffic — small IP
    blocks submitted one per request, a mix of combinational and
    registered logic — and every module body embeds the seed and index,
    so two corpora with different seeds never collide in the
    content-addressed cache.
    """
    rng = np.random.default_rng(seed)
    corpus: List[Tuple[str, str]] = []
    for i in range(n_designs):
        width = int(rng.integers(2, 6))
        mask = int(rng.integers(1, 2**width))
        name = f"blk_{seed}_{i}"
        template = _registered_block if i % 3 == 0 else _combinational_block
        corpus.append((name, template(name, width, mask)))
    return corpus


class _LoadClient:
    """Minimal keep-alive HTTP/1.1 client used only by the load generator.

    A load generator must saturate the *server*; ``http.client`` spends
    ~0.1ms per request on header bookkeeping, which at the measured
    throughputs would be a visible client-side tax on every mode.  This
    client speaks just enough HTTP/1.1 for ``POST /scan``: one persistent
    ``TCP_NODELAY`` socket, handwritten request bytes, and a
    Content-Length-framed response reader.  Correctness-path callers use
    :class:`repro.serve.client.ScanServiceClient` instead.
    """

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self.host = host
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def close(self) -> None:
        """Close the persistent socket."""
        self.sock.close()

    def scan_one(
        self, name: str, text: str, model: Optional[str] = None
    ) -> Dict[str, object]:
        """POST one single-design scan request; returns the response JSON."""
        body: Dict[str, object] = {"sources": [{"name": name, "source": text}]}
        if model is not None:
            body["model"] = model
        payload = json.dumps(body, separators=(",", ":")).encode("utf-8")
        head = (
            f"POST /scan HTTP/1.1\r\nHost: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii")
        self.sock.sendall(head + payload)
        status, body = self._read_response()
        data = json.loads(body)
        if status != 200:
            raise RuntimeError(f"scan request failed: HTTP {status}: {data}")
        return data

    def _read_response(self) -> Tuple[int, bytes]:
        """Read one Content-Length-framed response off the socket."""
        while b"\r\n\r\n" not in self._buffer:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("scan service closed the connection")
            self._buffer += chunk
        head, _, rest = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(rest) < length:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("scan service closed mid-response")
            rest += chunk
        self._buffer = rest[length:]
        return status, rest[:length]


def _fire_requests(
    corpus: List[Tuple[str, str]],
    clients: int,
    host: str,
    port: int,
    route_models: Optional[List[str]] = None,
) -> List[float]:
    """Send one scan request per corpus entry across ``clients`` threads.

    Each thread owns a keep-alive :class:`_LoadClient` and pulls work
    from a shared queue until the corpus is exhausted.  When
    ``route_models`` is given, requests carry the ``model`` routing field
    round-robin across those names (the multi-model workload).  Returns
    the per-request client-side latencies (seconds).  Any request
    failure propagates.
    """
    work: Deque[Tuple[str, str, Optional[str]]] = deque(
        (name, text, route_models[i % len(route_models)] if route_models else None)
        for i, (name, text) in enumerate(corpus)
    )
    latencies: List[float] = []
    failures: List[BaseException] = []
    lock = threading.Lock()

    def run_client() -> None:
        local: List[float] = []
        client = _LoadClient(host, port)
        try:
            while True:
                try:
                    name, text, model = work.popleft()
                except IndexError:
                    break
                t_start = time.perf_counter()
                client.scan_one(name, text, model=model)
                local.append(time.perf_counter() - t_start)
        finally:
            client.close()
        with lock:
            latencies.extend(local)

    def guarded() -> None:
        try:
            run_client()
        except BaseException as exc:  # surfaced to the caller below
            with lock:
                failures.append(exc)

    threads = [
        threading.Thread(target=guarded, name=f"bench-client-{i}")
        for i in range(max(1, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return latencies


def _latency_meta(latencies: List[float]) -> Dict[str, float]:
    """p50/p99/mean of a latency sample, in milliseconds."""
    ordered = np.sort(np.array(latencies))
    return {
        "p50_ms": float(np.percentile(ordered, 50) * 1000.0),
        "p99_ms": float(np.percentile(ordered, 99) * 1000.0),
        "mean_ms": float(ordered.mean() * 1000.0),
    }


class _ServingMode:
    """One serving configuration under measurement (service + workload).

    The benchmark keeps every mode's service alive for its whole duration
    and interleaves the timed rounds across modes, so a noisy stretch on
    a shared machine taxes all modes alike instead of sinking whichever
    one happened to be running — and best-of-N picks each mode's quiet
    round.
    """

    def __init__(
        self,
        name: str,
        artifact: Path,
        cache_dir: Path,
        seed_base: int,
        n_requests: int,
        clients: int,
        batch_window_s: float,
        max_batch: int,
        rescan: bool = False,
        workers: Optional[int] = 1,
        pre_round: Optional[Callable[["_ServingMode"], None]] = None,
        backend: str = "numpy",
        artifacts: Optional[Dict[str, Path]] = None,
    ) -> None:
        self.name = name
        self.n_requests = n_requests
        self.clients = clients
        self.rescan = rescan
        #: Hook run before every timed round, *outside* the timed region
        #: (the rescan-after-reload mode recalibrates + hot-reloads here).
        self.pre_round = pre_round
        self._seed = seed_base
        self.samples: List[float] = []
        self.latencies: List[float] = []
        #: Multi-model workloads route requests round-robin across every
        #: registered model name; single-model workloads omit the field.
        self.route_models = sorted(artifacts) if artifacts else None
        self.service = ScanService(
            artifact if artifacts is None else None,
            port=0,
            batch_window_s=batch_window_s,
            max_batch=max_batch,
            cache_dir=cache_dir,
            workers=workers,
            backend=backend,
            artifacts=artifacts,
        ).start()
        try:
            with ScanServiceClient(self.service.host, self.service.port) as probe:
                probe.wait_until_ready()
        except Exception:  # probe failed: tear down the service, then re-raise
            self.service.shutdown()  # do not leak the serving threads
            raise
        self._rescan_corpus = (
            build_request_corpus(n_requests, seed=self._next_seed())
            if rescan
            else None
        )
        self.meta: Dict[str, object] = {
            "n_requests": n_requests,
            "clients": clients,
            "batch_window_ms": batch_window_s * 1000.0,
            "max_batch": max_batch,
            "workers": workers,
            "backend": backend,
            "cpu_count": multiprocessing.cpu_count() or 1,
        }
        if self.route_models:
            self.meta["models"] = list(self.route_models)

    def _next_seed(self) -> int:
        self._seed += 1
        return self._seed

    def run_once(self, record: bool = True) -> None:
        """One timed run: a fresh corpus (or the rescan corpus) served whole."""
        if self.pre_round is not None:
            self.pre_round(self)
        corpus = self._rescan_corpus or build_request_corpus(
            self.n_requests, seed=self._next_seed()
        )
        t_start = time.perf_counter()
        latencies = _fire_requests(
            corpus,
            self.clients,
            self.service.host,
            self.service.port,
            route_models=self.route_models,
        )
        elapsed = time.perf_counter() - t_start
        if record:
            self.samples.append(elapsed)
            # Pool latencies over every recorded round so the percentiles
            # describe the same measurement window as best/mean/std.
            self.latencies.extend(latencies)

    def finish(self, repeats: int) -> TimingResult:
        """Shut the service down and fold the samples into a result."""
        snapshot = self.service.metrics.snapshot()
        self.service.shutdown()
        samples = np.array(self.samples)
        result = TimingResult(
            name=self.name,
            best_s=float(samples.min()),
            mean_s=float(samples.mean()),
            std_s=float(samples.std()),
            repeats=repeats,
            meta=dict(self.meta),
        )
        result.meta["requests_per_sec"] = self.n_requests / result.best_s
        result.meta["latency"] = _latency_meta(self.latencies)
        result.meta["mean_batch_designs"] = snapshot["mean_batch_designs"]
        result.meta["max_batch_designs"] = snapshot["max_batch_designs"]
        result.meta["cache_hit_rate"] = snapshot["cache_hit_rate"]
        result.meta["feature_hits"] = snapshot.get("feature_hits", 0)
        result.meta["reloads"] = snapshot.get("reloads", 0)
        return result


def run_serve_benchmark(
    output: Union[str, Path],
    n_requests: int = DEFAULT_N_REQUESTS,
    clients: int = DEFAULT_CLIENTS,
    repeats: int = 3,
    seed: int = 0,
    batch_window_ms: float = DEFAULT_BENCH_WINDOW_MS,
    max_batch: int = DEFAULT_BENCH_MAX_BATCH,
    workers: Optional[int] = 1,
    smoke: bool = False,
) -> BenchmarkSuite:
    """Train a quick detector, time the serving modes, write the JSON.

    ``smoke=True`` shrinks everything (fewer requests, one repeat) so CI
    can exercise the full path in seconds; the committed
    ``BENCH_serve.json`` comes from a full run.  ``workers`` is the
    per-batch feature-extraction process count handed to every service —
    ``1`` on the single-core reference container; multi-core machines can
    record their own variant with ``bench-serve --workers N``.  The
    ``serve_eventloop_multimodel`` mode is the designated multi-core
    scenario and always runs with at least two extraction processes;
    every result's ``meta.workers`` + ``meta.cpu_count`` say which kind
    of recording it is.  Returns the populated :class:`BenchmarkSuite`
    (already written to ``output``).
    """
    if smoke:
        n_requests = min(n_requests, 16)
        clients = min(clients, 4)
        repeats = 1
    rng = np.random.default_rng(seed)
    dataset = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=20, n_trojan_infected=10, seed=seed + 1)
    )
    features = extract_modalities(dataset)
    train, _ = features.stratified_split(0.2, rng)
    result = train_detector(
        train,
        strategy="late",
        config=NoodleConfig(
            classifier=ClassifierConfig(epochs=10, seed=seed),
            validation_fraction=0.2,
            seed=seed,
        ),
    )

    suite = BenchmarkSuite("serve")
    window_s = batch_window_ms / 1000.0

    with tempfile.TemporaryDirectory() as workdir:
        artifact = save_detector(result.model, Path(workdir) / "artifact")
        # The reload mode rewrites its artifact every round; give it a
        # private copy so the other modes' services never see a changed
        # fingerprint mid-measurement.
        reload_artifact = save_detector(result.model, Path(workdir) / "artifact_reload")
        # The multi-model mode registers two artifacts behind one process.
        # A second copy of the same detector keeps the comparison about
        # serving architecture (routing + an extra batch lane), not about
        # model quality — each corpus entry is unique and routed to exactly
        # one model, so the shared fingerprint never cross-hits the cache.
        fleet_artifact = save_detector(result.model, Path(workdir) / "artifact_fleet")
        recal_state = {"seed": seed + 5_000_000}

        def _recalibrate_and_reload(mode: "_ServingMode") -> None:
            # Outside the timed region: recalibrate on fresh labelled data
            # (new calibration arrays => new fingerprint), save over the
            # mode's artifact, force the hot reload.  The timed round that
            # follows then serves a cold result tier + warm feature tier.
            recal_state["seed"] += 1
            fresh = extract_modalities(
                TrojanDataset.generate(
                    SuiteConfig(
                        n_trojan_free=8, n_trojan_infected=4, seed=recal_state["seed"]
                    )
                )
            )
            recalibrate_detector(result.model, fresh)
            save_detector(result.model, reload_artifact)
            with ScanServiceClient(mode.service.host, mode.service.port) as client:
                client.reload()

        # Disjoint seed bases per mode: corpus content must never repeat
        # across runs or modes, or the cache would cross-contaminate the
        # comparison.
        mode_specs = [
            dict(
                name="serve_unbatched_sequential",
                cache="cache_seq",
                seed_base=seed + 1_000_000,
                clients=1,
                batch_window_s=0.0,
                max_batch=1,
            ),
            dict(
                name="serve_unbatched_concurrent",
                cache="cache_unbatched",
                seed_base=seed + 2_000_000,
                clients=clients,
                batch_window_s=0.0,
                max_batch=1,
            ),
            dict(
                name="serve_microbatch_concurrent",
                cache="cache_microbatch",
                seed_base=seed + 3_000_000,
                clients=clients,
                batch_window_s=window_s,
                max_batch=max_batch,
            ),
            dict(
                name="serve_microbatch_fused_f32",
                cache="cache_fused",
                seed_base=seed + 7_000_000,
                clients=clients,
                batch_window_s=window_s,
                max_batch=max_batch,
                backend="fused_f32",
            ),
            dict(
                name="serve_eventloop_multimodel",
                cache="cache_multimodel",
                seed_base=seed + 8_000_000,
                clients=clients,
                batch_window_s=window_s,
                max_batch=max_batch,
                artifacts={"alpha": artifact, "beta": fleet_artifact},
                # The designated multi-core scenario: always at least two
                # extraction processes per batch scan, whatever --workers
                # says (meta.workers / meta.cpu_count identify the shape).
                workers=max(2, workers or 1),
            ),
            dict(
                name="serve_cached_rescan",
                cache="cache_rescan",
                seed_base=seed + 4_000_000,
                clients=clients,
                batch_window_s=window_s,
                max_batch=max_batch,
                rescan=True,
            ),
            dict(
                name="serve_rescan_after_reload",
                cache="cache_reload",
                seed_base=seed + 6_000_000,
                clients=clients,
                batch_window_s=window_s,
                max_batch=max_batch,
                rescan=True,
                artifact=reload_artifact,
                pre_round=_recalibrate_and_reload,
            ),
        ]
        modes: List[_ServingMode] = []
        try:
            for spec in mode_specs:  # inside the try: no leak on a failed start
                modes.append(
                    _ServingMode(
                        spec["name"],
                        spec.get("artifact", artifact),
                        Path(workdir) / spec["cache"],
                        seed_base=spec["seed_base"],
                        n_requests=n_requests,
                        clients=spec["clients"],
                        batch_window_s=spec["batch_window_s"],
                        max_batch=spec["max_batch"],
                        rescan=bool(spec.get("rescan")),
                        workers=spec.get("workers", workers),
                        pre_round=spec.get("pre_round"),
                        backend=spec.get("backend", "numpy"),
                        artifacts=spec.get("artifacts"),
                    )
                )
            for mode in modes:
                mode.run_once(record=False)  # warmup: connections, code paths
            for _ in range(repeats):
                for mode in modes:  # interleaved rounds, see _ServingMode
                    mode.run_once()
            results = {mode.name: suite.add(mode.finish(repeats)) for mode in modes}
        finally:
            # A failed round must still stop every service: their serving
            # and handler threads are non-daemonic, and leaking them would
            # hang the process instead of exiting with the error.
            for mode in modes:
                mode.service.shutdown()  # idempotent

    sequential = results["serve_unbatched_sequential"]
    for name in (
        "serve_unbatched_concurrent",
        "serve_microbatch_concurrent",
        "serve_microbatch_fused_f32",
        "serve_eventloop_multimodel",
        "serve_cached_rescan",
        "serve_rescan_after_reload",
    ):
        results[name].meta["smoke"] = smoke
        suite.record_speedup(name, sequential, results[name])
    sequential.meta["smoke"] = smoke
    # The acceptance ratio: micro-batched concurrent clients vs the same
    # concurrency served one-request-per-forward-pass.
    suite.record_speedup(
        "serve_microbatch_vs_unbatched_concurrent",
        results["serve_unbatched_concurrent"],
        results["serve_microbatch_concurrent"],
    )
    # The feature-tier ratio: post-reload rescans (cold result tier, warm
    # feature tier) vs the same micro-batched serving paying extraction.
    suite.record_speedup(
        "serve_reload_vs_cold_microbatch",
        results["serve_microbatch_concurrent"],
        results["serve_rescan_after_reload"],
    )
    # The backend ratio: the same micro-batched serving with the fused
    # float32 forward path instead of the golden float64 one.
    suite.record_speedup(
        "serve_fused_f32_vs_numpy_microbatch",
        results["serve_microbatch_concurrent"],
        results["serve_microbatch_fused_f32"],
    )
    # The fleet ratio: the same micro-batched concurrency split across
    # two routed models (two lanes, one feature store) vs one model.
    suite.record_speedup(
        "serve_multimodel_vs_single_microbatch",
        results["serve_microbatch_concurrent"],
        results["serve_eventloop_multimodel"],
    )
    suite.write_json(output)
    return suite
