"""The ``serve_open_loop`` workload: ``python -m repro serve`` under an
open-loop load, then the highest sustainable rate on a fixed ladder.

One generator thread drives ``nproc`` keep-alive connections from a seeded
Poisson schedule.  A request is sent when due if a connection is free and
is otherwise held client-side (at most one request in flight per
connection); its latency is timed from when it was due, so a stall also
counts against the requests queued behind it.  Every run starts fresh
server processes with fresh cache directories and without failpoints, and
tears them down in a ``finally``.
"""

from __future__ import annotations

import collections
import hashlib
import json
import selectors
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import gen
from common import (
    ROOT,
    TRACE_ROOT,
    BenchError,
    canonical,
    check_sample,
    child_env,
    make_run_dir,
    median,
    nproc,
    percentile,
    remove_tree,
    run_worker,
    train_fixture,
    vm_hwm_mb,
    write_json,
)
from spans import Tracer

#: Offered rate of the fixed-rate phases (requests/s), well below the
#: knee: near it, queueing amplifies any slowdown of a shared host.
FIXED_RATE = 60.0
#: Requests per fixed-rate phase, and phases per untraced run, each on a
#: fresh server.  p99 pools the phases (1,800 samples, 18 beyond it); the
#: other figures are medians over phases, so one phase disturbed by a
#: neighbour on a shared host does not move them.
PHASE_REQUESTS = 600
FIXED_PHASES = 3
#: The max-rate ladder: rung k offers LADDER_BASE * LADDER_STEP**k req/s.
LADDER_BASE = 10.0
LADDER_STEP = 1.05
LADDER_TOP = 70
#: First rung tried (~196 req/s); the search strides LADDER_STRIDE rungs
#: up (or down, if it fails) until the outcome flips, then bisects.
LADDER_START = 61
LADDER_STRIDE = 3
#: Seconds of load per ladder trial.
RUNG_SECONDS = 2.0
#: A rung passes with p99 at or under this, no failures and a generator
#: whose p99 lag stays under LAG_LIMIT_MS; a failed trial is retried once
#: before the rung counts as failed.
P99_LIMIT_MS = 250.0
LAG_LIMIT_MS = 20.0
#: Leading requests of the fixed-rate phase replayed in-process when traced.
REPLAY_REQUESTS = 250


def rung_rate(k: int) -> float:
    return LADDER_BASE * LADDER_STEP ** k


# -- server process --------------------------------------------------------------


class Server:
    """A ``python -m repro serve`` child with default flags but port and cache."""

    def __init__(self, artifact: Path, work: Path) -> None:
        work.mkdir(parents=True)
        self.log = open(work / "server.log", "w+", encoding="utf-8")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--artifact", str(artifact),
             "--port", "0", "--cache-dir", str(work / "cache")],
            env=child_env(), cwd=str(ROOT), stdout=subprocess.PIPE,
            stderr=self.log, text=True,
        )
        self.port = 0
        try:
            line = self.proc.stdout.readline()
            if "http://" not in line:
                raise BenchError(f"server did not start: {line!r}")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            while self.get("/healthz").get("status") != "ok":
                time.sleep(0.005)
            self.setup_s = time.perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def get(self, path: str) -> Dict[str, Any]:
        deadline = time.monotonic() + 30.0
        while True:
            try:
                with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=10) as r:
                    return json.loads(r.read())
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid) or 0.0

    def stop(self) -> None:
        """SIGTERM, wait for the drain, kill if it hangs; always reaps."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


# -- open-loop generator -----------------------------------------------------------


class _Conn:
    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None
        self.buffer = b""
        self.request: Optional[int] = None
        self.connect()

    def connect(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def take_response(self) -> Optional[Tuple[int, bytes]]:
        """One complete Content-Length-framed response off the buffer."""
        head, sep, rest = self.buffer.partition(b"\r\n\r\n")
        if not sep:
            return None
        lines = head.split(b"\r\n")
        length = 0
        for line in lines[1:]:
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"content-length":
                length = int(value.strip())
        if len(rest) < length:
            return None
        self.buffer = rest[length:]
        return int(lines[0].split()[1]), rest[:length]


def _payload(body: List[Tuple[str, str]]) -> bytes:
    data = json.dumps(
        {"sources": [{"name": n, "source": s} for n, s in body]}, separators=(",", ":")
    ).encode("utf-8")
    head = (f"POST /scan HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n").encode("ascii")
    return head + data


def open_loop(port: int, schedule: Dict[str, Any], n_conns: int) -> Dict[str, Any]:
    """Drive one schedule; returns per-request timings and raw responses."""
    due_rel: List[float] = schedule["due"]
    payloads = [_payload(b) for b in schedule["bodies"]]
    n = len(payloads)
    conns = [_Conn(port) for _ in range(n_conns)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    sent = [0.0] * n
    done = [0.0] * n
    status = [0] * n
    bodies: List[bytes] = [b""] * n
    lags: List[float] = []
    held: collections.deque = collections.deque()
    held_max = 0
    finished = 0
    next_i = 0
    t0 = time.perf_counter() + 0.05
    due = [t0 + d for d in due_rel]
    give_up = due[-1] + 60.0
    try:
        while finished < n:
            now = time.perf_counter()
            if now > give_up:
                break
            while next_i < n and due[next_i] <= now:
                lags.append(now - due[next_i])
                held.append(next_i)
                next_i += 1
            for conn in conns:
                if conn.request is None and held:
                    i = held.popleft()
                    conn.request = i
                    sent[i] = time.perf_counter()
                    try:
                        conn.sock.sendall(payloads[i])
                    except OSError:
                        status[i], done[i] = -1, time.perf_counter()
                        finished += 1
                        conn.request = None
                        selector.unregister(conn.sock)
                        conn.connect()
                        selector.register(conn.sock, selectors.EVENT_READ, conn)
            held_max = max(held_max, len(held))
            timeout = max(0.0, due[next_i] - time.perf_counter()) if next_i < n else 0.05
            for key, _ in selector.select(timeout):
                conn = key.data
                try:
                    chunk = conn.sock.recv(1 << 20)
                except OSError:
                    chunk = b""
                if not chunk:  # server closed: the request in flight failed
                    if conn.request is not None:
                        status[conn.request], done[conn.request] = -1, time.perf_counter()
                        finished += 1
                        conn.request = None
                    selector.unregister(conn.sock)
                    conn.connect()
                    selector.register(conn.sock, selectors.EVENT_READ, conn)
                    continue
                conn.buffer += chunk
                response = conn.take_response()
                if response is not None and conn.request is not None:
                    i = conn.request
                    done[i] = time.perf_counter()
                    status[i], bodies[i] = response
                    finished += 1
                    conn.request = None
    finally:
        for conn in conns:
            conn.sock.close()
        selector.close()
    return {"due": due, "sent": sent, "done": done, "status": status,
            "bodies": bodies, "lags": lags, "held_max": held_max, "t0": t0}


def judge(schedule: Dict[str, Any], run: Dict[str, Any],
          sample_every: int = 0) -> Dict[str, Any]:
    """Check every response; latencies from due time, failures counted."""
    latencies: List[float] = []
    failed = ok = r429 = r504 = other = designs = 0
    sample: List[Tuple[Tuple[str, str], str]] = []
    for i, body in enumerate(schedule["bodies"]):
        code = run["status"][i]
        if code == 429:
            r429 += 1
        elif code == 504:
            r504 += 1
        good = code == 200
        if good:
            records = json.loads(run["bodies"][i])["records"]
            good = len(records) == len(body) and all(
                rec["sha256"] == hashlib.sha256(src.encode("utf-8")).hexdigest()
                and rec["decision"] is not None and not rec["error"]
                for rec, (_, src) in zip(records, body)
            )
            if good and sample_every and i % sample_every == 0:
                sample.append((body[0], canonical(records[0])))
        if good:
            ok += 1
            designs += len(body)
            latencies.append(run["done"][i] - run["due"][i])
        else:
            failed += 1
            if code not in (429, 504):
                other += 1
    lags = run["lags"] or [0.0]
    span = max(run["done"]) - run["t0"] if ok else 1.0
    return {
        "attempted": len(schedule["bodies"]), "ok": ok, "failed": failed,
        "r429": r429, "r504": r504, "other": other, "designs": designs,
        "latencies": latencies, "span": span,
        "p99_ms": percentile(latencies, 99) * 1000.0 if latencies else float("inf"),
        "lag_p99_ms": percentile(lags, 99) * 1000.0,
        "lag_max_ms": max(lags) * 1000.0,
        "held_max": run["held_max"], "sample": sample,
    }


def _warm_up(server: Server, seed: int) -> None:
    """One untimed request: first-call lazy set-up is set-up, not load."""
    schedule = gen.serve_schedule(seed, 1.0, 1, rung=999)
    result = judge(schedule, open_loop(server.port, schedule, 1))
    if result["failed"]:
        raise BenchError("warm-up request failed")


def ladder(artifact: Path, work: Path, seed: int, setup: List[float]) -> Tuple[int, Dict[str, Any]]:
    """Highest passing rung: stride from LADDER_START, then bisect.

    Every trial gets a fresh server, so no trial inherits another's cache
    growth or compaction debt; each start adds a ``setup_s`` sample.
    """

    def trial(k: int, attempt: int) -> Tuple[bool, Dict[str, Any]]:
        rate = rung_rate(k)
        schedule = gen.serve_schedule(
            seed, rate, max(20, int(rate * RUNG_SECONDS)), rung=100 * attempt + k + 1)
        server = Server(artifact, work / f"rung{k}-{attempt}")
        try:
            setup.append(server.setup_s)
            _warm_up(server, seed)
            result = judge(schedule, open_loop(server.port, schedule, nproc()))
        finally:
            server.stop()
        ok = (result["failed"] == 0 and result["p99_ms"] <= P99_LIMIT_MS
              and result["lag_p99_ms"] <= LAG_LIMIT_MS)
        return ok, result

    def passes(k: int) -> Tuple[bool, Dict[str, Any]]:
        ok, result = trial(k, 0)
        return (ok, result) if ok else trial(k, 1)

    k = LADDER_START
    ok, result = passes(k)
    step = LADDER_STRIDE if ok else -LADDER_STRIDE
    good_k, good, bad_k = (k, result, None) if ok else (None, None, k)
    # Walk in strides until the outcome flips, then bisect the gap.
    while good_k is None or bad_k is None:
        k += step
        if k < 0 or k > LADDER_TOP:
            if good_k is None:
                raise BenchError("no ladder rung met the latency limit")
            return good_k, good
        ok, result = passes(k)
        if ok:
            good_k, good = k, result
        else:
            bad_k = k
    while bad_k - good_k > 1:
        k = (good_k + bad_k) // 2
        ok, result = passes(k)
        if ok:
            good_k, good = k, result
        else:
            bad_k = k
    return good_k, good


def run_serve(seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    run_dir = make_run_dir("serve_open_loop", seed)
    server: Optional[Server] = None
    try:
        artifact = run_dir / "artifact"
        train_fixture(seed, artifact)
        n_requests = max(PHASE_REQUESTS, int(FIXED_RATE * seconds))

        setup: List[float] = []
        rss: List[float] = []
        phases = []
        for phase in range(1 if trace else FIXED_PHASES):
            schedule = gen.serve_schedule(seed, FIXED_RATE, n_requests, rung=500 + phase)
            server = Server(artifact, run_dir / f"fixed{phase}")
            setup.append(server.setup_s)
            _warm_up(server, seed)
            before = server.get("/metrics") if trace else {}
            run = open_loop(server.port, schedule, nproc())
            after = server.get("/metrics") if trace else {}
            rss.append(server.peak_rss_mb())
            server.stop()
            phases.append(judge(schedule, run, sample_every=40))
        fixed = {k: sum(p[k] for p in phases) for k in
                 ("attempted", "ok", "failed", "r429", "r504", "other", "designs")}
        fixed.update({k: max(p[k] for p in phases)
                      for k in ("lag_p99_ms", "lag_max_ms", "held_max")})
        fixed["latencies"] = [x for p in phases for x in p["latencies"]]
        fixed["sample"] = [x for p in phases for x in p["sample"]]

        sample_designs = [d for d, _ in fixed["sample"]]
        mismatched = check_sample(artifact, sample_designs, [r for _, r in fixed["sample"]])
        result: Dict[str, Any] = {
            "attempted": fixed["attempted"],
            "failed": fixed["failed"] + mismatched,
            "facts": {"requests": fixed["attempted"], "rate": FIXED_RATE,
                      "designs": fixed["designs"],
                      "latency_samples": len(fixed["latencies"]),
                      "sample": len(sample_designs)},
        }
        result["correct"] = result["failed"] == 0

        if trace:
            result["metrics"] = _traced_metrics(
                seed, run_dir, artifact, schedule, run, fixed, before, after)
            return result

        top_k, top = ladder(artifact, run_dir, seed, setup)

        result["facts"].update({"max_rung": top_k, "rung_requests": top["attempted"],
                                "server_starts": len(setup)})
        result["metrics"] = {
            "setup_s": median(setup),
            "designs_per_s": median([p["designs"] / p["span"] for p in phases]),
            "peak_rss_mb": max(rss),
            "ok_share": 1.0 - result["failed"] / result["attempted"],
            "latency_p50_ms": median([percentile(p["latencies"], 50) for p in phases]) * 1000.0,
            "latency_p99_ms": percentile(fixed["latencies"], 99) * 1000.0,
            "max_rate_rps": rung_rate(top_k),
        }
        return result
    finally:
        if server is not None:
            server.stop()
        remove_tree(run_dir)


def _traced_metrics(seed, run_dir, artifact, schedule, run, fixed, before, after):
    """Per-layer metrics: client spans, /metrics deltas and an in-process replay."""
    tracer = Tracer(f"serve_open_loop-{seed}")
    for i in range(len(schedule["bodies"])):
        if run["done"][i]:
            tracer.record("serve.request", run["due"][i], run["done"][i], rid=f"req{i}")
    tracer.write_jsonl(TRACE_ROOT / f"serve_open_loop-{seed}-client.jsonl")

    # Replay the leading requests' bodies through one long-lived engine, as
    # the server's single batch worker scans them, to attribute layer time.
    bodies = schedule["bodies"][:REPLAY_REQUESTS]
    index: Dict[str, int] = {}
    designs: List[Tuple[str, str]] = []
    calls = []
    for body in bodies:
        call = []
        for name, src in body:
            if src not in index:
                index[src] = len(designs)
                designs.append((name, src))
            call.append(index[src])
        calls.append(call)
    job = {
        "artifact": str(artifact),
        "designs": str(write_json(run_dir / "replay.json", designs)),
        "calls": calls, "per_call_engine": False, "result_cache": True,
        "feature_dir": "fresh", "workers": 1, "tmp": str(run_dir / "replay"),
        "trace": True, "trace_file": str(TRACE_ROOT / f"serve_open_loop-{seed}.jsonl"),
        "run_id": f"serve_open_loop-{seed}", "sample": [],
    }
    out = run_worker(job, run_dir / "replay_job.json")
    layers = dict(out["layers"])
    client = sum(run["done"][i] - run["due"][i] for i in range(len(bodies)))
    n_designs = sum(len(b) for b in bodies)
    delta = {k: after.get(k, 0) - before.get(k, 0)
             for k in ("batches_total", "batched_designs_total", "designs_total", "cache_hits")}
    layers.update({
        "serve.requests_sent": fixed["attempted"],
        "serve.requests_ok": fixed["ok"],
        "serve.rejected_429": fixed["r429"],
        "serve.rejected_504": fixed["r504"],
        "serve.errors_other": fixed["other"],
        "serve.batches": delta["batches_total"],
        "serve.batch_designs_mean": delta["batched_designs_total"] / max(1, delta["batches_total"]),
        "serve.cache_hit_ratio": delta["cache_hits"] / max(1, delta["designs_total"]),
        "serve.server_latency_p50_ms": after.get("latency_seconds", {}).get("p50", 0.0) * 1000.0,
        "serve.outside_engine_ms": (client - sum(out["call_seconds"])) / n_designs * 1000.0,
        "serve.latency_samples": len(fixed["latencies"]),
        "loadgen.lag_p99_ms": fixed["lag_p99_ms"],
        "loadgen.lag_max_ms": fixed["lag_max_ms"],
        "loadgen.held_max": fixed["held_max"],
    })
    return layers
