"""Scan worker: runs one workload's scan calls in a fresh interpreter.

Usage: ``python3 worker.py JOB_JSON``; prints one JSON object.  Running the
measured scans in their own process keeps the parent's training and input
generation out of the peak-memory reading, which is taken with
``getrusage`` for this process and its reaped extraction-pool children.

A *round* is one pass over the job's scan calls.  Untraced jobs repeat
rounds until the time budget is spent and report every call's wall time.
Traced jobs run three rounds: the workload as configured (pooled
extraction), the same round serially, and the serial round again with
spans around the program's public functions; the last gives the
per-layer metrics and, against the second, the tracing overhead.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    canonical,
    dir_bytes,
    ensure_program,
    peak_rss_mb,
    remove_tree,
)
from spans import Tracer  # noqa: E402


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public entry points in spans, with their counts."""
    import repro.core.classifiers as classifiers
    import repro.core.fusion as fusion
    import repro.engine.cache as cache
    import repro.engine.feature_store as feature_store
    import repro.engine.scan as scan
    import repro.features.pipeline as pipeline
    import repro.hdl.parser as parser

    def hit(prefix):
        return lambda args, result: {prefix + ".hits": float(result is not None)}

    tracer.wrap(parser, "tokenize", "hdl.lex", lambda a, r: {
        "hdl.tokens": len(r), "hdl.bytes": len(a[0].encode("utf-8"))})
    tracer.wrap(parser.Parser, "parse", "hdl.parse")
    tracer.wrap(pipeline, "build_dataflow_graph", "features.graph_build", lambda a, r: {
        "features.graph_nodes": r.number_of_nodes(),
        "features.graph_edges": r.number_of_edges()})
    tracer.wrap(pipeline, "tabular_feature_vector", "features.tabular")
    tracer.wrap(pipeline, "graph_feature_vector", "features.graph")
    tracer.wrap(pipeline, "adjacency_image", "features.image")
    tracer.wrap(scan, "extract_design_modalities", "features.design")
    tracer.wrap(scan, "extract_feature_rows", "engine.extract")
    tracer.wrap(scan, "assemble_features", "engine.assemble")
    tracer.wrap(scan, "build_decisions", "conformal.decisions", lambda a, r: {
        "conformal.empty_regions": sum(1 for d in r if d.is_empty)})
    tracer.wrap(scan.ScanEngine, "scan_sources", "engine.scan")
    tracer.wrap(feature_store.FeatureStore, "get", "engine.feature_store.get",
                hit("engine.feature_store"))
    tracer.wrap(feature_store.FeatureStore, "put", "engine.feature_store.put")
    tracer.wrap(feature_store.FeatureStore, "flush", "engine.feature_store.flush")
    tracer.wrap(cache.ScanCache, "get", "engine.cache.get", hit("engine.cache"))
    tracer.wrap(cache.ScanCache, "put", "engine.cache.put")
    tracer.wrap(cache.ScanCache, "flush", "engine.cache.flush")
    tracer.wrap(fusion.ConformalFusionModel, "p_values", "conformal.p_values")
    tracer.wrap(classifiers.CNNModalityClassifier, "predict_proba", "nn.forward",
                lambda a, r: {"nn.rows": len(r)})


def layer_metrics(tracer: Tracer, root: int) -> Dict[str, float]:
    """Per-layer metrics from the spans and counts under ``root``."""
    own = tracer.self_times(root)
    counts = tracer.counts

    def ratio(hits: str, calls: str) -> float:
        return counts[hits] / counts[calls] if counts[calls] else 0.0

    wall = tracer.duration(root)
    layered = sum(v for k, v in own.items() if k != "round")
    return {
        "hdl.lex_s": own.get("hdl.lex", 0.0),
        "hdl.parse_s": own.get("hdl.parse", 0.0),
        "hdl.tokens": counts["hdl.tokens"],
        "hdl.bytes": counts["hdl.bytes"],
        "features.graph_build_s": own.get("features.graph_build", 0.0),
        "features.tabular_s": own.get("features.tabular", 0.0),
        "features.graph_s": own.get("features.graph", 0.0),
        "features.image_s": own.get("features.image", 0.0),
        "features.graph_nodes": counts["features.graph_nodes"],
        "features.graph_edges": counts["features.graph_edges"],
        "features.max_design_s": tracer.maxima.get("features.design", 0.0),
        "engine.feature_store.get_s": own.get("engine.feature_store.get", 0.0),
        "engine.feature_store.hit_ratio": ratio(
            "engine.feature_store.hits", "engine.feature_store.get.calls"),
        "engine.feature_store.put_s": own.get("engine.feature_store.put", 0.0),
        "engine.feature_store.flush_s": own.get("engine.feature_store.flush", 0.0),
        "engine.cache.get_s": own.get("engine.cache.get", 0.0),
        "engine.cache.hit_ratio": ratio("engine.cache.hits", "engine.cache.get.calls"),
        "engine.cache.put_s": own.get("engine.cache.put", 0.0),
        "engine.cache.flush_s": own.get("engine.cache.flush", 0.0),
        "engine.assemble_s": own.get("engine.assemble", 0.0),
        "nn.forward_s": own.get("nn.forward", 0.0),
        "nn.rows": counts["nn.rows"],
        "nn.calls": counts["nn.forward.calls"],
        "conformal.p_value_s": own.get("conformal.p_values", 0.0),
        "conformal.empty_regions": counts["conformal.empty_regions"],
        "trace.coverage": layered / wall if wall > 0 else 0.0,
    }


class Job:
    def __init__(self, spec: Dict[str, Any]) -> None:
        from repro.engine.scan import ScanSource

        self.spec = spec
        self.artifact = spec["artifact"]
        designs = json.loads(Path(spec["designs"]).read_text(encoding="utf-8"))
        self.sources = [ScanSource(name=n, source=s) for n, s in designs]
        self.calls: List[List[int]] = spec["calls"]
        self.tmp = Path(spec["tmp"])
        self.n_dirs = 0
        self.failed = 0
        self.attempted = 0
        self.last_records: Dict[int, str] = {}

    def _fresh_dir(self) -> Path:
        self.n_dirs += 1
        path = self.tmp / f"pass{self.n_dirs}"
        path.mkdir(parents=True)
        return path

    def _engine(self, dirs: List[Path], tracer: Optional[Tracer]):
        from repro.engine.scan import ScanEngine

        work = self._fresh_dir()
        dirs.append(work)
        feature = self.spec["feature_dir"]
        span = tracer.start("engine.load") if tracer else None
        engine = ScanEngine.from_artifact(
            self.artifact,
            cache_dir=work / "cache" if self.spec["result_cache"] else None,
            feature_store_dir=(work / "features") if feature == "fresh"
            else feature,
        )
        if tracer:
            tracer.end(span)
        return engine

    def _check(self, call: List[int], report) -> int:
        """Designs in ``call`` without a correct, in-order verdict record."""
        bad = abs(len(report.records) - len(call))
        for i, record in zip(call, report.records):
            if record.sha256 != self.sources[i].sha256 or record.decision is None or record.error:
                bad += 1
            else:
                self.last_records[i] = canonical(record.to_dict())
        return bad

    def run_round(self, workers: int, tracer: Optional[Tracer] = None) -> Dict[str, Any]:
        dirs: List[Path] = []
        per_call = self.spec["per_call_engine"]
        # A long-lived engine defers its tier flushes to the end of the
        # round, as the server flushes off the response path.
        flush = per_call
        root = tracer.start("round") if tracer else None
        engine = None if per_call else self._engine(dirs, tracer)
        seconds: List[float] = []
        extract = 0.0
        for call in self.calls:
            if per_call:
                engine = self._engine(dirs, tracer)
            batch = [self.sources[i] for i in call]
            start = time.perf_counter()
            report = engine.scan_sources(batch, workers=workers, flush_cache=flush)
            seconds.append(time.perf_counter() - start)
            extract += report.stage_seconds.get("extract", 0.0)
            self.failed += self._check(call, report)
            self.attempted += len(call)
        if not flush:
            for tier in (engine.cache, engine.feature_store):
                if tier is not None:
                    tier.flush()
        if tracer:
            tracer.end(root)
        feature_bytes = sum(dir_bytes(d / "features") for d in dirs)
        if self.spec["feature_dir"] not in (None, "fresh"):
            feature_bytes = dir_bytes(Path(self.spec["feature_dir"]))
        for d in dirs:
            remove_tree(d)
        return {"seconds": seconds, "extract": extract, "root": root,
                "feature_bytes": feature_bytes}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    ensure_program()
    from repro.engine.scan import ScanEngine

    job = Job(spec)
    workers = int(spec["workers"])
    # Warm-up: first-call lazy set-up is set-up time, not scan time.
    smallest = min(range(len(job.sources)), key=lambda i: len(job.sources[i].source))
    ScanEngine.from_artifact(job.artifact).scan_sources([job.sources[smallest]], workers=1)

    out: Dict[str, Any] = {}
    if not spec["trace"]:
        for _ in range(spec["warmup_rounds"]):
            job.run_round(workers)
        calls: List[float] = []
        start = time.perf_counter()
        rounds = 0
        while rounds < spec["min_rounds"] or time.perf_counter() - start < spec["seconds"]:
            calls.extend(job.run_round(workers)["seconds"])
            rounds += 1
        out["call_seconds"] = calls
        out["peak_rss_mb"] = peak_rss_mb()
    else:
        pooled = job.run_round(workers)
        serial = job.run_round(1)
        tracer = Tracer(spec["run_id"])
        instrument(tracer)
        try:
            traced = job.run_round(1, tracer)
        finally:
            tracer.restore()
        layers = layer_metrics(tracer, traced["root"])
        untraced_wall = sum(serial["seconds"])
        layers.update({
            "engine.extract_wall_s": pooled["extract"],
            "engine.extract_serial_s": serial["extract"],
            "engine.pool_speedup": serial["extract"] / pooled["extract"]
            if pooled["extract"] > 0 else 0.0,
            "engine.feature_store.bytes": float(traced["feature_bytes"]),
            "trace.overhead_share": (sum(traced["seconds"]) - untraced_wall) / untraced_wall,
        })
        out["layers"] = layers
        out["call_seconds"] = serial["seconds"]
        tracer.write_jsonl(Path(spec["trace_file"]))
    out["attempted"] = job.attempted
    out["failed"] = job.failed
    out["sample"] = [job.last_records.get(i, "") for i in spec["sample"]]
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
