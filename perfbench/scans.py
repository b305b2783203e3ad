"""The three scan workloads: ``scan_cold``, ``scan_large``, ``rescan_warm``.

Each run trains the fixture detector for its seed (untimed), generates its
corpus, probes set-up time in fresh interpreters, then hands the measured
scans to ``worker.py`` in a fresh interpreter with fresh cache
directories.  A fixed sample of the worker's records is compared with an
uncached serial scan of the same designs under the same artifact.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import gen
from common import (
    TRACE_ROOT,
    check_sample,
    fingerprint,
    make_run_dir,
    median,
    nproc,
    percentile,
    probe_scan_setup,
    recalibrated_artifact,
    remove_tree,
    run_worker,
    train_fixture,
    write_json,
    BenchError,
)

#: Designs in the ``scan_cold`` / ``rescan_warm`` corpus.  Large enough
#: that a warm rescan call lasts ~150 ms, so its latency tail is not just
#: scheduler jitter on a ~40 ms call.
SUITE_DESIGNS = 1000
#: Fresh interpreters started per run for ``setup_s`` (the median is reported).
SETUP_PROBES = 3


def _corpus(workload: str, seed: int) -> Tuple[List[Tuple[str, str]], List[int], Dict[str, Any]]:
    """Designs, sampled indices and input facts for one scan workload."""
    if workload == "scan_large":
        wide = gen.wide_designs(seed)
        designs = [(name, text) for name, text, _ in wide]
        facts = {"nodes": [c["nodes"] for _, _, c in wide],
                 "edges": [c["edges"] for _, _, c in wide]}
        return designs, [0, 2], facts
    # rescan_warm rescans the scan_cold corpus of the same seed on purpose.
    designs = gen.suite_designs(seed, SUITE_DESIGNS, "scan_cold")
    return designs, list(range(0, len(designs), 40)), {}


def run_scan(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one scan workload; returns ``{attempted, failed, correct, metrics}``."""
    from repro.engine.scan import ScanEngine, ScanSource

    run_dir = make_run_dir(workload, seed)
    try:
        artifact = run_dir / "artifact"
        model = train_fixture(seed, artifact)
        designs, sample, facts = _corpus(workload, seed)
        feature_dir = "fresh"
        result_cache = True
        if workload == "rescan_warm":
            # Untimed set-up: fill the feature store under the original
            # artifact, then recalibrate (new fingerprint, cold result tier).
            feature_dir = str(run_dir / "warm_features")
            ScanEngine.from_artifact(artifact, feature_store_dir=feature_dir).scan_sources(
                [ScanSource(name=n, source=s) for n, s in designs], workers=nproc()
            )
            rescan = run_dir / "artifact_recalibrated"
            recalibrated_artifact(model, seed, rescan)
            if fingerprint(rescan) == fingerprint(artifact):
                raise BenchError("recalibration did not change the fingerprint")
            artifact = rescan
            result_cache = False

        setup: List[float] = []
        if not trace:
            probes = gen.suite_designs(seed, SETUP_PROBES, "setup_" + workload, stream="setup")
            for i, design in enumerate(probes[:SETUP_PROBES]):
                setup.append(probe_scan_setup(artifact, design, run_dir / f"probe{i}"))

        job = {
            "artifact": str(artifact),
            "designs": str(write_json(run_dir / "designs.json", designs)),
            "calls": [list(range(len(designs)))],
            "per_call_engine": True,
            "result_cache": result_cache,
            "feature_dir": feature_dir,
            "workers": nproc(),
            "seconds": seconds,
            "min_rounds": 2,
            # One untimed round settles first-pass costs; a scan_large
            # round is long and shows none.
            "warmup_rounds": 0 if workload == "scan_large" else 1,
            "tmp": str(run_dir / "work"),
            "trace": trace,
            "trace_file": str(TRACE_ROOT / f"{workload}-{seed}.jsonl"),
            "run_id": f"{workload}-{seed}",
            "sample": sample,
        }
        out = run_worker(job, run_dir / "job.json")
        mismatched = check_sample(artifact, [designs[i] for i in sample], out["sample"])
    finally:
        remove_tree(run_dir)

    failed = out["failed"] + mismatched
    result: Dict[str, Any] = {
        "attempted": out["attempted"],
        "failed": failed,
        "correct": failed == 0,
        "facts": dict(facts, designs=len(designs), sample=len(sample)),
    }
    if trace:
        result["metrics"] = out["layers"]
        return result
    calls = out["call_seconds"]
    # Rates come from the median call, so one call slowed by a neighbour
    # on a shared host does not move them.
    typical = median(calls)
    result["facts"]["calls"] = len(calls)
    result["metrics"] = {
        "setup_s": median(setup),
        "designs_per_s": len(designs) / typical,
        "latency_p50_ms": typical * 1000.0,
        "latency_p99_ms": percentile(calls, 99) * 1000.0,
        "max_rate_rps": 1.0 / typical,
        "peak_rss_mb": out["peak_rss_mb"],
        "ok_share": 1.0 - failed / max(1, out["attempted"]),
    }
    return result
