"""Repo benchmark: one command, four workloads, named metrics with units.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` makes the separate traced run that reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero, and no result is printed, when
the program cannot be found or any check fails to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, ensure_program  # noqa: E402
from metrics import complete  # noqa: E402

WORKLOADS = ("scan_cold", "scan_large", "rescan_warm", "serve_open_loop")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ensure_program()
    if workload == "serve_open_loop":
        from serve_load import run_serve

        return run_serve(seed, seconds, trace)
    from scans import run_scan

    return run_scan(workload, seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    metrics = complete(result["metrics"], "per_layer" if args.trace else "end_to_end")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v}" for k, v in sorted(result.get("facts", {}).items())))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
