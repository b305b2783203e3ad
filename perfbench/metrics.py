"""Metric catalogue: names and units come from ``BENCHMARK.json``.

Untraced runs (``--trace 0``) print every ``end_to_end`` metric, traced
runs (``--trace 1``) every ``per_layer`` metric; a layer a workload does not
exercise reads 0.  ``layers.json`` records which end-to-end metric, on
which workload, each per-layer metric should move.
"""

import json

from common import ROOT


def catalogue(kind: str) -> dict:
    """``{name: unit}`` for ``kind`` = ``"end_to_end"`` or ``"per_layer"``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def complete(metrics: dict, kind: str) -> dict:
    """``{name: {"value", "unit"}}`` for every catalogue metric (absent = 0)."""
    units = catalogue(kind)
    unknown = set(metrics) - set(units)
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {sorted(unknown)}")
    return {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
