#!/usr/bin/env python
"""Digest of the feature rows a ``repro`` tree extracts from a fixed corpus.

The benchmark's output check compares scan records with a serial scan of
the same commit, so it cannot see feature rows that change in their last
bits between two commits.  This tool can: write a corpus once, digest it
under each commit's ``src/``, and compare the digests.

Run with::

    PYTHONPATH=src python tools/row_digest.py corpus CORPUS.json
    PYTHONPATH=src python tools/row_digest.py digest CORPUS.json

``corpus`` writes the benchmark's seed-1 designs, taken read-only from
``perfbench/gen.py``: the 1,000 ``scan_cold`` suite designs and the eight
``scan_large`` wide designs.  ``digest`` extracts every design of a corpus
with ``extract_design_modalities`` of whichever ``repro`` is on
``PYTHONPATH`` and prints one JSON object, ``{"extraction_version",
"designs", "sha256", "tabular_sha256", "graph_sha256", "ast_sha256"}``.
``sha256`` covers the shape and bytes of every array of every row in corpus
order, ``tabular_sha256`` and ``graph_sha256`` the same for row positions 0
and 1 alone, and ``ast_sha256`` the ``repr`` of every design's parsed
module.  Two trees with equal ``extraction_version``, which also versions
the HDL front-end, must print equal digests (the CI ``feature-drift`` job).
When a version bump changes only the row's layout, equal per-modality
digests show that the tabular and graph features did not move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]


def write_corpus(path: Path) -> int:
    """Write the seed-1 ``scan_cold`` and ``scan_large`` designs to ``path``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    designs = [[name, source] for name, source in gen.suite_designs(1, 1000, "scan_cold")]
    designs += [[name, source] for name, source, _ in gen.wide_designs(1)]
    path.write_text(json.dumps({"designs": designs}), encoding="utf-8")
    return len(designs)


def digest_corpus(path: Path) -> Dict[str, object]:
    """Digest of every extracted row of the corpus at ``path``."""
    from repro.features.pipeline import FEATURE_EXTRACTION_VERSION, extract_design_modalities
    from repro.hdl.parser import parse_module

    designs: List[List[str]] = json.loads(path.read_text(encoding="utf-8"))["designs"]
    digest, tabular, graph, ast_digest = (hashlib.sha256() for _ in range(4))
    for _, source in designs:
        row = extract_design_modalities(source)
        for array, modality in zip(row, (tabular, graph)):
            modality.update(repr(array.shape).encode("ascii"))
            modality.update(array.tobytes())
        for array in row:
            digest.update(repr(array.shape).encode("ascii"))
            digest.update(array.tobytes())
        ast_digest.update(repr(parse_module(source)).encode("utf-8"))
    return {
        "extraction_version": FEATURE_EXTRACTION_VERSION,
        "designs": len(designs),
        "sha256": digest.hexdigest(),
        "tabular_sha256": tabular.hexdigest(),
        "graph_sha256": graph.hexdigest(),
        "ast_sha256": ast_digest.hexdigest(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Command-line entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("corpus", "digest"))
    parser.add_argument("corpus", type=Path, help="corpus JSON to write or digest")
    args = parser.parse_args(argv)
    if args.mode == "corpus":
        print(f"wrote {write_corpus(args.corpus)} designs to {args.corpus}")
    else:
        print(json.dumps(digest_corpus(args.corpus), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
