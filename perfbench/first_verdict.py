"""Set-up probe: a fresh interpreter scans one design and prints its verdict.

Usage: ``python3 first_verdict.py ARTIFACT DESIGN_JSON CACHE_DIR``.  The
parent times from spawning this process to reading the printed line, which
covers imports, ``ScanEngine.from_artifact`` and first-call lazy set-up —
what every CLI ``scan`` pays before its first answer.
"""

import json
import sys


def main() -> int:
    artifact, design_path, cache_dir = sys.argv[1:4]
    from repro.engine.scan import ScanEngine, ScanSource

    with open(design_path, encoding="utf-8") as handle:
        name, source = json.load(handle)
    engine = ScanEngine.from_artifact(
        artifact, cache_dir=cache_dir, feature_store_dir=cache_dir + "/features"
    )
    record = engine.scan_sources([ScanSource(name=name, source=source)], workers=1).records[0]
    sys.stdout.write(json.dumps({"sha256": record.sha256, "error": record.error}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
