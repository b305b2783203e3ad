"""Module entry point: ``python -m repro`` runs the scan-engine CLI.

Besides the one-shot subcommands (``train`` / ``calibrate`` / ``scan`` /
``report`` / ``cache-info`` / ``cache-gc``), this is also how the
long-lived scan service starts: ``python -m repro serve --artifact <dir>``
(see ``docs/SERVING.md``).
"""

from .engine.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
