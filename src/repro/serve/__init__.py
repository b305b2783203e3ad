"""Online scan service: long-lived HTTP serving on top of the scan engine.

Where :mod:`repro.engine` answers "scan this corpus once, fast",
``repro.serve`` answers "keep answering scan requests forever, fast".  It
is stdlib-only (``selectors`` + ``threading``) and built from six pieces:

* :mod:`repro.serve.registry` — :class:`ModelRegistry`: any number of
  detector artifacts loaded once, keyed by fingerprint, hot-reloaded when
  an artifact changes on disk (recalibration without downtime), all
  sharing one model-independent feature store;
* :mod:`repro.serve.batching` — :class:`MicroBatcher`: ``/scan``
  requests that queue for one model while its worker is busy coalesce
  into one batched forward pass + conformal p-value call and one
  result-cache flush;
* :mod:`repro.serve.rollout` — :class:`RolloutController`:
  champion–challenger promotion gated on live triage agreement (a new
  model shadow-scans sampled traffic and is promoted only when it agrees
  with the resident champion);
* :mod:`repro.serve.eventloop` — :class:`EventLoopFrontend`: a
  single-threaded ``selectors`` reactor holding thousands of keep-alive
  connections without a thread apiece, feeding the batch workers
  asynchronously;
* :mod:`repro.serve.server` — :class:`ScanService`: the HTTP surface
  (``POST /scan`` with per-request model routing, ``GET /healthz``,
  ``GET /metrics``, ``POST /reload``, ``POST /promote``) with graceful
  drain on shutdown;
* :mod:`repro.serve.client` — :class:`ScanServiceClient`: a thin
  keep-alive client used by tests and tools.

:mod:`repro.serve.bench` holds the deterministic request corpus the
serving benchmark and smoke tools send.

The package itself exports nothing, so importing one submodule (the
CLI reads :mod:`repro.serve.batching` on every command) does not load the
HTTP stack; import names from the submodules.

Start one with ``python -m repro serve --artifact NAME=DIR ...``; see
``docs/SERVING.md`` for the API reference and semantics.
"""
