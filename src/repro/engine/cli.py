"""``python -m repro`` — the scan-engine command line.

Subcommands (see ``docs/ENGINE.md`` for a walkthrough):

* ``train``     — generate/derive a labelled corpus, fit a detector, save
  an artifact directory;
* ``calibrate`` — re-calibrate a saved detector's conformal state on fresh
  labelled data (no CNN retraining);
* ``scan``      — run the batched scan pipeline over HDL files/directories
  (or a generated demo batch) using a saved artifact; ``--backend``
  selects the inference compute backend (``numpy`` golden float64 or
  ``fused_f32``);
* ``report``    — pretty-print the triage queues of a saved scan-results
  JSON;
* ``cache-info`` — report both cache tiers under a cache directory (the
  fingerprint-namespaced result tier and the model-independent feature
  tier);
* ``cache-gc``  — garbage-collect the feature tier: fold append-only
  segment files into their base shards and remove retired schema
  namespaces;
* ``serve``     — run the long-lived scan service (micro-batching HTTP
  server, see ``docs/SERVING.md``) until SIGTERM/SIGINT.

Every subcommand is pure argparse + engine API; the module is import-safe
and the tests drive :func:`main` in-process.

Exit codes are consistent across subcommands: ``0`` on success, ``1`` on a
runtime failure (missing/corrupt artifact or input, no scannable sources,
every design failing the front-end), ``2`` on a usage error (argparse
errors, contradictory flags).  Failures print an ``error: ...`` line to
stderr instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .. import __version__
from ..core.config import NoodleConfig, default_config
from ..faults import DEFAULT_MAX_QUEUE_DEPTH, FAILPOINTS_ENV, FailpointSpecError
from ..faults import configure as configure_failpoints
from ..features.pipeline import extract_modalities
from ..gan import AmplificationConfig, GANConfig
from ..nn.backend import DEFAULT_BACKEND, available_backends
from ..obs.drift import (
    DEFAULT_CLEAR_MARGIN,
    DEFAULT_MIN_OBSERVATIONS,
    DEFAULT_TRIP_MARGIN,
    DEFAULT_WINDOW,
)
from ..obs.tracing import Tracer, trace_span
from ..serve.batching import DEFAULT_BATCH_WINDOW_S
from ..trojan import SuiteConfig, TrojanDataset
from .artifacts import ArtifactError, load_detector, save_detector
from .cache import CacheLockTimeout, describe_result_tier
from .feature_store import (
    default_feature_store_dir,
    describe_feature_tier,
    gc_feature_tier,
)
from .scan import HDL_SUFFIXES, ScanEngine, ScanReport, ScanSource, collect_sources
from .scheduler import DEFAULT_SHARD_SIZE, ScanScheduler
from .training import TRAINABLE_STRATEGIES, recalibrate_detector, train_detector

#: Exit codes shared by every subcommand.
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def _fail(message: str) -> int:
    """Print a consistent ``error:`` line to stderr and return exit code 1."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FAILURE


def _check_backend(name: str) -> bool:
    """Validate a ``--backend`` value, printing the usage error if unknown.

    Returns ``True`` when the name is known.  Validated here (not via
    argparse ``choices``) so plugin backends registered through
    :func:`repro.nn.register_backend` are accepted, and unknown names exit
    with the usage code (2) rather than the runtime-failure code.
    """
    if name in available_backends():
        return True
    print(
        f"error: unknown compute backend {name!r}; "
        f"known backends: {', '.join(available_backends())}",
        file=sys.stderr,
    )
    return False


def _add_backend_option(parser: argparse.ArgumentParser) -> None:
    """The ``--backend`` flag shared by ``scan`` and ``serve``."""
    parser.add_argument(
        "--backend",
        default=DEFAULT_BACKEND,
        metavar="NAME",
        help="inference compute backend: 'numpy' (float64 golden path) or "
        "'fused_f32' (fused float32 forward)",
    )


def _add_failpoints_option(parser: argparse.ArgumentParser) -> None:
    """The ``--failpoints`` flag shared by ``scan`` and ``serve``."""
    parser.add_argument(
        "--failpoints",
        default=None,
        metavar="SPEC",
        help="activate fault-injection failpoints in this process, e.g. "
        "'cache.flush.io=error:OSError;extract.worker.body=kill,p=0.5' "
        "(equivalent to setting REPRO_FAILPOINTS; extraction-pool "
        "workers inherit the spec through the environment — see "
        "docs/ROBUSTNESS.md for the grammar)",
    )


def _apply_failpoints(args: argparse.Namespace) -> bool:
    """Activate a ``--failpoints`` spec; False (usage error) on a bad one."""
    spec = getattr(args, "failpoints", None)
    if spec is None:
        return True
    try:
        configure_failpoints(spec)
    except FailpointSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    # Extraction-pool workers started by spawn re-read the environment, so
    # the spec must live there too, not just in this process's registry.
    os.environ[FAILPOINTS_ENV] = spec
    return True


def _add_suite_options(parser: argparse.ArgumentParser) -> None:
    """Options controlling the synthetic labelled corpus a command generates."""
    group = parser.add_argument_group("corpus generation")
    group.add_argument(
        "--trojan-free", type=int, default=36, help="clean designs in the corpus"
    )
    group.add_argument(
        "--trojan-infected", type=int, default=18, help="infected designs in the corpus"
    )
    group.add_argument("--suite-seed", type=int, default=7, help="corpus generation seed")


def _generate_corpus(args: argparse.Namespace):
    """Generate the labelled corpus described by the suite options."""
    config = SuiteConfig(
        n_trojan_free=args.trojan_free,
        n_trojan_infected=args.trojan_infected,
        seed=args.suite_seed,
    )
    dataset = TrojanDataset.generate(config)
    return extract_modalities(dataset)


def _training_config(args: argparse.Namespace) -> NoodleConfig:
    """Build the NoodleConfig a ``train`` invocation asked for."""
    config = default_config(seed=args.seed)
    if args.quick:
        config.classifier.epochs = 15
    if args.epochs is not None:
        config.classifier.epochs = args.epochs
    if args.amplify:
        config.amplify = True
        config.amplification = AmplificationConfig(
            target_total=args.target_total,
            gan=GANConfig(epochs=80 if args.quick else 300, seed=args.seed + 2),
        )
    config.validate()
    return config


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_train(args: argparse.Namespace) -> int:
    print(
        f"generating corpus: {args.trojan_free} clean + "
        f"{args.trojan_infected} infected designs (seed {args.suite_seed})"
    )
    features = _generate_corpus(args)
    config = _training_config(args)
    print(f"training strategy {args.strategy!r} ({config.classifier.epochs} epochs)")
    result = train_detector(
        features, strategy=args.strategy, config=config, modality=args.modality
    )
    extra = {"trained_on": f"synthetic suite seed={args.suite_seed}"}
    if result.report is not None:
        for line in result.report.summary_lines():
            print(line)
    # save_detector persists the NOODLE winner-selection report when handed
    # the fitted NOODLE wrapper (result.persistable).
    path = save_detector(result.persistable, args.artifact, extra=extra)
    print(f"saved artifact: {path}")
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    model, manifest = load_detector(args.artifact)
    print(f"loaded {manifest['kind']} detector (fingerprint {manifest['fingerprint'][:12]})")
    features = _generate_corpus(args)
    recalibrate_detector(model, features)
    path = save_detector(
        model,
        args.artifact,
        extra=manifest.get("extra"),
        noodle_report=manifest.get("noodle_report"),
    )
    new_manifest = json.loads((Path(path) / "manifest.json").read_text())
    print(
        f"recalibrated on {len(features)} designs; "
        f"new fingerprint {new_manifest['fingerprint'][:12]}"
    )
    return EXIT_OK


def _feature_store_dir(args: argparse.Namespace) -> Optional[Path]:
    """Resolve the feature-tier root a scan/serve invocation asked for.

    The tier defaults to on whenever the result cache is on (it lives
    under the same root); ``--no-feature-cache`` disables just it, and an
    explicit ``--feature-cache`` keeps it even under ``--no-cache`` (the
    recalibration workflow: model verdicts must be fresh, extracted
    features cannot go stale).
    """
    enabled = args.feature_cache if args.feature_cache is not None else not args.no_cache
    return default_feature_store_dir(args.cache_dir) if enabled else None


def build_scan_batch(n_designs: int, seed: int = 23) -> list:
    """The deterministic demo batch ``scan --generate N`` scans: N suite designs."""
    suite = TrojanDataset.generate(
        SuiteConfig(
            n_trojan_free=max(1, (2 * n_designs) // 3),
            n_trojan_infected=max(1, n_designs - (2 * n_designs) // 3),
            seed=seed,
        )
    )
    # Both classes get at least one design, so a one-design request
    # generates two; keep exactly the N that were asked for.
    return [
        ScanSource(name=benchmark.name, source=benchmark.source)
        for benchmark in suite.benchmarks
    ][:n_designs]


def _cmd_scan(args: argparse.Namespace) -> int:
    if not _check_backend(args.backend):
        return EXIT_USAGE
    if not _apply_failpoints(args):
        return EXIT_USAGE
    if args.resume and args.no_cache:
        print("error: --resume needs the result cache; drop --no-cache", file=sys.stderr)
        return EXIT_USAGE
    if args.generate < 0:
        print("error: --generate must be non-negative", file=sys.stderr)
        return EXIT_USAGE
    for flag, value in (
        ("--workers", args.workers),
        ("--shard-size", args.shard_size),
    ):
        if value is not None and value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return EXIT_USAGE
    if args.confidence is not None and not 0.0 < args.confidence < 1.0:
        print("error: --confidence must be in (0, 1)", file=sys.stderr)
        return EXIT_USAGE
    cache_dir = None if args.no_cache else args.cache_dir
    feature_dir = _feature_store_dir(args)
    # With --trace, every pipeline stage records a span under one "scan"
    # root; the resulting JSONL reconstructs the full pipeline tree.
    tracer = Tracer(trace_id="scan") if args.trace else None
    with trace_span(tracer, "scan") as span_root:
        t_collect = time.perf_counter()
        with trace_span(tracer, "scan/collect"):
            if args.generate:
                sources = build_scan_batch(args.generate, seed=args.generate_seed)
                print(f"generated a demo batch of {len(sources)} designs")
            else:
                if not args.inputs:
                    print(
                        "error: provide HDL files/directories or --generate N",
                        file=sys.stderr,
                    )
                    return EXIT_USAGE
                sources = collect_sources(args.inputs)
                if not sources:
                    return _fail(
                        "no scannable sources under "
                        + ", ".join(str(i) for i in args.inputs)
                        + f" (looked for {', '.join(HDL_SUFFIXES)} files)"
                    )
        seconds_collect = time.perf_counter() - t_collect
        span_root.attrs["designs"] = len(sources)
        engine = ScanEngine.from_artifact(
            args.artifact,
            cache_dir=cache_dir,
            feature_store_dir=feature_dir,
            backend=args.backend,
        )
        if args.resume:
            report = ScanScheduler(engine, shard_size=args.shard_size).scan_sources(
                sources,
                workers=args.workers,
                confidence=args.confidence,
                resume=True,
                tracer=tracer,
            )
        else:
            report = engine.scan_sources(
                sources, workers=args.workers, confidence=args.confidence, tracer=tracer
            )
    report.stage_seconds["collect"] = seconds_collect
    if tracer is not None:
        trace_path = Path(args.trace)
        if trace_path.parent != Path("."):
            trace_path.parent.mkdir(parents=True, exist_ok=True)
        n_spans = tracer.write_jsonl(trace_path)
        print(f"wrote trace: {trace_path} ({n_spans} spans)")
    for line in report.summary_lines():
        print(line)
    if args.profile:
        for line in report.profile_lines():
            print(line)
    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote results: {output}")
    else:
        _print_triage(report, verbose=args.verbose)
    if report.n_designs and report.n_errors == report.n_designs:
        return _fail(
            f"all {report.n_designs} designs failed the front-end; "
            "nothing was scanned"
        )
    return EXIT_OK


def _print_triage(report: ScanReport, verbose: bool = False) -> None:
    """Print the accept / reject / review / error queues of a scan report."""
    queues = report.triage()
    titles = {
        "accept": "ACCEPT — confidently Trojan-free",
        "reject": "REJECT — confidently Trojan-infected",
        "review": "MANUAL REVIEW — conformal region is uncertain/empty",
        "error": "ERROR — front-end failure",
    }
    for key in ("accept", "reject", "review", "error"):
        entries = queues[key]
        if not entries and not verbose:
            continue
        print(f"\n{titles[key]} ({len(entries)})")
        for record in entries:
            if record.decision is None:
                print(f"  {record.name:<28} {record.error}")
            else:
                decision = record.decision
                cached = " [cached]" if record.cached else ""
                print(
                    f"  {record.name:<28} P(infected)={decision.probability_infected:.3f} "
                    f"confidence={decision.confidence:.2f} "
                    f"credibility={decision.credibility:.2f}{cached}"
                )


def _cmd_report(args: argparse.Namespace) -> int:
    data = json.loads(Path(args.input).read_text())
    report = ScanReport.from_dict(data)
    for line in report.summary_lines():
        print(line)
    if report.stage_seconds:
        for line in report.profile_lines():
            print(line)
    _print_triage(report, verbose=True)
    return EXIT_OK


def _format_bytes(n: int) -> str:
    """Human-readable byte count (``cache-info`` output)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"  # pragma: no cover - unreachable


def _cmd_cache_info(args: argparse.Namespace) -> int:
    result = describe_result_tier(args.cache_dir)
    features = describe_feature_tier(default_feature_store_dir(args.cache_dir))
    if args.json:
        print(
            json.dumps(
                {"result_tier": result, "feature_tier": features},
                indent=2,
                sort_keys=True,
            )
        )
        return EXIT_OK
    print(f"cache directory: {args.cache_dir}")
    print(
        f"result tier   : {result['n_records']} records in "
        f"{len(result['namespaces'])} model namespaces "
        f"({_format_bytes(result['bytes'])})"
    )
    for ns in result["namespaces"]:
        corrupt = (
            f", {ns['n_corrupt']} quarantined" if ns["n_corrupt"] else ""
        )
        print(
            f"  model {ns['fingerprint']}: {ns['n_records']} records, "
            f"{ns['n_shards']} shards ({_format_bytes(ns['bytes'])}){corrupt}"
        )
    print(
        f"feature tier  : {features['n_rows']} rows in "
        f"{len(features['namespaces'])} schema namespaces "
        f"({_format_bytes(features['bytes'])})"
    )
    for ns in features["namespaces"]:
        print(
            f"  schema {ns['schema']}: {ns['n_rows']} rows, "
            f"{ns['n_shards']} shards, {ns['n_segments']} segments "
            f"({_format_bytes(ns['bytes'])})"
        )
    return EXIT_OK


def _cmd_cache_gc(args: argparse.Namespace) -> int:
    summary = gc_feature_tier(default_feature_store_dir(args.cache_dir))
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return EXIT_OK
    print(f"feature tier: {summary['directory']}")
    print(
        f"compacted schema {summary['current_schema']}: "
        f"{summary['n_segments_folded']} segment files folded into base shards"
    )
    removed = summary["retired_namespaces_removed"]
    if removed:
        print(
            f"removed {len(removed)} retired schema namespaces "
            f"({_format_bytes(summary['bytes_reclaimed'])} reclaimed): "
            + ", ".join(removed)
        )
    else:
        print("no retired schema namespaces to remove")
    return EXIT_OK


def _parse_serve_artifacts(
    args: argparse.Namespace,
) -> Tuple[Dict[str, str], Optional[str]]:
    """Resolve ``serve``'s model set from ``--fleet`` and ``--artifact``.

    A fleet manifest (if given) seeds the mapping; each ``--artifact``
    then adds or overrides one model — ``NAME=DIR`` registers it under
    ``NAME``, a bare ``DIR`` under ``"default"``.  Returns the ordered
    ``name -> directory`` mapping plus the default-model name (from
    ``--default-model``, else the fleet manifest, else the first entry).
    """
    from .artifacts import load_fleet_manifest

    artifacts: Dict[str, str] = {}
    default: Optional[str] = None
    if args.fleet:
        fleet, fleet_default = load_fleet_manifest(args.fleet)
        artifacts.update({name: str(path) for name, path in fleet.items()})
        default = fleet_default
    for spec in args.artifact or []:
        name, sep, directory = spec.partition("=")
        if sep and name:
            artifacts[name] = directory
        else:
            artifacts["default"] = spec
    if args.default_model:
        default = args.default_model
    return artifacts, default


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..serve.server import ScanService

    if not _check_backend(args.backend):
        return EXIT_USAGE
    if not _apply_failpoints(args):
        return EXIT_USAGE
    if not (math.isfinite(args.batch_window_ms) and args.batch_window_ms >= 0):
        print(
            "error: --batch-window-ms must be finite and non-negative",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.max_batch < 1:
        print("error: --max-batch must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.max_queue_depth < 0:
        print(
            "error: --max-queue-depth must be non-negative (0 disables the gate)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        artifacts, default_model = _parse_serve_artifacts(args)
    except Exception as exc:  # any fleet/artifact resolution failure is a usage error
        return _fail(f"cannot resolve serving fleet: {exc}")
    if not artifacts:
        print("error: provide --artifact [NAME=]DIR or --fleet FILE", file=sys.stderr)
        return EXIT_USAGE
    if default_model is not None and default_model not in artifacts:
        print(
            f"error: --default-model {default_model!r} is not among "
            f"{sorted(artifacts)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.shadow is not None and args.shadow not in artifacts:
        print(
            f"error: --shadow {args.shadow!r} is not among {sorted(artifacts)}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if args.shadow is not None and args.shadow == (
        default_model or next(iter(artifacts))
    ):
        print(
            f"error: --shadow {args.shadow!r} is already the default model; "
            "a challenger must shadow a different champion",
            file=sys.stderr,
        )
        return EXIT_USAGE
    cache_dir = None if args.no_cache else args.cache_dir
    try:
        service = ScanService(
            artifacts=artifacts,
            default_model=default_model,
            shadow=args.shadow,
            promote_threshold=args.promote_threshold,
            min_shadow_designs=args.min_shadow,
            shadow_sample=args.shadow_sample,
            host=args.host,
            port=args.port,
            batch_window_s=args.batch_window_ms / 1000.0,
            max_batch=args.max_batch,
            cache_dir=cache_dir,
            feature_store_dir=_feature_store_dir(args),
            feature_cache=False,  # the resolved dir above is the whole decision
            max_queue_depth=args.max_queue_depth or None,
            allow_paths=not args.no_paths,
            flush_every=args.flush_every,
            backend=args.backend,
            trace_dir=args.trace_dir,
            drift_window=args.drift_window,
            drift_min_observations=args.drift_min_observations,
            drift_trip_margin=args.drift_trip_margin,
            drift_clear_margin=args.drift_clear_margin,
        )
    except ValueError as exc:
        return _fail(f"cannot start the scan service: {exc}")
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    try:
        previous = {
            sig: signal.signal(sig, _request_stop)
            for sig in (signal.SIGTERM, signal.SIGINT)
        }
    except ValueError:
        # Signal handlers can only be installed from the main thread; an
        # embedder driving main() from elsewhere stops the service by
        # calling ScanService.shutdown() / setting its own lifecycle.
        previous = {}
    try:
        # Everything after start() sits inside the try: a failure here
        # (even a broken stdout pipe) must still shut the non-daemon
        # serving threads down, or the process would hang on exit.
        service.start()
        print(
            f"serving {len(artifacts)} model(s) on "
            f"http://{service.host}:{service.port} "
            f"(repro {__version__})"
        )
        for name in service.models:
            entry = service.registry.get(artifacts[name])
            marks = []
            if name == service.champion:
                marks.append("champion")
            if args.shadow == name:
                marks.append("challenger")
            suffix = f" [{', '.join(marks)}]" if marks else ""
            print(
                f"  {name}: {entry.kind} detector {entry.fingerprint[:12]}{suffix}"
            )
        if args.shadow is not None:
            print(
                f"rollout: shadowing {args.shadow} at sample rate "
                f"{args.shadow_sample:g}; auto-promote at agreement >= "
                f"{args.promote_threshold:g} over >= {args.min_shadow} designs"
            )
        feature_dir = _feature_store_dir(args)
        print(
            f"micro-batching: window {args.batch_window_ms:g}ms, "
            f"max {args.max_batch} designs/batch; "
            + ("cache " + str(cache_dir) if cache_dir else "result cache disabled")
            + (
                f"; feature cache {feature_dir}"
                if feature_dir is not None
                else "; feature cache disabled"
            )
        )
        # One flush for the whole banner: on a pipe stdout is block
        # buffered, and with --port 0 the banner is how a parent process
        # learns the port.
        print(
            "endpoints: POST /scan  GET /healthz  GET /metrics  "
            "POST /reload  POST /promote",
            flush=True,
        )
        while not stop.wait(0.2):
            pass
        print("shutdown requested; draining in-flight batches ...")
    finally:
        service.shutdown()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    snapshot = service.metrics.snapshot()
    print(
        f"served {snapshot['scan_requests']} scan requests "
        f"({snapshot['designs_total']} designs, "
        f"{snapshot['cache_hits']} cache hits) "
        f"in {snapshot['batches_total']} micro-batches; shutdown clean"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="NOODLE scan engine: train once, scan hardware designs many times.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
        help="print the repro version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a detector and save an artifact")
    train.add_argument("--artifact", required=True, help="artifact directory to write")
    train.add_argument(
        "--strategy",
        choices=TRAINABLE_STRATEGIES,
        default="noodle",
        help="what to train (default: full NOODLE winner selection)",
    )
    train.add_argument(
        "--modality", default=None, help="modality name for --strategy single"
    )
    train.add_argument("--seed", type=int, default=0, help="training seed")
    train.add_argument(
        "--epochs", type=int, default=None, help="override classifier epochs"
    )
    train.add_argument(
        "--quick", action="store_true", help="small epochs for smoke runs"
    )
    train.add_argument(
        "--amplify", action="store_true", help="GAN-amplify the training corpus"
    )
    train.add_argument(
        "--target-total", type=int, default=300, help="amplification target size"
    )
    _add_suite_options(train)
    train.set_defaults(func=_cmd_train)

    calibrate = sub.add_parser(
        "calibrate", help="re-calibrate a saved detector on fresh labelled data"
    )
    calibrate.add_argument("--artifact", required=True, help="artifact directory")
    _add_suite_options(calibrate)
    calibrate.set_defaults(func=_cmd_calibrate)

    scan = sub.add_parser("scan", help="scan HDL sources with a saved detector")
    scan.add_argument("inputs", nargs="*", help="HDL files and/or directories")
    scan.add_argument("--artifact", required=True, help="artifact directory")
    scan.add_argument(
        "--generate", type=int, default=0, metavar="N", help="scan a generated demo batch"
    )
    scan.add_argument(
        "--generate-seed", type=int, default=23, help="seed for --generate"
    )
    scan.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="feature-extraction processes (default: min(4, CPU count)); "
        "batches under 64 KiB of HDL extract in-process",
    )
    scan.add_argument(
        "--shard-size",
        type=int,
        default=DEFAULT_SHARD_SIZE,
        metavar="K",
        help="designs per --resume shard (inference/retry/journal granularity)",
    )
    scan.add_argument(
        "--resume",
        action="store_true",
        help="journaled, resumable scan: checkpoint progress while scanning, "
        "reuse cached results and continue the corpus journal of an "
        "interrupted run (requires the result cache)",
    )
    scan.add_argument(
        "--confidence", type=float, default=None, help="conformal confidence level"
    )
    _add_backend_option(scan)
    scan.add_argument(
        "--cache-dir", default=".repro_cache", help="scan result cache directory"
    )
    scan.add_argument("--no-cache", action="store_true", help="disable the result cache")
    scan.add_argument(
        "--feature-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="model-independent feature cache under <cache-dir>/features "
        "(default: enabled iff the result cache is; --feature-cache keeps "
        "it even with --no-cache, --no-feature-cache disables just it)",
    )
    scan.add_argument("--output", default=None, help="write results JSON here")
    scan.add_argument(
        "--profile",
        action="store_true",
        help="print the per-stage timing breakdown "
        "(collect/extract/infer/p-value/cache-flush) after the scan",
    )
    scan.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a JSONL span trace of the scan pipeline to FILE "
        "(one span per line; parent/child ids reconstruct the pipeline "
        "tree — see docs/OBSERVABILITY.md)",
    )
    scan.add_argument(
        "--verbose", action="store_true", help="print empty triage queues too"
    )
    _add_failpoints_option(scan)
    scan.set_defaults(func=_cmd_scan)

    report = sub.add_parser("report", help="pretty-print a saved scan-results JSON")
    report.add_argument("--input", required=True, help="results JSON from `scan --output`")
    report.set_defaults(func=_cmd_report)

    cache_info = sub.add_parser(
        "cache-info", help="report both cache tiers under a cache directory"
    )
    cache_info.add_argument(
        "--cache-dir", default=".repro_cache", help="cache directory to inspect"
    )
    cache_info.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )
    cache_info.set_defaults(func=_cmd_cache_info)

    cache_gc = sub.add_parser(
        "cache-gc",
        help="compact feature-store segments and drop retired schema namespaces",
    )
    cache_gc.add_argument(
        "--cache-dir", default=".repro_cache", help="cache directory to collect"
    )
    cache_gc.add_argument(
        "--json", action="store_true", help="print the summary as JSON"
    )
    cache_gc.set_defaults(func=_cmd_cache_gc)

    serve = sub.add_parser(
        "serve", help="run the long-lived micro-batching scan service"
    )
    serve.add_argument(
        "--artifact",
        action="append",
        metavar="[NAME=]DIR",
        help="artifact directory to serve; repeat with NAME=DIR to serve "
        "several models from one process (a bare DIR is named 'default')",
    )
    serve.add_argument(
        "--fleet",
        metavar="FILE",
        help="fleet manifest (fleet.json) naming several artifacts; "
        "--artifact entries add to or override it",
    )
    serve.add_argument(
        "--default-model",
        metavar="NAME",
        help="model serving requests that name none (the initial champion; "
        "default: the fleet manifest's default, else the first --artifact)",
    )
    serve.add_argument(
        "--shadow",
        metavar="NAME",
        help="run this registered model as rollout challenger: it "
        "shadow-scans sampled champion traffic and is auto-promoted once "
        "its triage-agreement rate clears --promote-threshold",
    )
    serve.add_argument(
        "--promote-threshold",
        type=float,
        default=0.98,
        metavar="RATE",
        help="triage-agreement rate the challenger must clear for "
        "auto-promotion (fraction in [0, 1])",
    )
    serve.add_argument(
        "--min-shadow",
        type=int,
        default=32,
        metavar="N",
        help="shadow-scanned designs required before the promote/reject "
        "decision is made",
    )
    serve.add_argument(
        "--shadow-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of champion traffic the challenger shadow-scans",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind host (default: loopback only)"
    )
    serve.add_argument(
        "--port", type=int, default=8731, help="bind port (0 picks a free port)"
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=DEFAULT_BATCH_WINDOW_S * 1000.0,
        metavar="MS",
        help="micro-batch window: how long to hold a batch open for "
        "stragglers, closing it early after 2 ms without an arrival; 0 "
        "dispatches on idle, scanning whatever is queued as soon as a batch "
        "worker is free (default %(default)g)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=64,
        metavar="N",
        help="designs per micro-batch (the forward-pass batch-size cap)",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=DEFAULT_MAX_QUEUE_DEPTH,
        metavar="N",
        help="admission gate: requests a batch lane may hold queued before "
        "new scans are shed with 429 + Retry-After (0 disables the gate)",
    )
    serve.add_argument(
        "--flush-every",
        type=int,
        default=128,
        metavar="N",
        help="flush the result cache once N fresh designs accumulated "
        "(always off the response path; always flushed on shutdown)",
    )
    serve.add_argument(
        "--cache-dir", default=".repro_cache", help="scan result cache directory"
    )
    serve.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    serve.add_argument(
        "--feature-cache",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="model-independent feature cache under <cache-dir>/features; "
        "keeps rescans cheap across hot reloads "
        "(default: enabled iff the result cache is)",
    )
    serve.add_argument(
        "--no-paths",
        action="store_true",
        help="reject server-side 'paths' in scan requests (inline sources only)",
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="append JSONL span traces of every micro-batch to "
        "DIR/serve-<pid>.jsonl (see docs/OBSERVABILITY.md)",
    )
    serve.add_argument(
        "--drift-window",
        type=int,
        default=DEFAULT_WINDOW,
        metavar="N",
        help="coverage-drift sliding window per model "
        f"(default {DEFAULT_WINDOW} outcomes)",
    )
    serve.add_argument(
        "--drift-min-observations",
        type=int,
        default=DEFAULT_MIN_OBSERVATIONS,
        metavar="N",
        help="outcomes required before the drift alarm may judge "
        f"(default {DEFAULT_MIN_OBSERVATIONS})",
    )
    serve.add_argument(
        "--drift-trip-margin",
        type=float,
        default=DEFAULT_TRIP_MARGIN,
        metavar="M",
        help="alarm trips when observed coverage falls below nominal - M "
        f"(default {DEFAULT_TRIP_MARGIN})",
    )
    serve.add_argument(
        "--drift-clear-margin",
        type=float,
        default=DEFAULT_CLEAR_MARGIN,
        metavar="M",
        help="alarm clears once observed coverage recovers above nominal - M "
        f"(default {DEFAULT_CLEAR_MARGIN}; must be < the trip margin)",
    )
    _add_backend_option(serve)
    _add_failpoints_option(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Runtime failures (missing/corrupt artifacts, unreadable inputs, bad
    values) are reported as one ``error:`` line on stderr with exit code 1
    rather than a traceback, so scripted campaigns can branch on the exit
    status of every subcommand.
    """
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except (ArtifactError, CacheLockTimeout, OSError, ValueError) as exc:
        # Covers FileNotFoundError (missing inputs), json.JSONDecodeError
        # (corrupt results/manifest files), cache-lock contention and
        # config validation errors.
        return _fail(str(exc))
