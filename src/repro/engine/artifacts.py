"""Disk artifact store for trained NOODLE detectors.

An *artifact* is a directory holding everything needed to reconstruct a
fitted :class:`repro.core.fusion.ConformalFusionModel` without retraining:

``manifest.json``
    The detector kind (single / early_fusion / late_fusion), the full
    :class:`repro.core.NoodleConfig` tree, per-component feature widths,
    a content fingerprint, and optional provenance (e.g. the NOODLE
    winner-selection report for detectors trained via Algorithm 2).

``arrays.npz``
    Every numerical array, flattened with ``/``-separated key prefixes by
    the helpers in :mod:`repro.nn.serialize`: CNN weights and feature-scaler
    statistics per classifier, plus each conformal predictor's calibration
    scores *and pre-sorted caches* — restored verbatim so a loaded detector
    produces bit-identical p-values to the one that was saved.

The *fingerprint* (SHA-256 over the manifest core and all array bytes)
identifies a specific trained model; the scan cache keys results by
``(fingerprint, source hash)`` so stale verdicts can never leak across
retrains.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.config import NoodleConfig
from ..faults import failpoint
from ..core.fusion import (
    ConformalFusionModel,
    EarlyFusionModel,
    LateFusionModel,
    SingleModalityModel,
)
from ..core.noodle import NOODLE
from ..nn.serialize import classifier_state_dict, icp_state_dict, restore_classifier, restore_icp

#: Version stamped into every manifest; bumped on layout changes.
ARTIFACT_SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: Filename of a fleet manifest: one JSON file naming several artifact
#: directories for multi-model serving (``python -m repro serve --fleet``).
FLEET_MANIFEST_NAME = "fleet.json"


def _current_umask() -> int:
    """The process umask, read non-destructively (set-and-restore)."""
    mask = os.umask(0)
    os.umask(mask)
    return mask

#: Component name used for the single fused classifier of early fusion.
_JOINT = "joint"


class ArtifactError(RuntimeError):
    """Raised when an artifact directory is missing, corrupt or unsupported."""


def _model_components(
    model: ConformalFusionModel,
) -> Tuple[str, Dict[str, Any], Dict[str, Any]]:
    """Return ``(kind, classifiers, icps)`` keyed by component name."""
    if isinstance(model, SingleModalityModel):
        return (
            "single",
            {model.modality: model._classifier},
            {model.modality: model._icp},
        )
    if isinstance(model, EarlyFusionModel):
        return "early_fusion", {_JOINT: model._classifier}, {_JOINT: model._icp}
    if isinstance(model, LateFusionModel):
        return "late_fusion", dict(model._classifiers), dict(model._icps)
    raise ArtifactError(f"cannot persist fusion model of type {type(model).__name__}")


def _fingerprint(manifest_core: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the manifest core and every array's bytes, order-independent."""
    digest = hashlib.sha256()
    digest.update(json.dumps(manifest_core, sort_keys=True).encode("utf-8"))
    for key in sorted(arrays):
        digest.update(key.encode("utf-8"))
        value = np.ascontiguousarray(arrays[key])
        digest.update(str(value.dtype).encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.tobytes())
    return digest.hexdigest()


def save_detector(
    model: Union[ConformalFusionModel, NOODLE],
    path: Union[str, Path],
    extra: Optional[Dict[str, Any]] = None,
    noodle_report: Optional[Dict[str, Any]] = None,
) -> Path:
    """Persist a fitted detector to the artifact directory ``path``.

    Accepts either a fitted fusion model or a fitted :class:`NOODLE`
    instance; for the latter the *winning* fusion model is stored and the
    winner-selection report is recorded in the manifest.  ``extra`` entries
    are merged into the manifest under ``"extra"`` (must be
    JSON-serialisable).  ``noodle_report`` carries a previously-persisted
    winner-selection report forward when re-saving a bare fusion model
    (e.g. after recalibration); it is ignored when a :class:`NOODLE`
    instance supplies the authoritative report.

    Returns the artifact directory path.  Raises :class:`ArtifactError` if
    the model is not fitted.
    """
    manifest: Dict[str, Any] = {}
    if isinstance(model, NOODLE):
        report = model.report  # raises if unfitted
        manifest["noodle_report"] = {
            "winner": report.winner,
            "validation_scores": report.validation_scores,
            "strategies": report.strategies,
            "amplified_training_size": report.amplified_training_size,
            "original_training_size": report.original_training_size,
        }
        model = model.model
    elif noodle_report is not None:
        manifest["noodle_report"] = dict(noodle_report)
    if not getattr(model, "_fitted", False):
        raise ArtifactError("cannot persist an unfitted detector; call fit() first")

    kind, classifiers, icps = _model_components(model)
    arrays: Dict[str, np.ndarray] = {}
    n_features: Dict[str, int] = {}
    for name, classifier in classifiers.items():
        arrays.update(classifier_state_dict(classifier, prefix=f"classifiers/{name}/"))
        n_features[name] = classifier.n_features
    for name, icp in icps.items():
        arrays.update(icp_state_dict(icp, prefix=f"icps/{name}/"))

    manifest_core: Dict[str, Any] = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "kind": kind,
        "strategy": model.strategy,
        "modality": getattr(model, "modality", None),
        "config": model.config.to_dict(),
        "n_features": n_features,
    }
    manifest.update(manifest_core)
    manifest["fingerprint"] = _fingerprint(manifest_core, arrays)
    if extra:
        manifest["extra"] = dict(extra)

    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    # Concurrent readers (a serving registry's hot-reload probe, another
    # scan process) may open these files mid-save: stage each one in a
    # sibling temp file and os.replace() it into place.  Arrays land
    # before the manifest so a reader that sees the new manifest always
    # finds matching arrays.
    fd, tmp_name = tempfile.mkstemp(dir=path, prefix=ARRAYS_NAME + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **arrays)
        # mkstemp creates 0600; restore the umask-derived mode a direct
        # np.savez(path) would have produced.
        os.chmod(tmp_name, 0o666 & ~_current_umask())
        os.replace(tmp_name, path / ARRAYS_NAME)
    except BaseException:  # never leave a torn temp archive behind
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    manifest_path = path / MANIFEST_NAME
    tmp_manifest = manifest_path.with_name(f"{MANIFEST_NAME}.{os.getpid()}.tmp")
    tmp_manifest.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp_manifest, manifest_path)
    return path


def load_manifest(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and minimally validate an artifact's ``manifest.json``."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no artifact manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt artifact manifest at {manifest_path}: {exc}") from exc
    version = manifest.get("schema_version")
    if version != ARTIFACT_SCHEMA_VERSION:
        raise ArtifactError(
            f"unsupported artifact schema version {version!r} "
            f"(this build reads version {ARTIFACT_SCHEMA_VERSION})"
        )
    return manifest


def save_fleet_manifest(
    path: Union[str, Path],
    artifacts: Dict[str, Union[str, Path]],
    default: Optional[str] = None,
) -> Path:
    """Write a fleet manifest naming several artifacts for one service.

    ``artifacts`` maps model names to artifact directories (stored
    relative to the manifest when possible, so a fleet directory can be
    moved wholesale); ``default`` names the initial champion (first entry
    otherwise).  Returns the manifest path.
    """
    path = Path(path)
    if not artifacts:
        raise ArtifactError("a fleet manifest needs at least one artifact")
    if default is not None and default not in artifacts:
        raise ArtifactError(f"default model {default!r} is not in the fleet")
    base = path.resolve().parent
    entries: Dict[str, str] = {}
    for name, artifact in artifacts.items():
        if not isinstance(name, str) or not name:
            raise ArtifactError(f"fleet model names must be non-empty strings: {name!r}")
        resolved = Path(artifact).resolve()
        try:
            entries[name] = str(resolved.relative_to(base))
        except ValueError:
            entries[name] = str(resolved)
    payload = {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "artifacts": entries,
        "default": default or next(iter(artifacts)),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp_path, path)
    return path


def load_fleet_manifest(
    path: Union[str, Path],
) -> Tuple[Dict[str, Path], str]:
    """Read a fleet manifest into ``(name -> artifact_path, default_name)``.

    Relative artifact paths are resolved against the manifest's own
    directory.  Every named artifact directory must carry a readable
    detector manifest — a fleet pointing at a missing model should fail
    at startup, not on the first routed request.
    """
    path = Path(path)
    if not path.is_file():
        raise ArtifactError(f"no fleet manifest at {path}")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"corrupt fleet manifest at {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactError(f"fleet manifest at {path} must be a JSON object")
    raw = payload.get("artifacts")
    if not isinstance(raw, dict) or not raw:
        raise ArtifactError(
            f"fleet manifest at {path} needs a non-empty 'artifacts' object"
        )
    base = path.resolve().parent
    artifacts: Dict[str, Path] = {}
    for name, artifact in raw.items():
        if not isinstance(artifact, str):
            raise ArtifactError(f"fleet artifact path for {name!r} must be a string")
        resolved = Path(artifact)
        if not resolved.is_absolute():
            resolved = base / resolved
        load_manifest(resolved)  # fail fast on broken/missing members
        artifacts[name] = resolved
    default = payload.get("default") or next(iter(artifacts))
    if default not in artifacts:
        raise ArtifactError(
            f"fleet manifest default {default!r} is not among {sorted(artifacts)}"
        )
    return artifacts, default


def load_detector(
    path: Union[str, Path],
) -> Tuple[ConformalFusionModel, Dict[str, Any]]:
    """Reconstruct a fitted detector from :func:`save_detector` output.

    Returns ``(model, manifest)``.  The model's conformal predictors are
    restored from their persisted sorted-calibration caches, so its
    ``p_values`` output is bit-identical to the saved detector's (for the
    default non-smoothed predictors).  Raises :class:`ArtifactError` on a
    missing/corrupt artifact or an unknown detector kind.
    """
    path = Path(path)
    failpoint("artifact.load")
    manifest = load_manifest(path)
    arrays_path = path / ARRAYS_NAME
    if not arrays_path.is_file():
        raise ArtifactError(f"artifact is missing its array archive: {arrays_path}")
    with np.load(arrays_path) as archive:
        arrays = {key: archive[key] for key in archive.files}

    config = NoodleConfig.from_dict(manifest["config"])
    n_features: Dict[str, int] = manifest["n_features"]
    kind = manifest["kind"]

    def _classifier(name: str):
        return restore_classifier(
            int(n_features[name]), config.classifier, arrays, prefix=f"classifiers/{name}/"
        )

    def _icp(name: str):
        return restore_icp(arrays, prefix=f"icps/{name}/")

    model: ConformalFusionModel
    if kind == "single":
        modality = manifest["modality"]
        single = SingleModalityModel(modality, config)
        single._classifier = _classifier(modality)
        single._icp = _icp(modality)
        model = single
    elif kind == "early_fusion":
        early = EarlyFusionModel(config)
        early._classifier = _classifier(_JOINT)
        early._icp = _icp(_JOINT)
        model = early
    elif kind == "late_fusion":
        late = LateFusionModel(config)
        late._classifiers = {m: _classifier(m) for m in config.modalities}
        late._icps = {m: _icp(m) for m in config.modalities}
        model = late
    else:
        raise ArtifactError(f"unknown detector kind {kind!r} in {path}")
    model._fitted = True
    return model, manifest
