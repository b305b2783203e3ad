"""Fusion strategies: single modality, early fusion and late fusion.

All three share the same conformal backbone (train CNN -> calibrate Mondrian
ICP -> p-values -> normalised probabilities); they differ only in *where*
information from the modalities is combined:

* :class:`SingleModalityModel` — no fusion; the reference rows of Table I.
* :class:`EarlyFusionModel` — feature-level fusion: modality feature vectors
  are concatenated before the (single) CNN classifier.
* :class:`LateFusionModel` — decision-level fusion: one CNN + ICP per
  modality, per-class p-values combined with a p-value combination test
  statistic (Algorithm 1).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..conformal import (
    InductiveConformalClassifier,
    combine_p_value_matrices,
    forced_predictions,
    p_values_to_probabilities,
    prediction_regions,
)
from ..conformal.regions import PredictionRegion
from ..features.pipeline import MultimodalFeatures
from .classifiers import CNNModalityClassifier
from .config import NoodleConfig


def _stratified_calibration_split(
    labels: np.ndarray, calibration_fraction: float, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices of (proper-training, calibration) with per-class proportions."""
    train_idx: List[int] = []
    calibration_idx: List[int] = []
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        rng.shuffle(members)
        n_cal = max(1, int(round(len(members) * calibration_fraction)))
        if n_cal >= len(members):
            n_cal = max(len(members) - 1, 1)
        calibration_idx.extend(int(i) for i in members[:n_cal])
        train_idx.extend(int(i) for i in members[n_cal:])
    return np.asarray(sorted(train_idx)), np.asarray(sorted(calibration_idx))


class ConformalFusionModel:
    """Shared backbone: CNN classifier(s) + Mondrian ICP + p-value outputs."""

    #: Human-readable strategy name, overridden by subclasses.
    strategy = "abstract"

    def __init__(self, config: Optional[NoodleConfig] = None) -> None:
        self.config = config or NoodleConfig()
        self.config.validate()
        self._fitted = False
        self._backend = "numpy"

    # -- hooks implemented by subclasses ------------------------------------
    def _fit_models(
        self,
        features: MultimodalFeatures,
        train_idx: np.ndarray,
        calibration_idx: np.ndarray,
    ) -> None:
        raise NotImplementedError

    def _test_p_values(self, features: MultimodalFeatures) -> np.ndarray:
        raise NotImplementedError

    # -- common API ----------------------------------------------------------
    def fit(self, features: MultimodalFeatures) -> "ConformalFusionModel":
        """Train classifier(s) and calibrate conformal predictor(s)."""
        labels = features.labels
        if len(np.unique(labels)) < 2:
            raise ValueError("training data must contain both classes")
        rng = np.random.default_rng(self.config.seed)
        train_idx, calibration_idx = _stratified_calibration_split(
            labels, self.config.calibration_fraction, rng
        )
        self._fit_models(features, train_idx, calibration_idx)
        self._fitted = True
        if self.backend != "numpy":
            # _fit_models rebuilds the classifiers; re-apply the selection.
            self.set_backend(self._backend)
        return self

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} must be fitted before prediction")

    # -- compute backend ------------------------------------------------------
    def _cnn_classifiers(self) -> List[CNNModalityClassifier]:
        """The underlying CNN classifier(s) a backend selection applies to."""
        mapping = getattr(self, "_classifiers", None)
        if mapping:
            return list(mapping.values())
        classifier = getattr(self, "_classifier", None)
        return [] if classifier is None else [classifier]

    @property
    def backend(self) -> str:
        """Name of the inference backend applied to the classifier(s)."""
        return getattr(self, "_backend", "numpy")

    def set_backend(self, name: str) -> "ConformalFusionModel":
        """Select the compute backend for every underlying CNN classifier.

        Raises ``ValueError`` for unknown backend names.
        """
        from ..nn.backend import get_backend

        get_backend(name)  # validate before touching any classifier
        self._backend = name
        for classifier in self._cnn_classifiers():
            classifier.set_backend(name)
        return self

    def p_values(self, features: MultimodalFeatures) -> np.ndarray:
        """Conformal p-value matrix ``(N, 2)`` for TF (col 0) and TI (col 1)."""
        self._require_fitted()
        return self._test_p_values(features)

    def predict_proba(self, features: MultimodalFeatures) -> np.ndarray:
        """Normalised p-values as a pseudo-probability matrix ``(N, 2)``."""
        return p_values_to_probabilities(self.p_values(features))

    def predict(self, features: MultimodalFeatures) -> np.ndarray:
        """Forced point predictions (label with the largest p-value)."""
        return forced_predictions(self.p_values(features))

    def prediction_regions(
        self, features: MultimodalFeatures, confidence: Optional[float] = None
    ) -> List[PredictionRegion]:
        """Conformal prediction regions at the configured confidence level."""
        level = confidence if confidence is not None else self.config.confidence_level
        return prediction_regions(self.p_values(features), confidence=level)


class SingleModalityModel(ConformalFusionModel):
    """One modality, one CNN, one conformal predictor (no fusion)."""

    strategy = "single"

    def __init__(self, modality: str, config: Optional[NoodleConfig] = None) -> None:
        super().__init__(config)
        self.modality = modality
        self.strategy = f"single[{modality}]"
        self._classifier: Optional[CNNModalityClassifier] = None
        self._icp: Optional[InductiveConformalClassifier] = None

    def _fit_models(
        self,
        features: MultimodalFeatures,
        train_idx: np.ndarray,
        calibration_idx: np.ndarray,
    ) -> None:
        x = features.modality(self.modality)
        y = features.labels
        self._classifier = CNNModalityClassifier(x.shape[1], self.config.classifier)
        self._classifier.fit(x[train_idx], y[train_idx])
        self._icp = InductiveConformalClassifier(
            nonconformity=self.config.nonconformity,
            mondrian=self.config.mondrian,
            rng=np.random.default_rng(self.config.seed + 17),
        ).calibrate(self._classifier.predict_proba(x[calibration_idx]), y[calibration_idx])

    def _test_p_values(self, features: MultimodalFeatures) -> np.ndarray:
        assert self._classifier is not None and self._icp is not None
        x = features.modality(self.modality)
        return self._icp.p_values(self._classifier.predict_proba(x))

    def classifier_proba(self, features: MultimodalFeatures) -> np.ndarray:
        """Raw CNN probabilities (before conformal calibration)."""
        self._require_fitted()
        assert self._classifier is not None
        return self._classifier.predict_proba(features.modality(self.modality))


class EarlyFusionModel(ConformalFusionModel):
    """Feature-level fusion: concatenated modalities -> single CNN -> ICP."""

    strategy = "early_fusion"

    def __init__(self, config: Optional[NoodleConfig] = None) -> None:
        super().__init__(config)
        self._classifier: Optional[CNNModalityClassifier] = None
        self._icp: Optional[InductiveConformalClassifier] = None

    def _joint_features(self, features: MultimodalFeatures) -> np.ndarray:
        return np.hstack([features.modality(name) for name in self.config.modalities])

    def _fit_models(
        self,
        features: MultimodalFeatures,
        train_idx: np.ndarray,
        calibration_idx: np.ndarray,
    ) -> None:
        x = self._joint_features(features)
        y = features.labels
        self._classifier = CNNModalityClassifier(x.shape[1], self.config.classifier)
        self._classifier.fit(x[train_idx], y[train_idx])
        self._icp = InductiveConformalClassifier(
            nonconformity=self.config.nonconformity,
            mondrian=self.config.mondrian,
            rng=np.random.default_rng(self.config.seed + 17),
        ).calibrate(self._classifier.predict_proba(x[calibration_idx]), y[calibration_idx])

    def _test_p_values(self, features: MultimodalFeatures) -> np.ndarray:
        assert self._classifier is not None and self._icp is not None
        x = self._joint_features(features)
        return self._icp.p_values(self._classifier.predict_proba(x))

    def classifier_proba(self, features: MultimodalFeatures) -> np.ndarray:
        """Raw CNN probabilities on the fused feature vector."""
        self._require_fitted()
        assert self._classifier is not None
        return self._classifier.predict_proba(self._joint_features(features))


class LateFusionModel(ConformalFusionModel):
    """Decision-level fusion: per-modality ICP p-values combined per class."""

    strategy = "late_fusion"

    def __init__(self, config: Optional[NoodleConfig] = None) -> None:
        super().__init__(config)
        self._classifiers: Dict[str, CNNModalityClassifier] = {}
        self._icps: Dict[str, InductiveConformalClassifier] = {}

    def _fit_models(
        self,
        features: MultimodalFeatures,
        train_idx: np.ndarray,
        calibration_idx: np.ndarray,
    ) -> None:
        y = features.labels
        self._classifiers = {}
        self._icps = {}
        for offset, modality in enumerate(self.config.modalities):
            x = features.modality(modality)
            classifier = CNNModalityClassifier(x.shape[1], self.config.classifier)
            classifier.fit(x[train_idx], y[train_idx])
            icp = InductiveConformalClassifier(
                nonconformity=self.config.nonconformity,
                mondrian=self.config.mondrian,
                rng=np.random.default_rng(self.config.seed + 17 + offset),
            ).calibrate(classifier.predict_proba(x[calibration_idx]), y[calibration_idx])
            self._classifiers[modality] = classifier
            self._icps[modality] = icp

    def per_modality_p_values(self, features: MultimodalFeatures) -> Dict[str, np.ndarray]:
        """The un-fused ``(N, 2)`` p-value matrix of every modality."""
        self._require_fitted()
        matrices: Dict[str, np.ndarray] = {}
        for modality in self.config.modalities:
            x = features.modality(modality)
            probabilities = self._classifiers[modality].predict_proba(x)
            matrices[modality] = self._icps[modality].p_values(probabilities)
        return matrices

    def _test_p_values(self, features: MultimodalFeatures) -> np.ndarray:
        matrices = self.per_modality_p_values(features)
        ordered = [matrices[m] for m in self.config.modalities]
        return combine_p_value_matrices(ordered, method=self.config.combination_method)

    def classifier_proba(self, features: MultimodalFeatures) -> np.ndarray:
        """Average of the per-modality CNN probabilities (non-conformal fusion)."""
        self._require_fitted()
        stacked = [
            self._classifiers[m].predict_proba(features.modality(m))
            for m in self.config.modalities
        ]
        return np.mean(stacked, axis=0)


def build_fusion_model(
    strategy: str, config: Optional[NoodleConfig] = None, modality: Optional[str] = None
) -> ConformalFusionModel:
    """Factory: ``'early'``, ``'late'`` or ``'single'`` (with ``modality``)."""
    if strategy == "early":
        return EarlyFusionModel(config)
    if strategy == "late":
        return LateFusionModel(config)
    if strategy == "single":
        if modality is None:
            raise ValueError("single-modality strategy requires a modality name")
        return SingleModalityModel(modality, config)
    raise ValueError(f"unknown fusion strategy {strategy!r}")
