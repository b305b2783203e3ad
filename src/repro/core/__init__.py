"""The NOODLE framework: multimodal fusion with conformal uncertainty.

Public entry points:

* :class:`NoodleConfig` / :func:`default_config` — configuration;
* :class:`CNNModalityClassifier` — the per-modality CNN, one per modality
  over its flat feature row (tabular or graph);
* :class:`SingleModalityModel`, :class:`EarlyFusionModel`,
  :class:`LateFusionModel` — the fusion strategies of Table I;
* :class:`NOODLE` — Algorithm 2 end to end (fit both fusions, pick the
  winner by Brier score, emit risk-aware decisions).
"""

from .classifiers import CNNModalityClassifier
from .config import ClassifierConfig, NoodleConfig, default_config
from .fusion import (
    ConformalFusionModel,
    EarlyFusionModel,
    LateFusionModel,
    SingleModalityModel,
    build_fusion_model,
)
from .noodle import NOODLE, evaluate_fusion_model
from .results import FusionEvaluation, NoodleReport, ScanRecord, TrojanDecision

__all__ = [
    "CNNModalityClassifier",
    "ClassifierConfig",
    "ConformalFusionModel",
    "EarlyFusionModel",
    "FusionEvaluation",
    "LateFusionModel",
    "NOODLE",
    "NoodleConfig",
    "NoodleReport",
    "ScanRecord",
    "SingleModalityModel",
    "TrojanDecision",
    "build_fusion_model",
    "default_config",
    "evaluate_fusion_model",
]
