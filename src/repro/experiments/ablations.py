"""Ablation experiments for the design choices called out in DESIGN.md.

A1 — p-value combination method: Algorithm 1 needs a combination test
     statistic; the paper leaves the choice open (citing the comparative
     study of Balasubramanian et al.).  This ablation sweeps the available
     combiners on the late-fusion model.
A2 — GAN amplification: the paper argues amplification to ~500 points fixes
     the small-data / imbalance problem.  This ablation compares training on
     the raw (small, imbalanced) data against GAN-amplified data of several
     target sizes, always evaluating on the same real held-out designs.
A3 — missing-modality imputation: drop one modality for a fraction of the
     samples and compare GAN imputation against zero-filling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..conformal import available_combiners
from ..core import LateFusionModel, evaluate_fusion_model
from ..features.pipeline import MODALITY_TABULAR, MultimodalFeatures
from ..gan import AmplificationConfig, impute_missing_modalities
from ..gan.augmentation import amplify_multimodal
from ..metrics.brier import brier_score
from ..metrics.report import format_table
from ..metrics.roc import roc_auc
from .common import ExperimentConfig, prepare_experiment_data


# ---------------------------------------------------------------------------
# A1: p-value combination methods
# ---------------------------------------------------------------------------


@dataclass
class CombinationAblationResult:
    """Brier/AUC of late fusion for every p-value combination method."""

    scores: Dict[str, Dict[str, float]]

    def format(self) -> str:
        rows = [
            {"method": method, **metrics} for method, metrics in sorted(self.scores.items())
        ]
        return format_table(
            rows,
            columns=["method", "brier", "auc", "coverage", "uncertain_fraction"],
            title="Ablation A1: p-value combination method (late fusion)",
        )

    def best_method(self) -> str:
        return min(self.scores, key=lambda m: self.scores[m]["brier"])


def run_combination_ablation(
    config: Optional[ExperimentConfig] = None, methods: Optional[List[str]] = None
) -> CombinationAblationResult:
    """Sweep p-value combination methods on the late-fusion strategy."""
    config = config or ExperimentConfig()
    config.validate()
    methods = methods or available_combiners()
    _, amplified = prepare_experiment_data(config)
    rng = np.random.default_rng(config.seed)
    train, test = amplified.stratified_split(config.test_fraction, rng)
    scores: Dict[str, Dict[str, float]] = {}
    for method in methods:
        noodle_config = replace(config.noodle, combination_method=method)
        model = LateFusionModel(noodle_config)
        model.fit(train)
        evaluation = evaluate_fusion_model(model, test)
        scores[method] = {
            "brier": evaluation.brier_score,
            "auc": evaluation.auc,
            "coverage": evaluation.coverage,
            "uncertain_fraction": evaluation.uncertain_fraction,
        }
    return CombinationAblationResult(scores=scores)


# ---------------------------------------------------------------------------
# A2: GAN amplification on/off and target-size sweep
# ---------------------------------------------------------------------------


@dataclass
class AmplificationAblationResult:
    """Effect of GAN amplification on late-fusion quality."""

    scores: Dict[str, Dict[str, float]]

    def format(self) -> str:
        rows = [{"setting": name, **metrics} for name, metrics in self.scores.items()]
        return format_table(
            rows,
            columns=["setting", "train_size", "brier", "auc"],
            title="Ablation A2: GAN amplification (late fusion, real test designs)",
        )

    @property
    def amplification_helps(self) -> bool:
        """True when the largest amplified setting beats the raw training data."""
        amplified = [v for k, v in self.scores.items() if k != "no_amplification"]
        if not amplified:
            return False
        best_amplified = min(v["brier"] for v in amplified)
        return best_amplified <= self.scores["no_amplification"]["brier"]


def run_amplification_ablation(
    config: Optional[ExperimentConfig] = None,
    target_sizes: Optional[List[int]] = None,
) -> AmplificationAblationResult:
    """Compare no amplification against several GAN amplification targets.

    Training always happens on (possibly amplified) training designs and
    evaluation on the *real* held-out designs, so the comparison isolates
    what the synthetic samples contribute.
    """
    config = config or ExperimentConfig()
    config.validate()
    target_sizes = target_sizes or [200, 500]
    real, _ = prepare_experiment_data(config)
    rng = np.random.default_rng(config.seed)
    train_real, test_real = real.stratified_split(0.25, rng)

    scores: Dict[str, Dict[str, float]] = {}

    def evaluate_on(train_features: MultimodalFeatures, setting: str) -> None:
        model = LateFusionModel(config.noodle)
        model.fit(train_features)
        probabilities = model.predict_proba(test_real)[:, 1]
        scores[setting] = {
            "train_size": float(len(train_features)),
            "brier": brier_score(probabilities, test_real.labels),
            "auc": roc_auc(probabilities, test_real.labels),
        }

    evaluate_on(train_real, "no_amplification")
    for target in target_sizes:
        amplification = AmplificationConfig(
            target_total=target, gan=config.amplification.gan
        )
        amplified_train = amplify_multimodal(train_real, amplification)
        evaluate_on(amplified_train, f"gan_to_{target}")
    return AmplificationAblationResult(scores=scores)


# ---------------------------------------------------------------------------
# A3: missing-modality imputation
# ---------------------------------------------------------------------------


@dataclass
class MissingModalityAblationResult:
    """Effect of GAN imputation vs zero-filling when a modality is missing."""

    scores: Dict[str, Dict[str, float]]
    missing_fraction: float

    def format(self) -> str:
        rows = [{"setting": name, **metrics} for name, metrics in self.scores.items()]
        return format_table(
            rows,
            columns=["setting", "brier", "auc"],
            title=(
                "Ablation A3: missing tabular modality for "
                f"{self.missing_fraction:.0%} of training samples (late fusion)"
            ),
        )

    @property
    def imputation_helps(self) -> bool:
        return self.scores["gan_imputation"]["brier"] <= self.scores["zero_fill"]["brier"]


def run_missing_modality_ablation(
    config: Optional[ExperimentConfig] = None, missing_fraction: float = 0.3
) -> MissingModalityAblationResult:
    """Drop the tabular modality for a fraction of training samples and
    compare GAN imputation against zero-filling (complete data included as
    the reference upper bound)."""
    config = config or ExperimentConfig()
    config.validate()
    if not 0.0 < missing_fraction < 1.0:
        raise ValueError("missing_fraction must be in (0, 1)")
    _, amplified = prepare_experiment_data(config)
    rng = np.random.default_rng(config.seed)
    train, test = amplified.stratified_split(config.test_fraction, rng)
    damaged = train.with_missing_modality(
        MODALITY_TABULAR, missing_fraction, rng=np.random.default_rng(config.seed + 1)
    )

    scores: Dict[str, Dict[str, float]] = {}

    def evaluate_on(train_features: MultimodalFeatures, setting: str) -> None:
        model = LateFusionModel(config.noodle)
        model.fit(train_features)
        probabilities = model.predict_proba(test)[:, 1]
        scores[setting] = {
            "brier": brier_score(probabilities, test.labels),
            "auc": roc_auc(probabilities, test.labels),
        }

    evaluate_on(train, "complete_data")
    zero_filled = MultimodalFeatures(
        tabular=np.nan_to_num(damaged.tabular, nan=0.0),
        graph=np.nan_to_num(damaged.graph, nan=0.0),
        labels=damaged.labels,
        names=list(damaged.names),
        tabular_feature_names=damaged.tabular_feature_names,
        graph_feature_names=damaged.graph_feature_names,
    )
    evaluate_on(zero_filled, "zero_fill")
    evaluate_on(impute_missing_modalities(damaged), "gan_imputation")
    return MissingModalityAblationResult(scores=scores, missing_fraction=missing_fraction)
