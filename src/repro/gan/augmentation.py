"""Class-conditional dataset amplification with GANs.

The paper's recipe (Section III): separate the Trojan-free and
Trojan-infected samples, train a GAN on each, and generate enough synthetic
samples of each label to reach a target dataset size (500 points), thereby
fixing both the *small data* and the *class imbalance* problems at once.

:func:`amplify_multimodal` applies this jointly to both modalities so that a
synthetic design contributes a (graph, tabular) pair — the per-class GANs for
the two modalities are driven by the same sample budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

import numpy as np

from ..features.pipeline import MultimodalFeatures
from .gan import GANConfig, TabularGAN


@dataclass
class AmplificationConfig:
    """How far to amplify and how to train the per-class GANs."""

    target_total: int = 500
    balance_classes: bool = True
    gan: GANConfig = None  # type: ignore[assignment]
    seed: int = 0

    def __post_init__(self) -> None:
        if self.gan is None:
            self.gan = GANConfig(seed=self.seed)

    def validate(self) -> None:
        if self.target_total <= 0:
            raise ValueError("target_total must be positive")

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the engine artifact manifest)."""
        return {
            "target_total": self.target_total,
            "balance_classes": self.balance_classes,
            "gan": self.gan.to_dict(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AmplificationConfig":
        data = dict(data)
        gan = data.pop("gan", None)
        return cls(gan=GANConfig.from_dict(gan) if gan is not None else None, **data)


def _per_class_targets(
    labels: np.ndarray, target_total: int, balance: bool
) -> Dict[int, int]:
    """How many *synthetic* samples each class needs to reach the target."""
    classes, counts = np.unique(labels, return_counts=True)
    existing = dict(zip(classes.tolist(), counts.tolist()))
    targets: Dict[int, int] = {}
    if balance:
        per_class_total = target_total // len(classes)
        for cls in classes.tolist():
            targets[cls] = max(0, per_class_total - existing[cls])
    else:
        total_existing = int(counts.sum())
        extra = max(0, target_total - total_existing)
        for cls in classes.tolist():
            share = existing[cls] / total_existing
            targets[cls] = int(round(extra * share))
    return targets


def amplify_features(
    x: np.ndarray,
    labels: np.ndarray,
    config: Optional[AmplificationConfig] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Amplify a single feature matrix with per-class GANs.

    Returns ``(x_augmented, labels_augmented, is_synthetic)`` where the
    original samples come first and ``is_synthetic`` marks generated rows.
    """
    config = config or AmplificationConfig()
    config.validate()
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if x.shape[0] != labels.shape[0]:
        raise ValueError("x and labels must have the same number of samples")
    targets = _per_class_targets(labels, config.target_total, config.balance_classes)

    synthetic_rows = [x]
    synthetic_labels = [labels]
    synthetic_flags = [np.zeros(len(labels), dtype=bool)]
    for cls, n_needed in sorted(targets.items()):
        if n_needed <= 0:
            continue
        members = x[labels == cls]
        gan = TabularGAN(
            n_features=x.shape[1],
            config=replace(config.gan, seed=config.gan.seed + cls + 1),
        )
        gan.fit(members)
        generated = gan.sample(n_needed)
        synthetic_rows.append(generated)
        synthetic_labels.append(np.full(n_needed, cls, dtype=int))
        synthetic_flags.append(np.ones(n_needed, dtype=bool))
    return (
        np.vstack(synthetic_rows),
        np.concatenate(synthetic_labels),
        np.concatenate(synthetic_flags),
    )


def amplify_multimodal(
    features: MultimodalFeatures,
    config: Optional[AmplificationConfig] = None,
) -> MultimodalFeatures:
    """Amplify both modalities of a multimodal dataset jointly.

    For every class, one GAN is trained on the *concatenation* of the graph
    and tabular features so each synthetic design receives a coherent pair
    of modalities, which is what fusion later consumes.  Synthetic designs
    follow the real ones and are named ``GAN-synth<i>``.
    """
    config = config or AmplificationConfig()
    config.validate()
    n_graph = features.graph.shape[1]
    joint = np.hstack([features.graph, features.tabular])
    joint_aug, labels_aug, is_synthetic = amplify_features(joint, features.labels, config)

    graph_aug = joint_aug[:, :n_graph]
    tabular_aug = joint_aug[:, n_graph:]
    n_new = int(is_synthetic.sum())
    synthetic_names = [f"GAN-synth{i:04d}" for i in range(n_new)]

    return MultimodalFeatures(
        tabular=tabular_aug,
        graph=graph_aug,
        labels=labels_aug,
        names=list(features.names) + synthetic_names,
        tabular_feature_names=features.tabular_feature_names,
        graph_feature_names=features.graph_feature_names,
    )
