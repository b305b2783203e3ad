#!/usr/bin/env python3
"""Missing-modality handling: GAN imputation versus naive fallbacks.

Scenario: part of the design corpus arrives without one modality — e.g. a
vendor ships an obfuscated netlist from which only the data-flow graph can
be recovered, so the source-level code-branching (tabular) features are
missing.  The paper handles this with generative imputation; this example
quantifies what that buys compared to zero-filling or simply dropping the
incomplete designs.

Run with:  python examples/missing_modality_demo.py
"""

from __future__ import annotations

import numpy as np

from repro import LateFusionModel, SuiteConfig, TrojanDataset, default_config, extract_modalities
from repro.features import MultimodalFeatures
from repro.features.pipeline import MODALITY_TABULAR
from repro.gan import (
    AmplificationConfig,
    GANConfig,
    amplify_multimodal,
    impute_missing_modalities,
)
from repro.metrics import brier_score, format_table, roc_auc


def evaluate(train: MultimodalFeatures, test: MultimodalFeatures, seed: int) -> dict:
    config = default_config(seed=seed)
    model = LateFusionModel(config)
    model.fit(train)
    probabilities = model.predict_proba(test)[:, 1]
    return {
        "train_size": len(train),
        "brier": brier_score(probabilities, test.labels),
        "auc": roc_auc(probabilities, test.labels),
    }


def main() -> None:
    rng = np.random.default_rng(23)
    missing_fraction = 0.35

    print("== Preparing the corpus ==")
    dataset = TrojanDataset.generate(SuiteConfig(n_trojan_free=40, n_trojan_infected=20, seed=13))
    features = extract_modalities(dataset)
    amplified = amplify_multimodal(
        features, AmplificationConfig(target_total=300, gan=GANConfig(epochs=250, seed=4))
    )
    train, test = amplified.stratified_split(0.25, rng)
    print(f"training designs: {len(train)}, test designs: {len(test)}")

    print(
        f"\n== Simulating {missing_fraction:.0%} of training designs losing the "
        "tabular modality =="
    )
    damaged = train.with_missing_modality(
        MODALITY_TABULAR, missing_fraction, rng=np.random.default_rng(1)
    )
    n_missing = int(damaged.missing_mask(MODALITY_TABULAR).sum())
    print(f"designs with a missing tabular modality: {n_missing}")

    # Strategy 1: complete data (upper bound — only available in hindsight).
    results = {"complete_data (upper bound)": evaluate(train, test, seed=3)}

    # Strategy 2: drop incomplete designs entirely.
    keep = ~damaged.missing_mask(MODALITY_TABULAR)
    dropped = damaged.subset(np.flatnonzero(keep))
    results["drop_incomplete_designs"] = evaluate(dropped, test, seed=3)

    # Strategy 3: zero-fill the missing modality.
    zero_filled = MultimodalFeatures(
        tabular=np.nan_to_num(damaged.tabular, nan=0.0),
        graph=damaged.graph.copy(),
        labels=damaged.labels,
        names=list(damaged.names),
        tabular_feature_names=damaged.tabular_feature_names,
        graph_feature_names=damaged.graph_feature_names,
    )
    results["zero_fill"] = evaluate(zero_filled, test, seed=3)

    # Strategy 4: GAN-based conditional imputation (the paper's approach).
    repaired = impute_missing_modalities(damaged)
    results["gan_imputation (NOODLE)"] = evaluate(repaired, test, seed=3)

    print("\n== Results ==")
    rows = [{"strategy": name, **metrics} for name, metrics in results.items()]
    print(
        format_table(
            rows,
            columns=["strategy", "train_size", "brier", "auc"],
            title=f"Late-fusion quality with {missing_fraction:.0%} missing tabular modality",
        )
    )
    print(
        "\nReading guide: dropping incomplete designs shrinks the already-small "
        "training set, zero-filling feeds the classifier fabricated feature values, "
        "and conditional imputation reconstructs the missing modality from the one "
        "that is present — which is why it tracks the complete-data upper bound most closely."
    )


if __name__ == "__main__":
    main()
