#!/usr/bin/env python3
"""Quickstart: detect hardware Trojans in RTL designs with NOODLE.

This example walks through the full pipeline on a small synthetic benchmark
suite:

1. generate a Trust-Hub-style population of Trojan-free and Trojan-infected
   Verilog designs;
2. extract the two modalities (data-flow graph features and code-branching
   tabular features);
3. train NOODLE (both fusion strategies, winner chosen by Brier score);
4. classify held-out designs and print the risk-aware decision for each.

Run with:  python examples/quickstart.py

Set ``REPRO_SMOKE=1`` for a miniature configuration (used by the CI docs
job to smoke-test the example in seconds).
"""

from __future__ import annotations

import os

import numpy as np

from repro import NOODLE, SuiteConfig, TrojanDataset, default_config, extract_modalities
from repro.gan import AmplificationConfig, GANConfig
from repro.metrics import brier_score, roc_auc

#: Miniature sizes for CI smoke runs (REPRO_SMOKE=1).
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")


def main() -> None:
    rng = np.random.default_rng(42)

    # 1. Synthesize a small, imbalanced benchmark population (like Trust-Hub:
    #    many clean design revisions, fewer Trojan-infected ones).
    print("== Generating benchmark suite ==")
    dataset = TrojanDataset.generate(
        SuiteConfig(n_trojan_free=12 if SMOKE else 32, n_trojan_infected=6 if SMOKE else 16, seed=7)
    )
    summary = dataset.summary()
    print(
        f"{summary['total']} designs "
        f"({summary['trojan_free']} Trojan-free, {summary['trojan_infected']} Trojan-infected, "
        f"imbalance {dataset.imbalance_ratio:.1f}:1)"
    )

    # 2. Extract both modalities for every design.
    print("\n== Extracting modalities ==")
    features = extract_modalities(dataset)
    print(
        f"tabular features: {features.tabular.shape[1]}, "
        f"graph features: {features.graph.shape[1]}"
    )

    # 3. Hold out a test set of real designs, then train NOODLE with GAN
    #    amplification enabled (the paper's answer to the small-data problem).
    train, test = features.stratified_split(test_fraction=0.25, rng=rng)
    config = default_config(seed=1)
    config.amplify = True
    if SMOKE:
        config.classifier.epochs = 10
        config.amplification = AmplificationConfig(target_total=60, gan=GANConfig(epochs=40))
    else:
        config.amplification = AmplificationConfig(target_total=300, gan=GANConfig(epochs=250))

    print("\n== Training NOODLE (early + late fusion, winner by Brier score) ==")
    detector = NOODLE(config)
    report = detector.fit(train)
    for line in report.summary_lines():
        print(line)

    # 4. Risk-aware decisions on the held-out designs.
    print("\n== Decisions on held-out designs ==")
    decisions = detector.decide(test)
    header = f"{'design':<16} {'verdict':<32} {'P(infected)':>12} {'credibility':>12} {'truth':>8}"
    print(header)
    print("-" * len(header))
    for decision in decisions:
        truth = "TI" if decision.true_label == 1 else "TF"
        print(
            f"{decision.name:<16} {decision.verdict:<32} "
            f"{decision.probability_infected:>12.3f} {decision.credibility:>12.3f} {truth:>8}"
        )

    probabilities = detector.predict_proba(test)[:, 1]
    print("\n== Test-set summary ==")
    print(f"Brier score : {brier_score(probabilities, test.labels):.4f}")
    print(f"ROC-AUC     : {roc_auc(probabilities, test.labels):.4f}")
    correct = np.mean(detector.predict(test) == test.labels)
    print(f"accuracy    : {correct:.3f}")


if __name__ == "__main__":
    main()
