"""NOODLE reproduction: uncertainty-aware hardware Trojan detection using
multimodal deep learning (DATE 2024).

Quickstart
----------
>>> from repro import TrojanDataset, SuiteConfig, extract_modalities, NOODLE
>>> dataset = TrojanDataset.generate(SuiteConfig(n_trojan_free=20, n_trojan_infected=10))
>>> features = extract_modalities(dataset)
>>> train, test = features.stratified_split(0.25)
>>> detector = NOODLE()
>>> report = detector.fit(train)
>>> decisions = detector.decide(test)

Subpackages
-----------
``repro.nn``
    From-scratch numpy neural-network library (layers, losses, optimizers).
``repro.hdl``
    Verilog subset front-end (lexer, parser, AST, emitter).
``repro.trojan``
    Synthetic Trust-Hub-style benchmark generator and Trojan insertion.
``repro.features``
    Graph and tabular (Euclidean) modality extraction from RTL.
``repro.gan``
    GAN-based data amplification and missing-modality imputation.
``repro.conformal``
    (Mondrian) inductive conformal prediction and p-value combination.
``repro.core``
    The NOODLE pipeline: multimodal datasets, early/late fusion,
    uncertainty-aware fusion, winner selection.
``repro.baselines``
    Classical ML baselines (logistic regression, SVM, trees, forests,
    gradient boosting, MLP).
``repro.metrics``
    Brier score and decomposition, calibration, ROC-AUC, radar consolidation.
``repro.experiments``
    Runners that regenerate each table and figure of the paper.
``repro.engine``
    Scan engine: artifact persistence (train once, scan many times),
    batched content-cached scanning, and the ``python -m repro`` CLI
    with ``train`` / ``calibrate`` / ``scan`` / ``report`` /
    ``cache-info`` / ``cache-gc`` / ``serve``.
``repro.serve``
    Online scan service: long-lived micro-batching HTTP server with a
    hot model registry (``python -m repro serve``), client, and the
    request corpus its benchmark sends.
``repro.perf``
    Micro-benchmark timing harness behind the committed ``BENCH_*.json``.
"""

from .core import (
    NOODLE,
    EarlyFusionModel,
    LateFusionModel,
    NoodleConfig,
    SingleModalityModel,
    TrojanDecision,
    default_config,
)
from .features import MultimodalFeatures, extract_design_modalities, extract_modalities
from .trojan import Benchmark, SuiteConfig, TrojanDataset, insert_trojan

#: Single source of truth for the package version: surfaced by
#: ``python -m repro --version`` and the scan service's ``/healthz``.
__version__ = "1.1.0"

__all__ = [
    "Benchmark",
    "EarlyFusionModel",
    "LateFusionModel",
    "MultimodalFeatures",
    "NOODLE",
    "NoodleConfig",
    "SingleModalityModel",
    "SuiteConfig",
    "TrojanDataset",
    "TrojanDecision",
    "default_config",
    "extract_design_modalities",
    "extract_modalities",
    "insert_trojan",
    "__version__",
]
