"""Tests for the NOODLE core: configs, CNN classifiers, fusion models, pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    NOODLE,
    ClassifierConfig,
    CNNModalityClassifier,
    EarlyFusionModel,
    LateFusionModel,
    NoodleConfig,
    SingleModalityModel,
    build_fusion_model,
    default_config,
    evaluate_fusion_model,
)
from repro.features import MultimodalFeatures
from repro.gan import AmplificationConfig, GANConfig


def _fast_config(seed: int = 0, **overrides) -> NoodleConfig:
    config = default_config(seed=seed, **overrides)
    config.classifier.epochs = 12
    config.amplification = AmplificationConfig(target_total=60, gan=GANConfig(epochs=40))
    return config


@pytest.fixture(scope="module")
def synthetic_multimodal() -> MultimodalFeatures:
    """A synthetic multimodal dataset with informative, partially redundant
    modalities — cheap to build and separable but not trivially so."""
    rng = np.random.default_rng(9)
    n = 160
    labels = (rng.random(n) < 0.5).astype(int)
    signal = labels[:, None].astype(float)
    graph = 1.2 * signal + rng.normal(size=(n, 10)) * 0.9
    tabular = 0.9 * signal + rng.normal(size=(n, 8)) * 1.1
    return MultimodalFeatures(
        tabular=tabular,
        graph=graph,
        labels=labels,
        names=[f"d{i}" for i in range(n)],
        tabular_feature_names=[f"t{i}" for i in range(8)],
        graph_feature_names=[f"g{i}" for i in range(10)],
    )


class TestConfigs:
    def test_default_config_valid(self) -> None:
        default_config().validate()

    def test_seed_override(self) -> None:
        config = default_config(seed=7)
        assert config.seed == 7 and config.classifier.seed == 7

    def test_invalid_configs_rejected(self) -> None:
        with pytest.raises(ValueError):
            NoodleConfig(modalities=()).validate()
        with pytest.raises(ValueError):
            NoodleConfig(modalities=("graph", "graph")).validate()
        with pytest.raises(ValueError):
            NoodleConfig(confidence_level=1.2).validate()
        with pytest.raises(ValueError):
            NoodleConfig(calibration_fraction=0.7, validation_fraction=0.3).validate()
        with pytest.raises(ValueError):
            ClassifierConfig(channels=(4,)).validate()
        with pytest.raises(ValueError):
            ClassifierConfig(dropout=1.5).validate()


class TestCNNClassifiers:
    def test_learns_flat_features(self) -> None:
        rng = np.random.default_rng(0)
        x = rng.normal(size=(120, 20))
        y = (x[:, :5].sum(axis=1) > 0).astype(int)
        config = ClassifierConfig(epochs=40, seed=1)
        classifier = CNNModalityClassifier(20, config)
        classifier.fit(x, y)
        proba = classifier.predict_proba(x)
        assert proba.shape == (120, 2)
        assert np.mean(classifier.predict(x) == y) > 0.85

    def test_rejects_wrong_width(self) -> None:
        classifier = CNNModalityClassifier(10, ClassifierConfig(epochs=2))
        with pytest.raises(ValueError):
            classifier.fit(np.ones((5, 8)), np.zeros(5))
        with pytest.raises(ValueError):
            CNNModalityClassifier(0)


class TestFusionModels:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda cfg: SingleModalityModel("graph", cfg),
            lambda cfg: SingleModalityModel("tabular", cfg),
            EarlyFusionModel,
            LateFusionModel,
        ],
    )
    def test_fit_predict_cycle(self, factory, synthetic_multimodal) -> None:
        config = _fast_config()
        model = factory(config)
        train, test = synthetic_multimodal.stratified_split(0.25, np.random.default_rng(0))
        model.fit(train)
        p_values = model.p_values(test)
        assert p_values.shape == (len(test), 2)
        assert np.all(p_values >= 0) and np.all(p_values <= 1)
        proba = model.predict_proba(test)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        predictions = model.predict(test)
        assert np.mean(predictions == test.labels) > 0.6
        regions = model.prediction_regions(test)
        assert len(regions) == len(test)

    def test_unfitted_model_raises(self, synthetic_multimodal) -> None:
        model = LateFusionModel(_fast_config())
        with pytest.raises(RuntimeError):
            model.p_values(synthetic_multimodal)

    def test_single_class_training_rejected(self, synthetic_multimodal) -> None:
        only_clean = synthetic_multimodal.subset(
            np.flatnonzero(synthetic_multimodal.labels == 0)
        )
        with pytest.raises(ValueError):
            LateFusionModel(_fast_config()).fit(only_clean)

    def test_late_fusion_per_modality_p_values(self, synthetic_multimodal) -> None:
        config = _fast_config()
        train, test = synthetic_multimodal.stratified_split(0.25, np.random.default_rng(1))
        model = LateFusionModel(config)
        model.fit(train)
        per_modality = model.per_modality_p_values(test)
        assert set(per_modality) == {"graph", "tabular"}
        for matrix in per_modality.values():
            assert matrix.shape == (len(test), 2)

    def test_build_fusion_model_factory(self) -> None:
        config = _fast_config()
        assert isinstance(build_fusion_model("early", config), EarlyFusionModel)
        assert isinstance(build_fusion_model("late", config), LateFusionModel)
        single = build_fusion_model("single", config, modality="graph")
        assert isinstance(single, SingleModalityModel)
        with pytest.raises(ValueError):
            build_fusion_model("single", config)
        with pytest.raises(ValueError):
            build_fusion_model("middle", config)

    def test_evaluate_fusion_model_metrics(self, synthetic_multimodal) -> None:
        config = _fast_config()
        train, test = synthetic_multimodal.stratified_split(0.25, np.random.default_rng(2))
        model = EarlyFusionModel(config)
        model.fit(train)
        evaluation = evaluate_fusion_model(model, test)
        assert 0.0 <= evaluation.brier_score <= 1.0
        assert 0.0 <= evaluation.auc <= 1.0
        assert 0.0 <= evaluation.coverage <= 1.0
        assert evaluation.strategy == "early_fusion"
        assert "brier_score" in evaluation.as_dict()


class TestNOODLEPipeline:
    def test_fit_selects_winner_and_reports(self, synthetic_multimodal) -> None:
        config = _fast_config()
        train, test = synthetic_multimodal.stratified_split(0.25, np.random.default_rng(3))
        detector = NOODLE(config)
        report = detector.fit(train)
        assert report.winner in ("early_fusion", "late_fusion")
        assert set(report.validation_scores) == {"early_fusion", "late_fusion"}
        assert report.original_training_size == len(train)
        assert any("winner" in line for line in report.summary_lines())
        evaluation = detector.evaluate(test)
        assert evaluation.auc > 0.6

    def test_decisions_are_risk_aware(self, synthetic_multimodal) -> None:
        config = _fast_config()
        train, test = synthetic_multimodal.stratified_split(0.25, np.random.default_rng(4))
        detector = NOODLE(config)
        detector.fit(train)
        decisions = detector.decide(test)
        assert len(decisions) == len(test)
        for decision in decisions:
            assert decision.predicted_label in (0, 1)
            assert 0.0 <= decision.probability_infected <= 1.0
            assert 0.0 <= decision.credibility <= 1.0
            assert decision.verdict
            assert decision.true_label in (0, 1)
        # The conformal machinery should produce at least a few singleton calls.
        assert any(not d.is_uncertain and not d.is_empty for d in decisions)

    def test_amplification_path(self, synthetic_multimodal) -> None:
        config = _fast_config()
        config.amplify = True
        train, _ = synthetic_multimodal.stratified_split(0.3, np.random.default_rng(5))
        detector = NOODLE(config)
        report = detector.fit(train)
        assert report.amplified_training_size >= report.original_training_size

    def test_missing_modality_path(self, synthetic_multimodal) -> None:
        config = _fast_config()
        train, test = synthetic_multimodal.stratified_split(0.3, np.random.default_rng(6))
        damaged = train.with_missing_modality("tabular", 0.2, rng=np.random.default_rng(0))
        detector = NOODLE(config)
        detector.fit(damaged)
        assert detector.predict(test).shape == (len(test),)

    def test_unfitted_access_raises(self) -> None:
        detector = NOODLE(_fast_config())
        with pytest.raises(RuntimeError):
            _ = detector.report
        with pytest.raises(RuntimeError):
            _ = detector.model

    def test_candidate_access(self, synthetic_multimodal) -> None:
        config = _fast_config()
        train, _ = synthetic_multimodal.stratified_split(0.3, np.random.default_rng(7))
        detector = NOODLE(config)
        detector.fit(train)
        assert detector.candidate("early_fusion").strategy == "early_fusion"
        with pytest.raises(KeyError):
            detector.candidate("mid_fusion")
