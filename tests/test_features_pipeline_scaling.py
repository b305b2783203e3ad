"""Tests for the multimodal feature pipeline and the scalers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
from hypothesis import strategies as st

from repro.features import (
    GRAPH_FEATURE_NAMES,
    MODALITIES,
    MODALITY_GRAPH,
    MODALITY_TABULAR,
    TABULAR_FEATURE_NAMES,
    MinMaxScaler,
    MultimodalFeatures,
    StandardScaler,
    extract_design_modalities,
    extract_modalities,
)


class TestExtractionPipeline:
    def test_shapes(self, small_features, small_dataset) -> None:
        n = len(small_dataset)
        assert small_features.tabular.shape == (n, len(TABULAR_FEATURE_NAMES))
        assert small_features.graph.shape == (n, len(GRAPH_FEATURE_NAMES))
        assert len(small_features.labels) == n
        assert small_features.names == small_dataset.names

    def test_single_design_extraction(self, sample_verilog) -> None:
        row = extract_design_modalities(sample_verilog)
        assert len(row) == 2
        tabular, graph = row
        assert tabular.shape == (len(TABULAR_FEATURE_NAMES),)
        assert graph.shape == (len(GRAPH_FEATURE_NAMES),)

    def test_modality_accessor(self, small_features) -> None:
        assert small_features.modality(MODALITY_TABULAR) is small_features.tabular
        assert small_features.modality(MODALITY_GRAPH) is small_features.graph
        with pytest.raises(ValueError):
            small_features.modality("audio")

    def test_modalities_constant(self) -> None:
        assert set(MODALITIES) == {MODALITY_GRAPH, MODALITY_TABULAR}

    def test_subset(self, small_features) -> None:
        subset = small_features.subset([0, 3, 5])
        assert len(subset) == 3
        np.testing.assert_array_equal(subset.tabular[1], small_features.tabular[3])
        assert subset.names[2] == small_features.names[5]

    def test_mismatched_shapes_rejected(self, small_features) -> None:
        with pytest.raises(ValueError):
            MultimodalFeatures(
                tabular=small_features.tabular[:3],
                graph=small_features.graph,
                labels=small_features.labels,
            )

    def test_stratified_split(self, small_features) -> None:
        train, test = small_features.stratified_split(0.3, np.random.default_rng(0))
        assert len(train) + len(test) == len(small_features)
        assert set(np.unique(test.labels)) == {0, 1}

    def test_empty_dataset_extraction(self) -> None:
        from repro.trojan import TrojanDataset

        features = extract_modalities(TrojanDataset(benchmarks=[]))
        assert len(features) == 0
        assert features.tabular.shape == (0, len(TABULAR_FEATURE_NAMES))


class TestMissingModalities:
    def test_with_missing_modality_marks_nan(self, small_features) -> None:
        damaged = small_features.with_missing_modality(
            MODALITY_TABULAR, 0.5, rng=np.random.default_rng(0)
        )
        mask = damaged.missing_mask(MODALITY_TABULAR)
        assert 0 < mask.sum() <= len(small_features)
        assert not damaged.missing_mask(MODALITY_GRAPH).any()
        # Original is untouched.
        assert not small_features.missing_mask(MODALITY_TABULAR).any()

    def test_missing_fraction_zero_and_one(self, small_features) -> None:
        untouched = small_features.with_missing_modality(MODALITY_GRAPH, 0.0)
        assert not untouched.missing_mask(MODALITY_GRAPH).any()
        all_missing = small_features.with_missing_modality(MODALITY_GRAPH, 1.0)
        assert all_missing.missing_mask(MODALITY_GRAPH).all()

    def test_invalid_fraction(self, small_features) -> None:
        with pytest.raises(ValueError):
            small_features.with_missing_modality(MODALITY_GRAPH, 1.5)

    def test_unknown_modality(self, small_features) -> None:
        with pytest.raises(ValueError):
            small_features.with_missing_modality("audio", 0.5)


class TestScalers:
    def test_standard_scaler_moments(self) -> None:
        rng = np.random.default_rng(0)
        x = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        scaled = StandardScaler().fit_transform(x)
        np.testing.assert_allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_inverse(self) -> None:
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 3)) * 10 + 2
        scaler = StandardScaler().fit(x)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(x)), x)

    def test_standard_scaler_constant_column(self) -> None:
        x = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        scaled = StandardScaler().fit_transform(x)
        assert np.all(np.isfinite(scaled))
        np.testing.assert_allclose(scaled[:, 0], 0.0)

    def test_minmax_scaler_range(self) -> None:
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 5)) * 7 - 3
        scaled = MinMaxScaler().fit_transform(x)
        assert scaled.min() >= 0.0 and scaled.max() <= 1.0

    def test_minmax_inverse(self) -> None:
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, size=(30, 2))
        scaler = MinMaxScaler().fit(x)
        np.testing.assert_allclose(scaler.inverse_transform(scaler.transform(x)), x)

    def test_transform_before_fit_raises(self) -> None:
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 2)))

    def test_scalers_require_2d(self) -> None:
        with pytest.raises(ValueError):
            StandardScaler().fit(np.ones(5))
        with pytest.raises(ValueError):
            MinMaxScaler().fit(np.ones(5))

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(2, 20), st.integers(1, 6)),
            elements=st.floats(-1e4, 1e4, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_standard_scaler_round_trip_property(self, x) -> None:
        scaler = StandardScaler().fit(x)
        np.testing.assert_allclose(
            scaler.inverse_transform(scaler.transform(x)), x, atol=1e-6, rtol=1e-6
        )
