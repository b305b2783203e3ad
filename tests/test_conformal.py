"""Tests for conformal prediction: scores, ICP validity, combination, regions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
from hypothesis import strategies as st

from repro.conformal import (
    InductiveConformalClassifier,
    available_combiners,
    combine_p_value_matrices,
    confidence_scores,
    credibility,
    evaluate_p_values,
    evaluate_regions,
    fisher_combination,
    forced_predictions,
    get_combiner,
    get_nonconformity,
    inverse_probability_score,
    margin_score,
    maximum_combination,
    minimum_combination,
    p_values_to_probabilities,
    prediction_regions,
    region_kind_counts,
    set_confusion_matrix,
    stouffer_combination,
    validity_curve,
)


def _synthetic_classifier_output(n: int, rng: np.random.Generator, noise: float = 0.25):
    """Labels plus imperfect 'classifier' probabilities for them."""
    labels = rng.integers(0, 2, size=n)
    p1 = np.clip(labels + rng.normal(0, noise, size=n), 0.01, 0.99)
    probabilities = np.column_stack([1 - p1, p1])
    return probabilities, labels


class TestNonconformityScores:
    def test_inverse_probability(self) -> None:
        probabilities = np.array([[0.8, 0.2], [0.3, 0.7]])
        scores = inverse_probability_score(probabilities, np.array([0, 1]))
        np.testing.assert_allclose(scores, [0.2, 0.3])

    def test_margin_score(self) -> None:
        probabilities = np.array([[0.9, 0.1], [0.4, 0.6]])
        scores = margin_score(probabilities, np.array([0, 0]))
        np.testing.assert_allclose(scores, [(0.1 - 0.9 + 1) / 2, (0.6 - 0.4 + 1) / 2])

    def test_one_dimensional_probabilities_accepted(self) -> None:
        scores = inverse_probability_score(np.array([0.7, 0.2]), np.array([1, 0]))
        np.testing.assert_allclose(scores, [0.3, 0.2])

    def test_correct_label_scores_lower(self) -> None:
        probabilities = np.array([[0.9, 0.1]])
        right = inverse_probability_score(probabilities, np.array([0]))[0]
        wrong = inverse_probability_score(probabilities, np.array([1]))[0]
        assert right < wrong

    def test_get_nonconformity(self) -> None:
        assert get_nonconformity("margin") is margin_score
        with pytest.raises(ValueError):
            get_nonconformity("energy")

    def test_invalid_probabilities_rejected(self) -> None:
        with pytest.raises(ValueError):
            inverse_probability_score(np.array([[1.5, -0.5]]), np.array([0]))


class TestInductiveConformal:
    def test_p_value_range_and_shape(self) -> None:
        rng = np.random.default_rng(0)
        cal_probs, cal_labels = _synthetic_classifier_output(80, rng)
        test_probs, _ = _synthetic_classifier_output(40, rng)
        icp = InductiveConformalClassifier().calibrate(cal_probs, cal_labels)
        p = icp.p_values(test_probs)
        assert p.shape == (40, 2)
        assert np.all(p > 0) and np.all(p <= 1)

    def test_marginal_validity(self) -> None:
        """Coverage at confidence E must be at least roughly E."""
        rng = np.random.default_rng(1)
        cal_probs, cal_labels = _synthetic_classifier_output(300, rng)
        test_probs, test_labels = _synthetic_classifier_output(400, rng)
        icp = InductiveConformalClassifier(mondrian=False).calibrate(cal_probs, cal_labels)
        p = icp.p_values(test_probs)
        for confidence in (0.8, 0.9):
            evaluation = evaluate_p_values(p, test_labels, confidence=confidence)
            assert evaluation.coverage >= confidence - 0.07

    def test_mondrian_per_class_validity_under_imbalance(self) -> None:
        """Label-conditional calibration protects the minority class."""
        rng = np.random.default_rng(2)
        n_cal, n_test = 400, 600
        cal_labels = (rng.random(n_cal) < 0.2).astype(int)
        test_labels = (rng.random(n_test) < 0.2).astype(int)
        # Classifier biased against the minority class.
        def biased_probs(labels):
            p1 = np.clip(0.35 * labels + rng.normal(0.1, 0.15, size=len(labels)), 0.01, 0.99)
            return np.column_stack([1 - p1, p1])

        icp = InductiveConformalClassifier(mondrian=True).calibrate(
            biased_probs(cal_labels), cal_labels
        )
        p = icp.p_values(biased_probs(test_labels))
        evaluation = evaluate_p_values(p, test_labels, confidence=0.9)
        assert evaluation.per_class_coverage[1] >= 0.8

    def test_calibration_summary(self) -> None:
        rng = np.random.default_rng(3)
        cal_probs, cal_labels = _synthetic_classifier_output(50, rng)
        icp = InductiveConformalClassifier().calibrate(cal_probs, cal_labels)
        summary = icp.calibration_summary()
        assert sum(summary.values()) == 50

    def test_smoothed_p_values_valid_range(self) -> None:
        rng = np.random.default_rng(4)
        cal_probs, cal_labels = _synthetic_classifier_output(60, rng)
        icp = InductiveConformalClassifier(smoothing=True, rng=rng).calibrate(
            cal_probs, cal_labels
        )
        p = icp.p_values(cal_probs)
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_point_prediction_and_confidence(self) -> None:
        rng = np.random.default_rng(5)
        cal_probs, cal_labels = _synthetic_classifier_output(100, rng, noise=0.1)
        test_probs, test_labels = _synthetic_classifier_output(100, rng, noise=0.1)
        icp = InductiveConformalClassifier().calibrate(cal_probs, cal_labels)
        predictions = icp.predict_point(test_probs)
        assert np.mean(predictions == test_labels) > 0.8
        assert np.all(icp.credibility(test_probs) <= 1)
        assert np.all(icp.confidence(test_probs) <= 1)

    def test_errors_before_calibration_and_bad_inputs(self) -> None:
        icp = InductiveConformalClassifier()
        with pytest.raises(RuntimeError):
            icp.p_values(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            icp.calibrate(np.empty((0, 2)), np.empty(0))
        icp.calibrate(np.array([[0.7, 0.3], [0.2, 0.8]]), np.array([0, 1]))
        with pytest.raises(ValueError):
            icp.p_values(np.ones((2, 3)) / 3)


class TestDegenerateCalibrationSets:
    """Empty / single-class calibration must fail fast with a clear error."""

    def test_zero_calibration_points_rejected(self) -> None:
        icp = InductiveConformalClassifier()
        with pytest.raises(ValueError, match="must not be empty"):
            icp.calibrate(np.empty((0, 2)), np.empty(0))

    def test_mondrian_single_class_calibration_rejected(self) -> None:
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        labels = np.zeros(3, dtype=int)  # class 1 has no calibration examples
        with pytest.raises(ValueError, match="every class"):
            InductiveConformalClassifier(mondrian=True).calibrate(probs, labels)

    def test_non_mondrian_single_class_calibration_allowed(self) -> None:
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]])
        labels = np.zeros(3, dtype=int)
        icp = InductiveConformalClassifier(mondrian=False).calibrate(probs, labels)
        p = icp.p_values(probs)
        assert p.shape == (3, 2)

    def test_state_round_trip_still_works(self) -> None:
        rng = np.random.default_rng(8)
        cal_probs, cal_labels = _synthetic_classifier_output(40, rng)
        icp = InductiveConformalClassifier().calibrate(cal_probs, cal_labels)
        restored = InductiveConformalClassifier.from_calibration_state(
            icp.calibration_state()
        )
        np.testing.assert_array_equal(restored.p_values(cal_probs), icp.p_values(cal_probs))

    def test_state_missing_entry_rejected(self) -> None:
        rng = np.random.default_rng(9)
        cal_probs, cal_labels = _synthetic_classifier_output(40, rng)
        state = InductiveConformalClassifier().calibrate(
            cal_probs, cal_labels
        ).calibration_state()
        del state["sorted_label_1"]
        with pytest.raises(ValueError, match="sorted_label_1"):
            InductiveConformalClassifier.from_calibration_state(state)

    @pytest.mark.parametrize(
        "missing", ["calibration_scores", "calibration_labels", "sorted_marginal"]
    )
    def test_state_missing_array_rejected(self, missing: str) -> None:
        rng = np.random.default_rng(12)
        cal_probs, cal_labels = _synthetic_classifier_output(40, rng)
        state = InductiveConformalClassifier().calibrate(
            cal_probs, cal_labels
        ).calibration_state()
        del state[missing]
        with pytest.raises(ValueError, match=missing):
            InductiveConformalClassifier.from_calibration_state(state)

    def test_state_missing_setting_rejected(self) -> None:
        rng = np.random.default_rng(13)
        cal_probs, cal_labels = _synthetic_classifier_output(40, rng)
        state = InductiveConformalClassifier().calibrate(
            cal_probs, cal_labels
        ).calibration_state()
        del state["settings"]["n_classes"]
        with pytest.raises(ValueError, match="n_classes"):
            InductiveConformalClassifier.from_calibration_state(state)

    def test_state_with_empty_calibration_rejected(self) -> None:
        rng = np.random.default_rng(10)
        cal_probs, cal_labels = _synthetic_classifier_output(40, rng)
        state = InductiveConformalClassifier().calibrate(
            cal_probs, cal_labels
        ).calibration_state()
        state["calibration_scores"] = np.empty(0)
        with pytest.raises(ValueError, match="empty calibration"):
            InductiveConformalClassifier.from_calibration_state(state)

    def test_state_with_classless_mondrian_scores_rejected(self) -> None:
        rng = np.random.default_rng(11)
        cal_probs, cal_labels = _synthetic_classifier_output(40, rng)
        state = InductiveConformalClassifier().calibrate(
            cal_probs, cal_labels
        ).calibration_state()
        state["sorted_label_1"] = np.empty(0)
        with pytest.raises(ValueError, match="class\\(es\\) \\[1\\]"):
            InductiveConformalClassifier.from_calibration_state(state)


class TestCombination:
    def test_all_combiners_return_valid_p_values(self) -> None:
        rng = np.random.default_rng(0)
        p = rng.uniform(size=(50, 3))
        for name in available_combiners():
            combined = get_combiner(name)(p)
            assert combined.shape == (50,)
            assert np.all(combined >= 0) and np.all(combined <= 1)

    def test_fisher_known_value(self) -> None:
        # Two p-values of 1.0 give a chi-square statistic of 0 -> combined 1.
        np.testing.assert_allclose(fisher_combination(np.array([[1.0, 1.0]])), [1.0])

    def test_fisher_small_inputs_give_small_output(self) -> None:
        assert fisher_combination(np.array([[0.001, 0.002]]))[0] < 0.01

    def test_stouffer_symmetric_half(self) -> None:
        np.testing.assert_allclose(stouffer_combination(np.array([[0.5, 0.5]])), [0.5], atol=1e-9)

    def test_minimum_is_bonferroni(self) -> None:
        np.testing.assert_allclose(minimum_combination(np.array([[0.01, 0.5]])), [0.02])

    def test_maximum_combination(self) -> None:
        np.testing.assert_allclose(maximum_combination(np.array([[0.2, 0.7]])), [0.7])

    def test_unknown_combiner(self) -> None:
        with pytest.raises(ValueError):
            get_combiner("median-ish")

    def test_combine_matrices_shape_checks(self) -> None:
        a = np.random.default_rng(0).uniform(size=(10, 2))
        b = np.random.default_rng(1).uniform(size=(10, 2))
        combined = combine_p_value_matrices([a, b], "fisher")
        assert combined.shape == (10, 2)
        with pytest.raises(ValueError):
            combine_p_value_matrices([], "fisher")
        with pytest.raises(ValueError):
            combine_p_value_matrices([a, b[:5]], "fisher")

    @pytest.mark.parametrize("n_modalities", [1, 2, 3, 4, 5])
    def test_fisher_and_stouffer_match_scipy_stats_bitwise(self, n_modalities) -> None:
        """The ``scipy.special`` ufuncs give the bits of the ``scipy.stats`` calls."""
        import itertools

        from scipy import stats

        boundary = [0.0, 1e-12, 0.5, 1 - 1e-12, 1.0, np.nan]
        exhaustive = np.array(list(itertools.product(boundary, repeat=n_modalities)))
        rng = np.random.default_rng(n_modalities)
        random = rng.uniform(size=(2000, n_modalities))
        random[rng.uniform(size=random.shape) < 0.05] = np.nan
        tiny = 10.0 ** -rng.uniform(0, 13, size=(500, n_modalities))
        p_values = np.vstack([exhaustive, random, tiny])

        clipped = np.clip(p_values, 1e-12, 1.0)
        fisher = stats.chi2.sf(-2.0 * np.log(clipped).sum(axis=1), df=2 * n_modalities)
        z = stats.norm.isf(np.clip(clipped, 1e-12, 1 - 1e-12))
        stouffer = stats.norm.sf(z.sum(axis=1) / np.sqrt(n_modalities))
        assert fisher_combination(p_values).tobytes() == fisher.tobytes()
        assert stouffer_combination(p_values).tobytes() == stouffer.tobytes()

    def test_agreement_strengthens_fisher_evidence(self) -> None:
        """Two modalities agreeing on a small p-value yield a smaller combined
        p-value than either modality combined with an uninformative one."""
        agreeing = fisher_combination(np.array([[0.05, 0.05]]))[0]
        mixed = fisher_combination(np.array([[0.05, 0.9]]))[0]
        assert agreeing < mixed

    @given(
        arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 30), st.integers(1, 4)),
            elements=st.floats(0.001, 1.0),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_combiners_bounded_property(self, p_values) -> None:
        for name in ("fisher", "stouffer", "arithmetic", "geometric", "minimum", "maximum"):
            combined = get_combiner(name)(p_values)
            assert np.all(combined >= 0.0) and np.all(combined <= 1.0)
            assert np.all(np.isfinite(combined))

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_fisher_monotone_property(self, p1, p2) -> None:
        """Decreasing one input p-value never increases the Fisher combination."""
        base = fisher_combination(np.array([[p1, p2]]))[0]
        smaller = fisher_combination(np.array([[p1 / 2, p2]]))[0]
        assert smaller <= base + 1e-12


class TestRegionsAndMetrics:
    def test_region_membership(self) -> None:
        p = np.array([[0.8, 0.05], [0.4, 0.6], [0.02, 0.03]])
        regions = prediction_regions(p, confidence=0.9)
        assert regions[0].labels == (0,)
        assert regions[1].labels == (0, 1) and regions[1].is_uncertain
        assert regions[2].is_empty

    def test_higher_confidence_gives_larger_regions(self) -> None:
        rng = np.random.default_rng(0)
        p = rng.uniform(size=(100, 2))
        loose = prediction_regions(p, confidence=0.99)
        tight = prediction_regions(p, confidence=0.6)
        assert sum(len(r) for r in loose) >= sum(len(r) for r in tight)

    def test_forced_predictions_and_scores(self) -> None:
        p = np.array([[0.7, 0.2], [0.1, 0.9]])
        np.testing.assert_array_equal(forced_predictions(p), [0, 1])
        np.testing.assert_allclose(credibility(p), [0.7, 0.9])
        np.testing.assert_allclose(confidence_scores(p), [0.8, 0.9])

    def test_p_values_to_probabilities(self) -> None:
        p = np.array([[0.5, 0.5], [0.0, 0.0], [0.9, 0.1]])
        probabilities = p_values_to_probabilities(p)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0)
        np.testing.assert_allclose(probabilities[1], [0.5, 0.5])

    def test_region_kind_counts(self) -> None:
        p = np.array([[0.8, 0.05], [0.4, 0.6], [0.02, 0.03]])
        counts = region_kind_counts(prediction_regions(p, confidence=0.9))
        assert counts == {"empty": 1, "singleton": 1, "uncertain": 1}

    def test_evaluate_regions_metrics(self) -> None:
        p = np.array([[0.9, 0.05], [0.05, 0.9], [0.5, 0.6], [0.01, 0.9]])
        labels = np.array([0, 1, 1, 0])
        evaluation = evaluate_p_values(p, labels, confidence=0.9)
        assert 0.0 <= evaluation.coverage <= 1.0
        assert evaluation.average_region_size >= 0.0
        assert 0 <= evaluation.singleton_fraction <= 1
        assert set(evaluation.per_class_coverage) == {0, 1}
        as_dict = evaluation.as_dict()
        assert "coverage_class_1" in as_dict

    def test_set_confusion_matrix(self) -> None:
        p = np.array([[0.9, 0.05], [0.05, 0.9], [0.5, 0.6], [0.01, 0.02]])
        labels = np.array([0, 0, 1, 1])
        counts = set_confusion_matrix(prediction_regions(p, confidence=0.9), labels)
        assert counts["true_negative"] == 1
        assert counts["false_positive"] == 1
        assert counts["uncertain"] == 1
        assert counts["empty"] == 1
        assert sum(counts.values()) == 4

    def test_validity_curve_monotone_region_size(self) -> None:
        rng = np.random.default_rng(1)
        cal_probs, cal_labels = _synthetic_classifier_output(200, rng)
        test_probs, test_labels = _synthetic_classifier_output(200, rng)
        icp = InductiveConformalClassifier().calibrate(cal_probs, cal_labels)
        curve = validity_curve(icp.p_values(test_probs), test_labels)
        sizes = [point["average_region_size"] for point in curve]
        assert sizes == sorted(sizes)

    def test_invalid_inputs(self) -> None:
        with pytest.raises(ValueError):
            prediction_regions(np.array([[0.5, 0.5]]), confidence=1.5)
        with pytest.raises(ValueError):
            evaluate_regions([], np.array([]))
