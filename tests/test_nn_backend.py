"""Compute-backend tests: registry, fused-f32 equivalence, threaded GEMM.

The acceptance properties of the backend seam:

* the registry knows exactly the built-in backends, rejects unknown names
  with a clear ``ValueError``, and accepts plugin registrations;
* the fused float32 plan matches the float64 forward within 1e-4 on every
  supported layer type (measured slack is ~1e-7);
* scratch-buffer reuse is deterministic: repeated calls on the same plan
  return identical results;
* the threaded GEMM path is exact (column tiling splits pure matmuls).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    AvgPool1d,
    AvgPool2d,
    BatchNorm1d,
    Conv1d,
    Conv2d,
    Dense,
    Dropout,
    Flatten,
    GlobalAveragePool1d,
    LeakyReLU,
    MaxPool1d,
    MaxPool2d,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
    available_backends,
    fused_gemm,
    get_backend,
    register_backend,
)
from repro.nn.backend import (
    DEFAULT_BACKEND,
    GEMM_MIN_TILE_COLS,
    PROFILER,
    InferencePlan,
    _BACKENDS,
)

FUSED_TOL = 1e-4  # the acceptance bound; observed error is ~1e-7


def paper_1d_model(rng=None) -> Sequential:
    """The 1-D CNN stack CNNModalityClassifier builds (length 32)."""
    rng = rng or np.random.default_rng(5)
    return Sequential(
        [
            Conv1d(1, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool1d(2),
            Conv1d(16, 32, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            Flatten(),
            Dense(32 * 16, 64, rng=rng),
            ReLU(),
            Dense(64, 1, rng=rng),
            Sigmoid(),
        ],
        loss="bce",
    )


def paper_2d_model(rng=None) -> Sequential:
    """A two-block 2-D CNN stack over 16x16 single-channel inputs."""
    rng = rng or np.random.default_rng(6)
    return Sequential(
        [
            Conv2d(1, 16, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Conv2d(16, 32, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Dense(32 * 4 * 4, 64, rng=rng),
            ReLU(),
            Dense(64, 1, rng=rng),
            Sigmoid(),
        ],
        loss="bce",
    )


def misc_layers_model(rng=None) -> Sequential:
    """Every remaining supported layer type in one stack."""
    rng = rng or np.random.default_rng(7)
    return Sequential(
        [
            Conv1d(1, 8, kernel_size=3, padding=1, rng=rng),
            LeakyReLU(0.1),
            AvgPool1d(2),
            Conv1d(8, 8, kernel_size=3, padding=1, rng=rng),
            Tanh(),
            Dropout(0.5, rng=rng),  # inference no-op: plans must skip it
            GlobalAveragePool1d(),
            BatchNorm1d(8),  # 2-D input: after the pooled (N, C) collapse
            Dense(8, 4, rng=rng),
            Sigmoid(),
        ],
        loss="bce",
    )


def misc_2d_model(rng=None) -> Sequential:
    """AvgPool2d coverage (the 2-D pool the paper stacks do not use)."""
    rng = rng or np.random.default_rng(8)
    return Sequential(
        [
            Conv2d(1, 4, kernel_size=3, padding=1, rng=rng),
            ReLU(),
            AvgPool2d(2),
            Flatten(),
            Dense(4 * 8 * 8, 2, rng=rng),
            Sigmoid(),
        ],
        loss="bce",
    )


class TestRegistry:
    def test_builtin_backends(self):
        assert available_backends() == ["fused_f32", "numpy"]
        assert DEFAULT_BACKEND == "numpy"

    def test_unknown_backend_raises_with_known_names(self):
        with pytest.raises(ValueError) as excinfo:
            get_backend("nope")
        message = str(excinfo.value)
        assert "nope" in message
        for name in available_backends():
            assert name in message

    def test_backend_dtypes(self):
        assert get_backend("numpy").dtype == "float64"
        assert get_backend("fused_f32").dtype == "float32"

    def test_register_backend_plugin(self):
        sentinel = get_backend("numpy")
        register_backend("test_plugin", lambda: sentinel)
        try:
            assert "test_plugin" in available_backends()
            assert get_backend("test_plugin") is sentinel
        finally:
            _BACKENDS.pop("test_plugin", None)

    def test_numpy_plan_is_bit_identical(self):
        model = paper_1d_model()
        x = np.random.default_rng(0).standard_normal((7, 1, 32))
        plan = get_backend("numpy").compile(model)
        assert np.array_equal(plan.predict_proba(x), model.predict_proba(x))

    def test_base_plan_forward_is_abstract(self):
        with pytest.raises(NotImplementedError):
            InferencePlan("x", "float64").forward(np.zeros((1, 1, 4)))


class TestFusedF32Equivalence:
    @pytest.mark.parametrize(
        "build, shape",
        [
            (paper_1d_model, (13, 1, 32)),
            (paper_2d_model, (13, 1, 16, 16)),
            (misc_layers_model, (9, 1, 32)),
            (misc_2d_model, (9, 1, 16, 16)),
        ],
        ids=["paper-1d", "paper-2d", "misc-1d", "misc-2d"],
    )
    def test_matches_float64_within_tolerance(self, build, shape):
        model = build()
        x = np.random.default_rng(3).standard_normal(shape)
        expected = model.predict_proba(x)
        plan = get_backend("fused_f32").compile(model)
        observed = plan.predict_proba(x)
        assert observed.shape == expected.shape
        assert np.max(np.abs(observed - expected)) < FUSED_TOL

    def test_scratch_reuse_is_deterministic(self):
        model = paper_1d_model()
        plan = get_backend("fused_f32").compile(model)
        x = np.random.default_rng(4).standard_normal((11, 1, 32))
        first = plan.predict_proba(x)
        for _ in range(3):
            assert np.array_equal(plan.predict_proba(x), first)

    def test_varying_batch_sizes_share_one_plan(self):
        model = paper_1d_model()
        plan = get_backend("fused_f32").compile(model)
        rng = np.random.default_rng(5)
        for n in (1, 3, 17, 3, 1):
            x = rng.standard_normal((n, 1, 32))
            assert (
                np.max(np.abs(plan.predict_proba(x) - model.predict_proba(x)))
                < FUSED_TOL
            )

    def test_plan_reports_backend_and_dtype(self):
        plan = get_backend("fused_f32").compile(paper_1d_model())
        assert plan.backend == "fused_f32"
        assert plan.dtype == "float32"

    def test_profiler_records_gemm_activation(self):
        plan = get_backend("fused_f32").compile(paper_1d_model())
        x = np.random.default_rng(13).standard_normal((5, 1, 32))
        PROFILER.reset()
        plan.predict_proba(x)
        stages = PROFILER.snapshot()
        for stage in ("gemm", "activation"):
            assert stages.get(stage, 0.0) > 0.0


class TestThreadedGemm:
    def test_large_gemm_tiled_result_is_exact(self):
        rng = np.random.default_rng(9)
        a = np.ascontiguousarray(rng.standard_normal((64, 256)), dtype=np.float32)
        # Wide enough to cross both thresholds when multiple cores exist.
        n_cols = 2 * GEMM_MIN_TILE_COLS + 123
        b = np.ascontiguousarray(rng.standard_normal((256, n_cols)), dtype=np.float32)
        out = np.empty((64, n_cols), dtype=np.float32)
        fused_gemm(a, b, out)
        assert np.array_equal(out, a @ b)

    def test_small_gemm_single_shot(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 8)).astype(np.float32)
        b = rng.standard_normal((8, 6)).astype(np.float32)
        out = np.empty((4, 6), dtype=np.float32)
        fused_gemm(a, b, out)
        assert np.array_equal(out, a @ b)


class TestClassifierBackendSeam:
    def test_set_backend_validates_eagerly(self):
        from repro.core.classifiers import CNNModalityClassifier

        clf = CNNModalityClassifier(16)
        with pytest.raises(ValueError):
            clf.set_backend("nope")
        assert clf.backend == DEFAULT_BACKEND

    def test_fused_probabilities_match_numpy(self, rng):
        from repro.core.classifiers import CNNModalityClassifier

        x = rng.standard_normal((30, 16))
        y = (rng.random(30) > 0.5).astype(int)
        y[:2] = [0, 1]  # both classes present
        clf = CNNModalityClassifier(16).fit(x, y)
        golden = clf.predict_proba(x)
        clf.set_backend("fused_f32")
        fused = clf.predict_proba(x)
        assert np.max(np.abs(fused - golden)) < FUSED_TOL
        clf.set_backend("numpy")
        assert np.array_equal(clf.predict_proba(x), golden)

    def test_fit_invalidates_compiled_plan(self, rng):
        from repro.core.classifiers import CNNModalityClassifier

        x = rng.standard_normal((30, 16))
        y = np.array([0, 1] * 15)
        clf = CNNModalityClassifier(16).fit(x, y)
        clf.set_backend("fused_f32")
        stale = clf.predict_proba(x)
        clf.fit(x, 1 - y)  # retrain flips the labels -> new weights
        fresh = clf.predict_proba(x)
        assert not np.allclose(stale, fresh)
        golden = clf._model.predict_proba(
            clf._reshape(clf._scaler.transform(x))
        ).reshape(-1)
        assert np.max(np.abs(fresh[:, 1] - np.clip(golden, 0, 1))) < FUSED_TOL
