"""Per-modality CNN classifier.

The paper uses CNN-based classifiers for both modalities.  Here each
modality's flat feature vector is treated as a one-channel 1-D signal and
classified by a small convolutional network (two conv blocks, a dense
head) that exposes the ``fit`` / ``predict_proba`` protocol the conformal
layer expects.  The backend seam (:meth:`CNNModalityClassifier.set_backend`)
routes inference through the golden float64 forward pass or a compiled
:mod:`repro.nn.backend` plan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..features.scaling import StandardScaler
from ..nn.dtype import as_float
from ..nn import (
    Conv1d,
    Dense,
    Dropout,
    Flatten,
    MaxPool1d,
    ReLU,
    Sequential,
    Sigmoid,
)
from ..nn.backend import DEFAULT_BACKEND, InferencePlan, get_backend
from .config import ClassifierConfig


class CNNModalityClassifier:
    """1-D CNN over a flat feature vector (one modality)."""

    def __init__(self, n_features: int, config: Optional[ClassifierConfig] = None) -> None:
        if n_features <= 0:
            raise ValueError("n_features must be positive")
        self.config = config or ClassifierConfig()
        self.config.validate()
        self.n_features = n_features
        self._scaler = StandardScaler()
        self._rng = np.random.default_rng(self.config.seed)
        self._model = self._build()
        self.set_backend(DEFAULT_BACKEND)

    def _build(self) -> Sequential:
        c1, c2 = self.config.channels
        k = self.config.kernel_size
        padding = k // 2
        pooled_length = self.n_features // 2
        if pooled_length < 1:
            raise ValueError("n_features too small for the CNN architecture")
        layers = [
            Conv1d(1, c1, kernel_size=k, padding=padding, rng=self._rng),
            ReLU(),
            MaxPool1d(2),
            Conv1d(c1, c2, kernel_size=k, padding=padding, rng=self._rng),
            ReLU(),
            Flatten(),
            Dense(c2 * pooled_length, self.config.dense_units, rng=self._rng),
            ReLU(),
        ]
        if self.config.dropout > 0:
            layers.append(Dropout(self.config.dropout, rng=self._rng))
        layers.extend([Dense(self.config.dense_units, 1, rng=self._rng), Sigmoid()])
        return Sequential(
            layers,
            loss="bce",
            optimizer="adam",
            learning_rate=self.config.learning_rate,
        )

    # -- compute backend ----------------------------------------------------
    def set_backend(self, name: str) -> "CNNModalityClassifier":
        """Select the inference backend.

        Raises ``ValueError`` for unknown backend names.
        """
        get_backend(name)  # validate eagerly so callers get a clear error
        self._backend = name
        self._plan: Optional[InferencePlan] = None
        return self

    @property
    def backend(self) -> str:
        """Name of the active inference backend."""
        return self._backend

    def _infer_proba(self, x: np.ndarray) -> np.ndarray:
        """Model probabilities via the active backend's inference plan.

        The golden ``numpy`` backend runs the model's own float64 forward
        pass (bit-identical to training); any other backend compiles a
        plan on first use and reuses it, scratch buffers included.
        Fitting drops the plan, because a plan snapshots the weights.
        """
        if self._backend == DEFAULT_BACKEND:
            return self._model.predict_proba(x)
        if self._plan is None:
            self._plan = get_backend(self._backend).compile(self._model)
        return self._plan.predict_proba(x)

    # -- data plumbing ------------------------------------------------------
    def _reshape(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], 1, self.n_features)

    def fit(self, x: np.ndarray, y: np.ndarray) -> "CNNModalityClassifier":
        x = as_float(x)
        y = as_float(y).reshape(-1)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected shape (N, {self.n_features}), got {x.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y must align")
        scaled = self._scaler.fit_transform(x)
        self._model.fit(
            self._reshape(scaled),
            y,
            epochs=self.config.epochs,
            batch_size=self.config.batch_size,
            rng=np.random.default_rng(self.config.seed + 1),
        )
        self._plan = None
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        x = as_float(x)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected shape (N, {self.n_features}), got {x.shape}")
        scaled = self._scaler.transform(x)
        positive = self._infer_proba(self._reshape(scaled)).reshape(-1)
        positive = np.clip(positive, 0.0, 1.0)
        return np.column_stack([1.0 - positive, positive])

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(x)[:, 1] >= threshold).astype(int)
