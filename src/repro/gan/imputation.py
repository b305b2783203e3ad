"""Missing-modality imputation.

In practice some designs arrive with only one modality extracted (e.g. a
netlist-only delivery yields the graph but no source-level branching
features).  The paper handles missing modalities generatively; here a
conditional generator is trained to map the *observed* modality to the
*missing* one, adversarially against a discriminator that sees
(observed, candidate) pairs — a small conditional GAN.  A deterministic
ridge-regression imputer is also provided as the cheap baseline the
ablation benchmark compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..features.pipeline import MODALITY_GRAPH, MODALITY_TABULAR, MultimodalFeatures
from ..features.scaling import StandardScaler
from ..nn import Dense, LeakyReLU, Sequential, Sigmoid
from ..nn.losses import BinaryCrossEntropy


@dataclass
class ImputerConfig:
    """Hyper-parameters of the conditional imputation GAN."""

    hidden_dim: int = 64
    noise_dim: int = 8
    epochs: int = 250
    batch_size: int = 32
    learning_rate: float = 2e-3
    adversarial: bool = True
    seed: int = 0


class ModalityImputer:
    """Impute one modality from the other.

    ``fit`` expects feature matrices of the observed and target modalities
    for samples where both are present; ``impute`` fills target-modality
    rows for samples where only the observed modality exists.
    """

    def __init__(
        self,
        n_observed: int,
        n_target: int,
        config: Optional[ImputerConfig] = None,
    ) -> None:
        if n_observed <= 0 or n_target <= 0:
            raise ValueError("modality dimensions must be positive")
        self.config = config or ImputerConfig()
        self.n_observed = n_observed
        self.n_target = n_target
        self._rng = np.random.default_rng(self.config.seed)
        self._obs_scaler = StandardScaler()
        self._tgt_scaler = StandardScaler()
        self._loss = BinaryCrossEntropy()
        hidden = self.config.hidden_dim
        self.generator = Sequential(
            [
                Dense(n_observed + self.config.noise_dim, hidden, rng=self._rng),
                LeakyReLU(0.2),
                Dense(hidden, hidden, rng=self._rng),
                LeakyReLU(0.2),
                Dense(hidden, n_target, rng=self._rng),
            ],
            loss="mse",
            optimizer="adam",
            learning_rate=self.config.learning_rate,
        )
        self.discriminator = Sequential(
            [
                Dense(n_observed + n_target, hidden, rng=self._rng),
                LeakyReLU(0.2),
                Dense(hidden, 1, rng=self._rng),
                Sigmoid(),
            ],
            loss="bce",
            optimizer="adam",
            learning_rate=self.config.learning_rate,
        )
        self._fitted = False

    # -- training --------------------------------------------------------------
    def _generator_forward(self, observed_scaled: np.ndarray, training: bool) -> np.ndarray:
        noise = self._rng.normal(size=(observed_scaled.shape[0], self.config.noise_dim))
        return self.generator.forward(
            np.hstack([observed_scaled, noise]), training=training
        )

    def fit(self, observed: np.ndarray, target: np.ndarray) -> "ModalityImputer":
        observed = np.asarray(observed, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if observed.shape[0] != target.shape[0]:
            raise ValueError("observed and target must have the same number of samples")
        if observed.shape[1] != self.n_observed or target.shape[1] != self.n_target:
            raise ValueError("modality dimensions do not match the imputer configuration")
        obs_scaled = self._obs_scaler.fit_transform(observed)
        tgt_scaled = self._tgt_scaler.fit_transform(target)
        n = obs_scaled.shape[0]
        batch = min(self.config.batch_size, n)

        for _ in range(self.config.epochs):
            idx = self._rng.choice(n, size=batch, replace=False)
            obs_batch = obs_scaled[idx]
            tgt_batch = tgt_scaled[idx]

            # Reconstruction step: move the generator towards the paired target.
            self.generator.zero_grad()
            noise = self._rng.normal(size=(batch, self.config.noise_dim))
            gen_input = np.hstack([obs_batch, noise])
            predicted = self.generator.forward(gen_input, training=True)
            grad = 2.0 * (predicted - tgt_batch) / predicted.size
            self.generator.backward(grad)
            self.generator.optimizer.step()

            if not self.config.adversarial:
                continue

            # Discriminator step on (observed, real target) vs (observed, generated).
            fake = self._generator_forward(obs_batch, training=False)
            disc_x = np.vstack(
                [np.hstack([obs_batch, tgt_batch]), np.hstack([obs_batch, fake])]
            )
            disc_y = np.concatenate([np.full(batch, 0.9), np.zeros(batch)])
            self.discriminator.train_on_batch(disc_x, disc_y)

            # Adversarial generator step: fool the discriminator.
            self.generator.zero_grad()
            self.discriminator.zero_grad()
            noise = self._rng.normal(size=(batch, self.config.noise_dim))
            gen_input = np.hstack([obs_batch, noise])
            fake = self.generator.forward(gen_input, training=True)
            scores = self.discriminator.forward(
                np.hstack([obs_batch, fake]), training=True
            )
            target_ones = np.ones(batch)
            grad_scores = self._loss.gradient(scores, target_ones)
            grad_pair = self.discriminator.backward(grad_scores)
            grad_fake = grad_pair[:, self.n_observed :]
            self.generator.backward(grad_fake)
            self.generator.optimizer.step()
            self.discriminator.zero_grad()
        self._fitted = True
        return self

    # -- inference -------------------------------------------------------------
    def impute(self, observed: np.ndarray) -> np.ndarray:
        """Generate target-modality rows for the given observed-modality rows."""
        if not self._fitted:
            raise RuntimeError("ModalityImputer must be fitted before imputing")
        observed = np.asarray(observed, dtype=np.float64)
        obs_scaled = self._obs_scaler.transform(observed)
        generated = self._generator_forward(obs_scaled, training=False)
        return self._tgt_scaler.inverse_transform(generated)


def impute_missing_modalities(
    features: MultimodalFeatures,
    config: Optional[ImputerConfig] = None,
) -> MultimodalFeatures:
    """Fill every NaN modality row in ``features`` using conditional imputation.

    Imputers are trained on the samples where both modalities are present;
    samples missing the tabular modality are reconstructed from their graph
    features and vice versa.  Samples missing *both* modalities are left
    untouched (there is nothing to condition on).
    """
    config = config or ImputerConfig()
    tabular = features.tabular.copy()
    graph = features.graph.copy()
    missing_tab = features.missing_mask(MODALITY_TABULAR)
    missing_graph = features.missing_mask(MODALITY_GRAPH)
    both_present = ~missing_tab & ~missing_graph

    if missing_tab.any() and both_present.any():
        imputer = ModalityImputer(
            n_observed=graph.shape[1], n_target=tabular.shape[1], config=config
        )
        imputer.fit(graph[both_present], tabular[both_present])
        fixable = missing_tab & ~missing_graph
        if fixable.any():
            tabular[fixable] = imputer.impute(graph[fixable])

    if missing_graph.any() and both_present.any():
        imputer = ModalityImputer(
            n_observed=tabular.shape[1], n_target=graph.shape[1], config=config
        )
        imputer.fit(tabular[both_present], graph[both_present])
        fixable = missing_graph & ~missing_tab
        if fixable.any():
            graph[fixable] = imputer.impute(tabular[fixable])

    return MultimodalFeatures(
        tabular=tabular,
        graph=graph,
        labels=features.labels,
        names=list(features.names),
        tabular_feature_names=features.tabular_feature_names,
        graph_feature_names=features.graph_feature_names,
    )
