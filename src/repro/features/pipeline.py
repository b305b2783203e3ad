"""Modality-extraction pipeline: from RTL designs to the two NOODLE modalities.

The :class:`MultimodalFeatures` container holds, for a population of designs:

* ``tabular`` -- the (N, F_t) code-branching feature matrix;
* ``graph``   -- the (N, F_g) graph-statistics feature matrix;
* ``labels``  -- ground-truth labels;
* ``names``   -- design names (for reporting).

Missing modalities (the practical concern the paper addresses with GAN
imputation) are represented as rows of ``NaN``; :meth:`with_missing_modality`
simulates them and :mod:`repro.gan.imputation` repairs them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..hdl.parser import parse_module
from ..trojan.dataset import TrojanDataset
from .graph_builder import build_dataflow_graph
from .graph_features import GRAPH_FEATURE_NAMES, graph_feature_vector
from .image import adjacency_image  # noqa: F401 - off the scan path; perfbench/worker.py wraps this name
from .tabular import TABULAR_FEATURE_NAMES, tabular_feature_vector

#: Modality identifiers used across the fusion code.
MODALITY_TABULAR = "tabular"
MODALITY_GRAPH = "graph"
MODALITIES = (MODALITY_GRAPH, MODALITY_TABULAR)

#: Version of the feature-extraction *code*.  Bump this whenever a change
#: to the extractors (:mod:`repro.features.tabular`,
#: :mod:`repro.features.graph_features`, the HDL front-end they parse with,
#: or this pipeline) can alter the rows produced for unchanged source text,
#: or when the row's layout changes.  The bump changes
#: :func:`feature_schema_fingerprint`, which moves the model-independent
#: feature cache (:class:`repro.engine.feature_store.FeatureStore`) to a
#: fresh namespace, so stale rows are never served.
FEATURE_EXTRACTION_VERSION = 2


def feature_schema_fingerprint() -> str:
    """SHA-256 fingerprint of the feature schema produced by this pipeline.

    Covers everything that determines the *meaning and shape* of an
    extracted feature row: the extraction-code version and both ordered
    feature-name lists.  Two processes agree on this fingerprint exactly
    when their extracted rows are interchangeable.
    """
    payload = json.dumps(
        {
            "extraction_version": FEATURE_EXTRACTION_VERSION,
            "tabular": list(TABULAR_FEATURE_NAMES),
            "graph": list(GRAPH_FEATURE_NAMES),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class MultimodalFeatures:
    """Extracted modalities for a population of designs."""

    tabular: np.ndarray
    graph: np.ndarray
    labels: np.ndarray
    names: List[str] = field(default_factory=list)
    tabular_feature_names: List[str] = field(
        default_factory=lambda: list(TABULAR_FEATURE_NAMES)
    )
    graph_feature_names: List[str] = field(
        default_factory=lambda: list(GRAPH_FEATURE_NAMES)
    )

    def __post_init__(self) -> None:
        n = len(self.labels)
        if not self.tabular.shape[0] == self.graph.shape[0] == n:
            raise ValueError("all modality arrays must have the same number of samples")

    def __len__(self) -> int:
        return len(self.labels)

    # -- views ---------------------------------------------------------------
    def modality(self, name: str) -> np.ndarray:
        """The flat feature matrix for one modality by name."""
        if name == MODALITY_TABULAR:
            return self.tabular
        if name == MODALITY_GRAPH:
            return self.graph
        raise ValueError(f"unknown modality {name!r}; known: {MODALITIES}")

    def subset(self, indices: Sequence[int]) -> "MultimodalFeatures":
        indices = np.asarray(list(indices), dtype=int)
        return replace(
            self,
            tabular=self.tabular[indices],
            graph=self.graph[indices],
            labels=self.labels[indices],
            names=[self.names[i] for i in indices] if self.names else [],
        )

    def missing_mask(self, name: str) -> np.ndarray:
        """Boolean mask of samples whose given modality is missing (NaN)."""
        return np.isnan(self.modality(name)).any(axis=1)

    # -- dataset manipulation ---------------------------------------------
    def with_missing_modality(
        self,
        name: str,
        fraction: float,
        rng: Optional[np.random.Generator] = None,
    ) -> "MultimodalFeatures":
        """Return a copy where ``fraction`` of samples lose modality ``name``.

        This simulates the practical data-collection gaps the paper
        motivates GAN imputation with.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        rng = rng or np.random.default_rng()
        n = len(self)
        n_missing = int(round(fraction * n))
        chosen = rng.choice(n, size=n_missing, replace=False) if n_missing else []
        tabular = self.tabular.copy()
        graph = self.graph.copy()
        if name == MODALITY_TABULAR:
            tabular[list(chosen), :] = np.nan
        elif name == MODALITY_GRAPH:
            graph[list(chosen), :] = np.nan
        else:
            raise ValueError(f"unknown modality {name!r}")
        return replace(self, tabular=tabular, graph=graph)

    def stratified_split(
        self, test_fraction: float = 0.25, rng: Optional[np.random.Generator] = None
    ) -> Tuple["MultimodalFeatures", "MultimodalFeatures"]:
        """Split into train/test preserving class balance."""
        rng = rng or np.random.default_rng()
        train_idx: List[int] = []
        test_idx: List[int] = []
        for label in np.unique(self.labels):
            members = np.flatnonzero(self.labels == label)
            rng.shuffle(members)
            n_test = max(1, int(round(len(members) * test_fraction)))
            if n_test >= len(members):
                n_test = max(len(members) - 1, 0)
            test_idx.extend(int(i) for i in members[:n_test])
            train_idx.extend(int(i) for i in members[n_test:])
        return self.subset(sorted(train_idx)), self.subset(sorted(test_idx))


def extract_design_modalities(source: str) -> Tuple[np.ndarray, np.ndarray]:
    """Extract ``(tabular, graph)`` for a single design."""
    module = parse_module(source)
    graph = build_dataflow_graph(module)
    return tabular_feature_vector(module), graph_feature_vector(graph)


def extract_modalities(dataset: TrojanDataset) -> MultimodalFeatures:
    """Extract both modalities for every design in ``dataset``."""
    tabular_rows: List[np.ndarray] = []
    graph_rows: List[np.ndarray] = []
    for benchmark in dataset:
        tab, gra = extract_design_modalities(benchmark.source)
        tabular_rows.append(tab)
        graph_rows.append(gra)
    n = len(dataset)
    return MultimodalFeatures(
        tabular=np.vstack(tabular_rows) if n else np.empty((0, len(TABULAR_FEATURE_NAMES))),
        graph=np.vstack(graph_rows) if n else np.empty((0, len(GRAPH_FEATURE_NAMES))),
        labels=dataset.labels,
        names=dataset.names,
    )
