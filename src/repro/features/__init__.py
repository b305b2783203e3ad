"""Feature extraction: the two NOODLE modalities from RTL source.

* Tabular (Euclidean) modality — code-branching features of the AST
  (:mod:`repro.features.tabular`).
* Graph modality — signal data-flow graph statistics
  (:mod:`repro.features.graph_builder`, :mod:`repro.features.graph_features`).

A feature row is ``(tabular, graph)``.  :mod:`repro.features.image` renders
a graph as a fixed-size adjacency image; no model reads it and the scan
path does not call it.
"""

from .graph_builder import (
    DataFlowGraph,
    DataFlowGraphBuilder,
    build_dataflow_graph,
    graph_summary,
)
from .graph_features import (
    GRAPH_FEATURE_NAMES,
    extract_graph_features,
    graph_feature_matrix,
    graph_feature_vector,
)
from .image import DEFAULT_IMAGE_SIZE, adjacency_image, adjacency_image_batch
from .pipeline import (
    MODALITIES,
    MODALITY_GRAPH,
    MODALITY_TABULAR,
    MultimodalFeatures,
    extract_design_modalities,
    extract_modalities,
)
from .scaling import MinMaxScaler, StandardScaler
from .tabular import (
    TABULAR_FEATURE_NAMES,
    extract_tabular_features,
    tabular_feature_matrix,
    tabular_feature_vector,
)

__all__ = [
    "DEFAULT_IMAGE_SIZE",
    "DataFlowGraph",
    "DataFlowGraphBuilder",
    "GRAPH_FEATURE_NAMES",
    "MODALITIES",
    "MODALITY_GRAPH",
    "MODALITY_TABULAR",
    "MinMaxScaler",
    "MultimodalFeatures",
    "StandardScaler",
    "TABULAR_FEATURE_NAMES",
    "adjacency_image",
    "adjacency_image_batch",
    "build_dataflow_graph",
    "extract_design_modalities",
    "extract_graph_features",
    "extract_modalities",
    "extract_tabular_features",
    "graph_feature_matrix",
    "graph_feature_vector",
    "graph_summary",
    "tabular_feature_matrix",
    "tabular_feature_vector",
]
