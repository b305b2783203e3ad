"""Adjacency-image representation of the data-flow graph.

The per-modality classifiers in the paper are CNNs.  For the graph modality
we give the Conv2d network something genuinely convolutional to work on: a
fixed-size ``(1, K, K)`` "image" derived from the graph's adjacency
structure.  Nodes are ordered canonically (by role, then degree, then name)
and the weighted adjacency matrix is pooled down (or zero-padded up) to a
``K x K`` grid, so local connectivity patterns — e.g. the dense comparator
fan-in of a Trojan trigger — appear as localised intensity patterns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Union

import numpy as np

from ..hdl import ast_nodes as ast
from .graph_builder import DataFlowGraph, build_dataflow_graph

if TYPE_CHECKING:  # pragma: no cover - typing only; the reference takes one
    import networkx as nx

#: Default image side length used throughout the experiments.
DEFAULT_IMAGE_SIZE = 16

_ROLE_ORDER = {
    "input": 0,
    "output": 1,
    "inout": 2,
    "reg": 3,
    "wire": 4,
    "instance": 5,
    "implicit": 6,
}


def _canonical_node_order(graph: nx.DiGraph) -> List[str]:
    """Deterministic node ordering: role, then total degree (desc), then name."""
    in_degrees = dict(graph.in_degree())
    out_degrees = dict(graph.out_degree())

    def sort_key(name: str):
        data = graph.nodes[name]
        role = _ROLE_ORDER.get(data.get("role", "implicit"), len(_ROLE_ORDER))
        degree = in_degrees[name] + out_degrees[name]
        return (role, -degree, str(name))

    return sorted(graph.nodes, key=sort_key)


def _weighted_adjacency(graph: nx.DiGraph, order: List[str]) -> np.ndarray:
    index = {name: i for i, name in enumerate(order)}
    matrix = np.zeros((len(order), len(order)))
    for source, target, data in graph.edges(data=True):
        matrix[index[source], index[target]] = float(data.get("weight", 1))
    return matrix


def _pool_to_size(matrix: np.ndarray, size: int) -> np.ndarray:
    """Sum-pool (or zero-pad) a square matrix to ``size x size``."""
    n = matrix.shape[0]
    if n == 0:
        return np.zeros((size, size))
    if n <= size:
        padded = np.zeros((size, size))
        padded[:n, :n] = matrix
        return padded
    # Sum-pool blocks of (roughly) equal size.  ``reduceat`` sums each
    # contiguous block per axis in one vectorized pass (block edges are
    # strictly increasing because n > size here).
    edges = np.linspace(0, n, size + 1).astype(int)
    return np.add.reduceat(np.add.reduceat(matrix, edges[:-1], axis=0), edges[:-1], axis=1)


def _log_scaled(pooled: np.ndarray) -> np.ndarray:
    """``log1p`` of a pooled grid, normalised to [0, 1], as ``(1, K, K)``."""
    scaled = np.log1p(pooled)
    peak = scaled.max()
    if peak > 0:
        scaled = scaled / peak
    return scaled[np.newaxis, :, :]


def _adjacency_image_reference(graph: nx.DiGraph, size: int = DEFAULT_IMAGE_SIZE) -> np.ndarray:
    """Golden dense implementation of :func:`adjacency_image`.

    Builds the full ``n x n`` weighted adjacency of a networkx graph and
    sum-pools it.  Kept as the reference the edge-scatter fast path is
    verified against (``tests/test_features_graph.py``, on
    :meth:`DataFlowGraph.to_networkx` graphs), like
    ``graph_features._extract_graph_features_reference``.
    """
    if size <= 0:
        raise ValueError("image size must be positive")
    order = _canonical_node_order(graph)
    return _log_scaled(_pool_to_size(_weighted_adjacency(graph, order), size))


def _canonical_positions(graph: DataFlowGraph) -> np.ndarray:
    """Each node's position in :func:`_canonical_node_order`'s ordering."""
    n = graph.number_of_nodes()
    degrees = np.bincount(graph.sources, minlength=n) + np.bincount(graph.targets, minlength=n)
    keys = [
        (_ROLE_ORDER.get(data.get("role", "implicit"), len(_ROLE_ORDER)), -degree, name)
        for (name, data), degree in zip(graph.nodes.items(), degrees.tolist())
    ]
    positions = np.empty(n, dtype=np.intp)
    positions[sorted(range(n), key=keys.__getitem__)] = np.arange(n)
    return positions


def adjacency_image(
    design: Union[str, ast.Module, DataFlowGraph], size: int = DEFAULT_IMAGE_SIZE
) -> np.ndarray:
    """The ``(1, size, size)`` adjacency image for one design.

    Values are log-scaled and normalised to [0, 1] so the CNN sees a stable
    input range regardless of design size.  Each edge weight is scattered
    straight into its pooled grid cell with ``np.bincount``, in ``O(E)``
    and with no ``n x n`` matrix; weights are integer counts, so the sums
    equal :func:`_adjacency_image_reference`'s bit for bit.
    """
    if size <= 0:
        raise ValueError("image size must be positive")
    graph = design if isinstance(design, DataFlowGraph) else build_dataflow_graph(design)
    n = graph.number_of_nodes()
    positions = _canonical_positions(graph)
    rows, cols = positions[graph.sources], positions[graph.targets]
    if n > size:
        # Grid cell of each canonical position: the blocks _pool_to_size sums.
        bounds = np.linspace(0, n, size + 1).astype(int)
        cell = np.repeat(np.arange(size), np.diff(bounds))
        rows, cols = cell[rows], cell[cols]
    pooled = np.bincount(rows * size + cols, weights=graph.weights, minlength=size * size)
    return _log_scaled(pooled.reshape(size, size))


def adjacency_image_batch(
    designs: List[Union[str, ast.Module, DataFlowGraph]], size: int = DEFAULT_IMAGE_SIZE
) -> np.ndarray:
    """Stack adjacency images into an ``(N, 1, size, size)`` batch."""
    if not designs:
        return np.empty((0, 1, size, size))
    return np.stack([adjacency_image(design, size) for design in designs], axis=0)
