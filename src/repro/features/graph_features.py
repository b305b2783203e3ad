"""Graph modality: fixed-length feature embedding of the data-flow graph.

The CNN classifiers need a fixed-size numeric representation per design.
:func:`graph_feature_vector` gives one: a vector of structural graph
statistics (size, degree profile, connectivity, spectral summary, role
counts), loosely following the statistics graph-kernel methods aggregate.
(:mod:`repro.features.image` renders the graph as a 2-D adjacency image;
no model reads it.)

Trojan logic perturbs these statistics: triggers add high-fan-in comparator
nodes and weakly connected counter chains; payload muxes add edges from the
trigger wire into otherwise stable output cones.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Union

import numpy as np

from ..hdl import ast_nodes as ast
from .graph_builder import DataFlowGraph, build_dataflow_graph

if TYPE_CHECKING:  # pragma: no cover - typing only; the references import it
    import networkx as nx

#: Number of histogram bins used for the degree profile.
_DEGREE_BINS = 6
#: Number of leading Laplacian eigenvalues included in the embedding.
_SPECTRAL_COMPONENTS = 6
#: Spectra of at least this many rows are computed on one BLAS thread (see
#: :func:`_leading_eigenvalues`).  OpenBLAS keeps ``eigvalsh`` on one
#: thread by itself below about 200 rows; this bound leaves a wide margin.
_ONE_BLAS_THREAD_ROWS = 64


def _degree_histogram(degrees: List[int]) -> np.ndarray:
    """Histogram of degrees over fixed bins [0,1,2,3,4-7,8+]."""
    bins = np.zeros(_DEGREE_BINS)
    for degree in degrees:
        if degree <= 3:
            bins[degree] += 1
        elif degree <= 7:
            bins[4] += 1
        else:
            bins[5] += 1
    total = max(len(degrees), 1)
    return bins / total


def _leading_eigenvalues(laplacian: np.ndarray) -> np.ndarray:
    """The :data:`_SPECTRAL_COMPONENTS` largest eigenvalues, zero-padded.

    On large matrices OpenBLAS splits the sums of ``eigvalsh``'s
    tridiagonal reduction across its threads, so the last bits would depend
    on the process's BLAS thread count: on the core count, and on whether a
    pool worker (one thread, see :mod:`repro.engine.blas`) or the calling
    process extracted the design.  Before a spectrum of
    :data:`_ONE_BLAS_THREAD_ROWS` rows or more, the process is therefore set
    to one BLAS thread for good, which makes every path compute the same
    bits.
    """
    if laplacian.shape[0] >= _ONE_BLAS_THREAD_ROWS:
        from ..engine.blas import limit_blas_threads

        limit_blas_threads()
    eigenvalues = np.sort(np.linalg.eigvalsh(laplacian))[::-1]
    summary = np.zeros(_SPECTRAL_COMPONENTS)
    count = min(_SPECTRAL_COMPONENTS, eigenvalues.shape[0])
    summary[:count] = eigenvalues[:count]
    return summary


def _spectral_summary(undirected: nx.Graph) -> np.ndarray:
    """Leading eigenvalues of the normalised Laplacian of the undirected view."""
    import networkx as nx

    if undirected.number_of_nodes() < 2:
        return np.zeros(_SPECTRAL_COMPONENTS)
    return _leading_eigenvalues(nx.normalized_laplacian_matrix(undirected).toarray())


def _longest_path_estimate(graph: nx.DiGraph) -> float:
    """Longest path in the acyclic condensation (logic-depth proxy)."""
    import networkx as nx

    if graph.number_of_nodes() == 0:
        return 0.0
    condensation = nx.condensation(graph)
    if condensation.number_of_nodes() == 0:
        return 0.0
    return float(nx.dag_longest_path_length(condensation))


def _extract_graph_features_reference(graph: nx.DiGraph) -> Dict[str, float]:
    """Golden networkx implementation of :func:`extract_graph_features`.

    Kept as the reference the vectorized fast path is verified against
    (``tests/test_features_graph.py``, on :meth:`DataFlowGraph.to_networkx`
    graphs), mirroring the golden-kernel pattern of :mod:`repro.nn._reference`.
    """
    import networkx as nx

    n_nodes = graph.number_of_nodes()
    n_edges = graph.number_of_edges()
    in_degrees = [d for _, d in graph.in_degree()]
    out_degrees = [d for _, d in graph.out_degree()]
    roles = [data.get("role", "implicit") for _, data in graph.nodes(data=True)]
    widths = [data.get("width", 1) or 1 for _, data in graph.nodes(data=True)]
    sequential = sum(1 for _, data in graph.nodes(data=True) if data.get("sequential"))
    control_edges = sum(
        1 for _, _, data in graph.edges(data=True) if data.get("kind") == "control"
    )
    undirected = graph.to_undirected()

    # Control-role statistics: signals that *steer* other signals (mux selects
    # and branch guards).  A Trojan trigger wire is the extreme case — its only
    # use is a single control edge into the payload's target — so these
    # features give the graph modality a view of trigger/payload wiring.
    control_sources = set()
    control_only = []
    single_use_control = 0
    for node in graph.nodes:
        out_edges = list(graph.out_edges(node, data=True))
        control_out = [e for e in out_edges if e[2].get("kind") == "control"]
        if control_out:
            control_sources.add(node)
            if len(control_out) == len(out_edges):
                control_only.append(node)
                if len(out_edges) == 1:
                    single_use_control += 1

    features: Dict[str, float] = {
        "n_nodes": float(n_nodes),
        "n_edges": float(n_edges),
        "density": nx.density(graph) if n_nodes > 1 else 0.0,
        "avg_in_degree": float(np.mean(in_degrees)) if in_degrees else 0.0,
        "avg_out_degree": float(np.mean(out_degrees)) if out_degrees else 0.0,
        "max_in_degree": float(max(in_degrees)) if in_degrees else 0.0,
        "max_out_degree": float(max(out_degrees)) if out_degrees else 0.0,
        "std_in_degree": float(np.std(in_degrees)) if in_degrees else 0.0,
        "high_fanin_nodes": float(sum(1 for d in in_degrees if d >= 5)),
        "isolated_nodes": float(sum(1 for d in undirected.degree() if d[1] == 0)),
        "n_weakly_connected": float(nx.number_weakly_connected_components(graph))
        if n_nodes
        else 0.0,
        "n_strongly_connected": float(nx.number_strongly_connected_components(graph))
        if n_nodes
        else 0.0,
        "avg_clustering": float(nx.average_clustering(undirected)) if n_nodes > 1 else 0.0,
        "longest_path": _longest_path_estimate(graph),
        "n_self_loops": float(nx.number_of_selfloops(graph)),
        "n_sequential_nodes": float(sequential),
        "sequential_fraction": float(sequential) / max(n_nodes, 1),
        "control_edge_fraction": float(control_edges) / max(n_edges, 1),
        "n_control_edges": float(control_edges),
        "n_control_sources": float(len(control_sources)),
        "n_control_only_signals": float(len(control_only)),
        "n_single_use_control_signals": float(single_use_control),
        "control_source_fraction": float(len(control_sources)) / max(n_nodes, 1),
        "n_input_nodes": float(roles.count("input")),
        "n_output_nodes": float(roles.count("output")),
        "n_reg_nodes": float(roles.count("reg")),
        "n_wire_nodes": float(roles.count("wire")),
        "n_implicit_nodes": float(roles.count("implicit")),
        "n_instance_nodes": float(roles.count("instance")),
        "total_signal_width": float(sum(widths)),
        "max_signal_width": float(max(widths)) if widths else 0.0,
        "avg_signal_width": float(np.mean(widths)) if widths else 0.0,
    }
    for i, value in enumerate(_degree_histogram(in_degrees)):
        features[f"in_degree_hist_{i}"] = float(value)
    for i, value in enumerate(_degree_histogram(out_degrees)):
        features[f"out_degree_hist_{i}"] = float(value)
    for i, value in enumerate(_spectral_summary(undirected)):
        features[f"laplacian_eig_{i}"] = float(value)
    return features


def extract_graph_features(graph: DataFlowGraph) -> Dict[str, float]:
    """Structural feature dictionary for one data-flow graph.

    Works from the graph's edge arrays: bincounts give the degree profile,
    isolated nodes, self-loops and control roles; union-find and an
    iterative Tarjan count components, and an integer DP over the SCC
    condensation gives the logic depth; an exact integer bitset kernel
    counts triangles (:func:`_triangle_paths`).  The only
    ``n x n`` arrays are the undirected weight matrix and its normalised
    Laplacian, which ``eigvalsh`` needs (:func:`_laplacian_spectrum`).
    Produces bit-identical values to :func:`_extract_graph_features_reference`
    — edge weights are integer counts, so every intermediate sum is exact in
    float64 and the remaining float operations replicate the reference's
    order.
    """
    n_nodes = graph.number_of_nodes()
    if n_nodes == 0:
        # Every statistic of the empty graph, the reference's included, is 0.
        return dict.fromkeys(GRAPH_FEATURE_NAMES, 0.0)

    sources, targets = graph.sources, graph.targets
    n_edges = len(sources)
    control = graph.kinds == "control"
    control_edges = int(control.sum())

    in_degrees = np.bincount(targets, minlength=n_nodes)
    out_degrees = np.bincount(sources, minlength=n_nodes)
    node_data = list(graph.nodes.values())
    roles = [data.get("role", "implicit") for data in node_data]
    widths = [data.get("width", 1) or 1 for data in node_data]
    sequential = sum(1 for data in node_data if data.get("sequential"))

    edge_list = list(zip(sources.tolist(), targets.tolist()))
    n_weak = _count_weak_components(n_nodes, edge_list)
    n_strong, scc_labels = _strongly_connected_components(n_nodes, edge_list)

    # Average clustering, replicating networkx's per-node arithmetic: the
    # triangle counts and degrees are integers, so only the final divisions
    # and the (node-ordered) sum touch floats.
    triangle_paths, simple_degrees = _triangle_paths(n_nodes, sources, targets)
    coefficients = np.zeros(n_nodes)
    positive = triangle_paths > 0
    coefficients[positive] = triangle_paths[positive] / (
        simple_degrees[positive] * (simple_degrees[positive] - 1.0)
    )
    avg_clustering = (
        float(sum(coefficients.tolist()) / n_nodes) if n_nodes > 1 else 0.0
    )

    # Control-role statistics (see the reference implementation for intent),
    # as comparisons on the per-node out-edge and control-out-edge counts.
    control_out_counts = np.bincount(sources[control], minlength=n_nodes)
    has_control_out = control_out_counts > 0
    n_control_sources = int(has_control_out.sum())
    control_only_mask = has_control_out & (control_out_counts == out_degrees)
    n_control_only = int(control_only_mask.sum())
    single_use_control = int((control_only_mask & (out_degrees == 1)).sum())

    features: Dict[str, float] = {
        "n_nodes": float(n_nodes),
        "n_edges": float(n_edges),
        # nx.density of a DiGraph, without its O(n) edge recount.
        "density": n_edges / (n_nodes * (n_nodes - 1)) if n_nodes > 1 else 0.0,
        "avg_in_degree": float(np.mean(in_degrees)),
        "avg_out_degree": float(np.mean(out_degrees)),
        "max_in_degree": float(in_degrees.max()),
        "max_out_degree": float(out_degrees.max()),
        "std_in_degree": float(np.std(in_degrees)),
        "high_fanin_nodes": float((in_degrees >= 5).sum()),
        "isolated_nodes": float(((in_degrees + out_degrees) == 0).sum()),
        "n_weakly_connected": float(n_weak),
        "n_strongly_connected": float(n_strong),
        "avg_clustering": avg_clustering,
        "longest_path": _longest_path_from_sccs(sources, targets, scc_labels, n_strong),
        "n_self_loops": float((sources == targets).sum()),
        "n_sequential_nodes": float(sequential),
        "sequential_fraction": float(sequential) / max(n_nodes, 1),
        "control_edge_fraction": float(control_edges) / max(n_edges, 1),
        "n_control_edges": float(control_edges),
        "n_control_sources": float(n_control_sources),
        "n_control_only_signals": float(n_control_only),
        "n_single_use_control_signals": float(single_use_control),
        "control_source_fraction": float(n_control_sources) / max(n_nodes, 1),
        "n_input_nodes": float(roles.count("input")),
        "n_output_nodes": float(roles.count("output")),
        "n_reg_nodes": float(roles.count("reg")),
        "n_wire_nodes": float(roles.count("wire")),
        "n_implicit_nodes": float(roles.count("implicit")),
        "n_instance_nodes": float(roles.count("instance")),
        "total_signal_width": float(sum(widths)),
        "max_signal_width": float(max(widths)) if widths else 0.0,
        "avg_signal_width": float(np.mean(widths)) if widths else 0.0,
    }
    for i, value in enumerate(_degree_histogram(in_degrees.tolist())):
        features[f"in_degree_hist_{i}"] = float(value)
    for i, value in enumerate(_degree_histogram(out_degrees.tolist())):
        features[f"out_degree_hist_{i}"] = float(value)
    weights = graph.weights.astype(np.float64)
    for i, value in enumerate(_laplacian_spectrum(n_nodes, sources, targets, weights)):
        features[f"laplacian_eig_{i}"] = float(value)
    return features


def _triangle_paths(
    n_nodes: int, sources: np.ndarray, targets: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """``(paths, degrees)`` of the undirected simple view of the edges.

    ``degrees[i]`` is node ``i``'s neighbour count with self-loops dropped
    and reciprocal edges merged; ``paths[i]`` is the number of ordered
    neighbour pairs of ``i`` that are themselves adjacent — twice its
    triangles, the numerator of networkx's clustering coefficient.

    Each node's neighbour set is one packed row of bits (``n`` rows of
    ``ceil(n / 8)`` bytes), and the shared neighbours of an edge's two ends
    are one ``AND`` plus ``np.bitwise_count``.  The count is exact integer
    work over ``E * n / 8`` bytes; the dense ``A @ A * A`` it replaces is an
    integer matrix product, which numpy cannot hand to BLAS and runs as an
    ``O(n^3)`` loop.
    """
    loops = sources == targets
    low = np.minimum(sources[~loops], targets[~loops])
    high = np.maximum(sources[~loops], targets[~loops])
    low, high = np.divmod(np.unique(low * n_nodes + high), n_nodes)
    degrees = np.bincount(low, minlength=n_nodes) + np.bincount(high, minlength=n_nodes)
    width = (n_nodes + 7) // 8
    rows = np.zeros(n_nodes * width, dtype=np.uint8)
    for row, column in ((low, high), (high, low)):
        bits = np.left_shift(1, column & 7).astype(np.uint8)
        np.bitwise_or.at(rows, row * width + (column >> 3), bits)
    rows = rows.reshape(n_nodes, width)
    shared = np.bitwise_count(rows[low] & rows[high]).sum(axis=1)
    paths = np.bincount(low, weights=shared, minlength=n_nodes) + np.bincount(
        high, weights=shared, minlength=n_nodes
    )
    return paths, degrees


def _laplacian_spectrum(
    n_nodes: int, sources: np.ndarray, targets: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """``_spectral_summary(graph.to_undirected())`` built from edge arrays.

    The undirected weight matrix follows ``DiGraph.to_undirected``'s merge
    rule: it visits edges by source in node order and the last visit wins,
    so of two reciprocal edges the one whose source comes later takes the
    pair.  The normalised Laplacian repeats the operation order of
    ``nx.normalized_laplacian_matrix``, so the eigenvalues match the
    reference bit for bit.  Both ``n x n`` arrays are built in place, and
    ``eigvalsh`` on the Laplacian is the one ``O(n^3)`` step of graph
    features.
    """
    if n_nodes < 2:
        return np.zeros(_SPECTRAL_COMPONENTS)
    undirected = np.zeros((n_nodes, n_nodes))
    for mask in (sources < targets, sources > targets):
        u, v, w = sources[mask], targets[mask], weights[mask]
        undirected[u, v] = w
        undirected[v, u] = w
    loops = sources == targets
    undirected[sources[loops], sources[loops]] = weights[loops]
    diagonal = undirected.sum(axis=1)
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(diagonal)
    inv_sqrt[np.isinf(inv_sqrt)] = 0.0
    laplacian = np.diag(diagonal)
    laplacian -= undirected
    del undirected
    laplacian *= inv_sqrt[None, :]
    laplacian *= inv_sqrt[:, None]
    return _leading_eigenvalues(laplacian)


def _count_weak_components(n_nodes: int, edges: List[tuple]) -> int:
    """Number of weakly connected components, via union-find.

    Near-linear in the edge count with path compression, so it scales to
    the thousand-node graphs of wide designs; on the small graphs of most
    designs it also beats the scipy ``csgraph`` call, whose input
    validation alone costs more than the whole union-find.
    """
    parent = list(range(n_nodes))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    count = n_nodes
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            count -= 1
    return count


def _strongly_connected_components(
    n_nodes: int, edges: List[tuple]
) -> "tuple[int, np.ndarray]":
    """``(count, labels)`` of strongly connected components (iterative Tarjan)."""
    successors: List[List[int]] = [[] for _ in range(n_nodes)]
    for u, v in edges:
        successors[u].append(v)
    UNVISITED = -1
    order = [UNVISITED] * n_nodes
    low = [0] * n_nodes
    on_stack = [False] * n_nodes
    scc_stack: List[int] = []
    labels = np.empty(n_nodes, dtype=np.int64)
    counter = 0
    n_scc = 0
    for root in range(n_nodes):
        if order[root] != UNVISITED:
            continue
        # Explicit DFS stack of (node, iterator index into successors).
        work = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                order[node] = low[node] = counter
                counter += 1
                scc_stack.append(node)
                on_stack[node] = True
            advanced = False
            children = successors[node]
            while child_index < len(children):
                child = children[child_index]
                child_index += 1
                if order[child] == UNVISITED:
                    work.append((node, child_index))
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack[child] and order[child] < low[node]:
                    low[node] = order[child]
            if advanced:
                continue
            if low[node] == order[node]:
                while True:
                    member = scc_stack.pop()
                    on_stack[member] = False
                    labels[member] = n_scc
                    if member == node:
                        break
                n_scc += 1
            if work:
                parent_node = work[-1][0]
                if low[node] < low[parent_node]:
                    low[parent_node] = low[node]
    return n_scc, labels


def _longest_path_from_sccs(
    sources: np.ndarray, targets: np.ndarray, scc_labels: np.ndarray, n_scc: int
) -> float:
    """Longest path (edge count) in the SCC condensation — a DAG.

    Integer dynamic program over the condensation's edges, equivalent to
    ``nx.dag_longest_path_length(nx.condensation(graph))`` in
    :func:`_longest_path_estimate` but reusing the already-computed SCC
    labels and edge arrays.
    """
    if n_scc == 0:
        return 0.0
    src_comp = scc_labels[sources]
    dst_comp = scc_labels[targets]
    cross = src_comp != dst_comp
    edges = set(zip(src_comp[cross].tolist(), dst_comp[cross].tolist()))
    if not edges:
        return 0.0
    # Kahn topological order over the (small) condensation, then a longest-
    # path relaxation per edge in that order.
    successors: Dict[int, List[int]] = {}
    indegree = np.zeros(n_scc, dtype=np.int64)
    for u, v in edges:
        successors.setdefault(int(u), []).append(int(v))
        indegree[v] += 1
    ready = [int(c) for c in range(n_scc) if indegree[c] == 0]
    longest = np.zeros(n_scc, dtype=np.int64)
    while ready:
        u = ready.pop()
        base = longest[u] + 1
        for v in successors.get(u, ()):
            if base > longest[v]:
                longest[v] = base
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return float(longest.max())


#: Canonical feature ordering for the graph modality, derived from a probe
#: design the same way as the tabular ordering.
GRAPH_FEATURE_NAMES: List[str] = sorted(
    extract_graph_features(
        build_dataflow_graph(
            "module __probe (clk, a, y); input clk; input [3:0] a; output y;\n"
            "  assign y = a == 4'd3;\nendmodule\n"
        )
    )
)


def graph_feature_vector(design: Union[str, ast.Module, DataFlowGraph]) -> np.ndarray:
    """Graph statistics as a fixed-order numpy vector for one design."""
    graph = design if isinstance(design, DataFlowGraph) else build_dataflow_graph(design)
    features = extract_graph_features(graph)
    return np.asarray([features[name] for name in GRAPH_FEATURE_NAMES], dtype=np.float64)


def graph_feature_matrix(designs: List[Union[str, ast.Module, DataFlowGraph]]) -> np.ndarray:
    """Stack graph feature vectors into an ``(N, G)`` matrix."""
    if not designs:
        return np.empty((0, len(GRAPH_FEATURE_NAMES)))
    return np.vstack([graph_feature_vector(design) for design in designs])
