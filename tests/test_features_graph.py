"""Tests for data-flow graph construction, graph features and adjacency images."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.features import (
    DEFAULT_IMAGE_SIZE,
    GRAPH_FEATURE_NAMES,
    DataFlowGraph,
    adjacency_image,
    adjacency_image_batch,
    build_dataflow_graph,
    extract_graph_features,
    graph_feature_matrix,
    graph_feature_vector,
    graph_summary,
)
from repro.trojan import generate_host, insert_trojan


class TestGraphBuilder:
    def test_nodes_are_declared_signals(self, sample_verilog) -> None:
        graph = build_dataflow_graph(sample_verilog)
        for signal in ("clk", "rst", "data_in", "result", "state", "count", "timeout"):
            assert signal in graph.nodes

    def test_node_roles(self, sample_verilog) -> None:
        graph = build_dataflow_graph(sample_verilog)
        assert graph.nodes["clk"]["role"] == "input"
        assert graph.nodes["result"]["role"] == "output"
        assert graph.nodes["state"]["role"] == "reg"
        assert graph.nodes["timeout"]["role"] == "wire"

    def test_data_edges_from_assigns(self, sample_verilog) -> None:
        graph = build_dataflow_graph(sample_verilog).to_networkx()
        assert graph.has_edge("count", "timeout")
        assert graph.has_edge("data_in", "result")

    def test_control_edges_from_conditions(self, sample_verilog) -> None:
        graph = build_dataflow_graph(sample_verilog).to_networkx()
        # ``mode`` is the case subject steering ``result``.
        assert graph.has_edge("mode", "result")
        assert graph["mode"]["result"]["kind"] == "control"
        # ``start`` guards the state transition.
        assert graph.has_edge("start", "state")

    def test_clock_contributes_control_edges(self, sample_verilog) -> None:
        graph = build_dataflow_graph(sample_verilog).to_networkx()
        assert graph.has_edge("clk", "state")

    def test_sequential_annotation(self, sample_verilog) -> None:
        graph = build_dataflow_graph(sample_verilog)
        assert graph.nodes["state"].get("sequential") is True
        assert graph.nodes["timeout"].get("sequential") is None

    def test_ternary_condition_is_control_edge(self) -> None:
        graph = build_dataflow_graph(
            "module mux (input s, input [3:0] a, input [3:0] b, output [3:0] y);\n"
            "  assign y = s ? a : b;\nendmodule\n"
        ).to_networkx()
        assert graph["s"]["y"]["kind"] == "control"
        assert graph["a"]["y"]["kind"] == "data"

    def test_edge_weights_accumulate(self) -> None:
        graph = build_dataflow_graph(
            "module w (input [3:0] a, output [3:0] y);\n  assign y = a + a;\nendmodule\n"
        ).to_networkx()
        assert graph["a"]["y"]["weight"] == 2

    def test_instantiation_creates_instance_node(self) -> None:
        graph = build_dataflow_graph(
            "module top (input clk, output y);\n  wire w;\n"
            "  sub u1 (.c(clk), .o(w));\n  assign y = w;\nendmodule\n"
        )
        assert "sub.u1" in graph.nodes
        assert graph.nodes["sub.u1"]["role"] == "instance"

    def test_graph_summary(self, sample_verilog) -> None:
        summary = graph_summary(build_dataflow_graph(sample_verilog))
        assert summary["n_nodes"] > 0
        assert summary["n_inputs"] == 5
        assert summary["n_outputs"] == 2


class TestGraphFeatures:
    def test_feature_names_sorted_unique(self) -> None:
        assert GRAPH_FEATURE_NAMES == sorted(GRAPH_FEATURE_NAMES)
        assert len(GRAPH_FEATURE_NAMES) == len(set(GRAPH_FEATURE_NAMES))

    def test_vector_matches_names(self, sample_verilog) -> None:
        graph = build_dataflow_graph(sample_verilog)
        features = extract_graph_features(graph)
        vector = graph_feature_vector(graph)
        assert vector.shape == (len(GRAPH_FEATURE_NAMES),)
        for i, name in enumerate(GRAPH_FEATURE_NAMES):
            assert vector[i] == pytest.approx(features[name])

    def test_accepts_source_module_or_graph(self, sample_verilog) -> None:
        from_source = graph_feature_vector(sample_verilog)
        from_graph = graph_feature_vector(build_dataflow_graph(sample_verilog))
        np.testing.assert_allclose(from_source, from_graph)

    def test_all_finite_on_suite(self, small_features) -> None:
        assert np.all(np.isfinite(small_features.graph))

    def test_degree_histogram_normalised(self, sample_verilog) -> None:
        features = extract_graph_features(build_dataflow_graph(sample_verilog))
        in_hist = [features[f"in_degree_hist_{i}"] for i in range(6)]
        out_hist = [features[f"out_degree_hist_{i}"] for i in range(6)]
        assert sum(in_hist) == pytest.approx(1.0)
        assert sum(out_hist) == pytest.approx(1.0)

    def test_empty_graph_features(self) -> None:
        features = extract_graph_features(DataFlowGraph("empty", {}))
        assert features["n_nodes"] == 0.0
        assert features["density"] == 0.0
        assert np.isfinite(list(features.values())).all()

    def test_matrix_shape(self, small_dataset) -> None:
        matrix = graph_feature_matrix(small_dataset.sources[:4])
        assert matrix.shape == (4, len(GRAPH_FEATURE_NAMES))

    def test_control_only_signal_detection(self) -> None:
        rng = np.random.default_rng(3)
        host = generate_host("crypto", rng, name="h")
        infected = insert_trojan(host, rng, trigger_kind="comparator", payload_kind="dos")
        clean = extract_graph_features(build_dataflow_graph(host))
        dirty = extract_graph_features(build_dataflow_graph(infected.source))
        assert dirty["n_control_only_signals"] >= clean["n_control_only_signals"]
        assert dirty["n_nodes"] > clean["n_nodes"]


class TestAdjacencyImage:
    def test_shape_and_range(self, sample_verilog) -> None:
        image = adjacency_image(sample_verilog)
        assert image.shape == (1, DEFAULT_IMAGE_SIZE, DEFAULT_IMAGE_SIZE)
        assert image.min() >= 0.0 and image.max() <= 1.0

    def test_custom_size_padding_and_pooling(self, sample_verilog) -> None:
        small = adjacency_image(sample_verilog, size=8)
        large = adjacency_image(sample_verilog, size=64)
        assert small.shape == (1, 8, 8)
        assert large.shape == (1, 64, 64)

    def test_empty_graph_image_is_zero(self) -> None:
        image = adjacency_image(DataFlowGraph("empty", {}), size=8)
        assert image.shape == (1, 8, 8)
        assert np.all(image == 0.0)

    def test_batch_stacking(self, small_dataset) -> None:
        batch = adjacency_image_batch(small_dataset.sources[:3], size=12)
        assert batch.shape == (3, 1, 12, 12)

    def test_invalid_size_rejected(self, sample_verilog) -> None:
        with pytest.raises(ValueError):
            adjacency_image(sample_verilog, size=0)

    def test_deterministic(self, sample_verilog) -> None:
        np.testing.assert_array_equal(
            adjacency_image(sample_verilog), adjacency_image(sample_verilog)
        )


# Reciprocal pairs with different weights, one added backward edge first:
# ``to_undirected`` keeps the edge whose source comes later in node order,
# whatever the insertion order.
_RECIPROCAL_EDGES = [
    ("y", "x", 3, "data"),
    ("x", "y", 7, "control"),
    ("x", "z", 2, "data"),
    ("z", "x", 5, "control"),
    ("y", "z", 1, "data"),
    ("w", "z", 4, "data"),
]


def _odd_graphs():
    """Hand-built graphs for corner cases the HDL generators rarely produce.

    Nodes and edges are listed in insertion order; ``DataFlowGraph`` orders
    the edges by source as ``networkx.DiGraph.edges`` would.
    """
    self_loop = DataFlowGraph(
        "self_loop",
        {"q": {}, "d": {}, "e": {}},
        [("q", "q", 2, "data"), ("q", "d", 1, "control"), ("d", "e", 3, "data"),
         ("e", "q", 1, "data")],
    )

    reciprocal = DataFlowGraph(
        "reciprocal",
        {name: {"role": "wire", "width": 4} for name in ("x", "y", "z", "w")},
        _RECIPROCAL_EDGES,
    )

    # Instance pseudo-node wired both ways to each connected signal.
    port_nodes = {"sub.u1": {"role": "instance", "width": 0}}
    port_edges = []
    for signal in ("clk", "a", "b"):
        port_nodes[signal] = {"role": "input", "width": 1}
        port_edges += [(signal, "sub.u1", 1, "port"), ("sub.u1", signal, 1, "port")]
    ports = DataFlowGraph("ports", port_nodes, port_edges + [("a", "b", 2, "data")])

    isolated = DataFlowGraph(
        "isolated",
        {"i0": {"role": "wire", "width": 2}, "i1": {"role": "wire", "width": 2},
         "a": {}, "b": {}, "i2": {"role": "reg", "sequential": True}},
        [("a", "b", 1, "control")],
    )

    edgeless = DataFlowGraph("edgeless", {"p": {}, "q": {}, "r": {}})

    single = DataFlowGraph("single", {"only": {"role": "input", "width": 4}})

    single_loop = DataFlowGraph("single_loop", {"s": {}}, [("s", "s", 3, "data")])

    return {
        "self_loop": self_loop,
        "reciprocal": reciprocal,
        "ports": ports,
        "isolated": isolated,
        "edgeless": edgeless,
        "single": single,
        "single_loop": single_loop,
        "empty": DataFlowGraph("empty", {}),
    }


class TestDataFlowGraph:
    def test_edge_order_and_networkx_view_match_networkx(self) -> None:
        """Edge arrays and ``to_networkx`` equal a DiGraph of the same insertions."""
        expected = nx.DiGraph(name="reciprocal")
        expected.add_nodes_from(["x", "y", "z", "w"], role="wire", width=4)
        for source, target, weight, kind in _RECIPROCAL_EDGES:
            expected.add_edge(source, target, kind=kind, weight=weight)
        graph = _odd_graphs()["reciprocal"]
        names = list(graph.nodes)
        edges = [(names[s], names[t]) for s, t in zip(graph.sources, graph.targets)]
        assert edges == list(expected.edges)
        assert (graph.number_of_nodes(), graph.number_of_edges()) == (4, 6)
        rebuilt = graph.to_networkx()
        assert rebuilt.graph == expected.graph
        assert list(rebuilt.nodes(data=True)) == list(expected.nodes(data=True))
        assert list(rebuilt.edges(data=True)) == list(expected.edges(data=True))


class TestVectorizedGraphFeaturesEquivalence:
    """The edge-array fast path must be bit-identical to the networkx reference."""

    @staticmethod
    def _assert_bit_identical(graph) -> None:
        from repro.features.graph_features import (
            _extract_graph_features_reference,
            extract_graph_features,
        )

        fast = extract_graph_features(graph)
        reference = _extract_graph_features_reference(graph.to_networkx())
        assert set(fast) == set(reference)
        for key in reference:
            assert fast[key] == reference[key], key

    def test_bit_identical_on_wide_designs(self, wide_designs) -> None:
        for _, source in wide_designs:
            self._assert_bit_identical(build_dataflow_graph(source))

    @pytest.mark.parametrize("name", sorted(_odd_graphs()))
    def test_bit_identical_on_odd_graphs(self, name) -> None:
        self._assert_bit_identical(_odd_graphs()[name])

    @pytest.mark.parametrize("size", [8, 16, 64])
    def test_adjacency_image_matches_dense_reference(self, size, wide_designs) -> None:
        from repro.features.image import _adjacency_image_reference
        from repro.trojan import SuiteConfig, TrojanDataset

        suite = TrojanDataset.generate(
            SuiteConfig(n_trojan_free=6, n_trojan_infected=3, seed=29)
        )
        graphs = [build_dataflow_graph(b.source) for b in suite.benchmarks]
        graphs += [build_dataflow_graph(source) for _, source in wide_designs]
        graphs += list(_odd_graphs().values())
        for graph in graphs:
            np.testing.assert_array_equal(
                adjacency_image(graph, size=size),
                _adjacency_image_reference(graph.to_networkx(), size=size),
            )

    def test_bit_identical_on_generated_suite(self) -> None:
        from repro.trojan import SuiteConfig, TrojanDataset

        suite = TrojanDataset.generate(
            SuiteConfig(n_trojan_free=6, n_trojan_infected=3, seed=29)
        )
        for benchmark in suite.benchmarks:
            self._assert_bit_identical(build_dataflow_graph(benchmark.source))

    def test_bit_identical_on_fixture(self, sample_verilog) -> None:
        self._assert_bit_identical(build_dataflow_graph(sample_verilog))
