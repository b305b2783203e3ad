"""Graph modality: data-flow graph construction from the RTL AST.

Following the hw2vec approach referenced by the paper, each design is
converted into a signal-level data-flow graph: nodes are declared signals
(ports, wires, regs), and a directed edge ``a -> b`` means the value of ``a``
flows into the computation of ``b`` — either directly through an assignment
right-hand side or through the control condition (if/case guard) under which
``b`` is assigned.  Node attributes record signal role and width so the
feature stage can build role-aware statistics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..hdl import ast_nodes as ast
from ..hdl.parser import parse_module
from ..hdl.visitor import walk

if TYPE_CHECKING:  # pragma: no cover - typing only; networkx loads lazily
    import networkx as nx


class DataFlowGraph:
    """A signal data-flow graph as node attributes plus edge arrays.

    ``nodes`` maps each node name to its attribute dict (``role``,
    ``width``, ``kind`` and, where set, ``storage`` and ``sequential``) in
    insertion order.  Edge ``i`` runs from node ``sources[i]`` to node
    ``targets[i]`` (positions in ``nodes``) with integer ``weights[i]`` and
    ``kinds[i]`` (``"data"``, ``"control"`` or ``"port"``).

    The constructor takes the edges as ``(source, target, weight, kind)``
    in insertion order, each endpoint already in ``nodes``, and orders them
    by source node, then by insertion: the order of ``networkx.DiGraph.edges``
    for the same insertions.  The feature kernels need no other view, so a
    scan never imports networkx; :meth:`to_networkx` builds the ``DiGraph``
    the golden references take.
    """

    def __init__(
        self,
        name: str,
        nodes: Dict[str, Dict[str, Any]],
        edges: Iterable[Tuple[str, str, int, str]] = (),
    ) -> None:
        self.name = name
        self.nodes = nodes
        index = {node: i for i, node in enumerate(nodes)}
        edges = list(edges)
        sources = np.array([index[edge[0]] for edge in edges], dtype=np.intp)
        order = np.argsort(sources, kind="stable")
        self.sources = sources[order]
        self.targets = np.array([index[edge[1]] for edge in edges], dtype=np.intp)[order]
        self.weights = np.array([edge[2] for edge in edges], dtype=np.int64)[order]
        self.kinds = np.array([edge[3] for edge in edges], dtype=str)[order]

    def number_of_nodes(self) -> int:
        """Node count, as ``networkx.DiGraph.number_of_nodes``."""
        return len(self.nodes)

    def number_of_edges(self) -> int:
        """Edge count, as ``networkx.DiGraph.number_of_edges``."""
        return len(self.sources)

    def to_networkx(self) -> nx.DiGraph:
        """The same graph as a ``networkx.DiGraph``, for the golden references.

        Node and edge attributes and the order of ``nodes`` and ``edges``
        match the graph built with networkx from the same insertions.
        """
        import networkx as nx

        graph = nx.DiGraph(name=self.name)
        graph.add_nodes_from((node, dict(data)) for node, data in self.nodes.items())
        names = list(self.nodes)
        graph.add_edges_from(
            (names[source], names[target], {"kind": kind, "weight": weight})
            for source, target, weight, kind in zip(
                self.sources.tolist(),
                self.targets.tolist(),
                self.weights.tolist(),
                self.kinds.tolist(),
            )
        )
        return graph


def _base_identifier(node: ast.Node) -> Optional[str]:
    """Name of the signal a (possibly selected) assignment target refers to."""
    base = node
    while isinstance(base, (ast.BitSelect, ast.PartSelect)):
        base = base.base
    if isinstance(base, ast.Identifier):
        return base.name
    return None


def _identifiers_in(node: ast.Node) -> List[str]:
    # Inlined pre-order walk (hot path): same visit order as
    # ``visitor.walk`` without the generator machinery.
    names: List[str] = []
    stack = [node]
    while stack:
        current = stack.pop()
        if type(current) is ast.Identifier:
            names.append(current.name)
        else:
            stack.extend(reversed(current.children()))
    return names


class DataFlowGraphBuilder:
    """Builds the signal data-flow graph of a single module."""

    def __init__(self, module: ast.Module) -> None:
        self.module = module
        self.nodes: Dict[str, Dict[str, Any]] = {}
        # (source, target) -> [weight, kind], in first-insertion order.
        self.edges: Dict[Tuple[str, str], List[Any]] = {}

    # -- nodes ------------------------------------------------------------
    def _add_node(self, name: str, **attributes: Any) -> None:
        self.nodes.setdefault(name, {}).update(attributes)

    def _add_signal_nodes(self) -> None:
        for decl in self.module.port_declarations():
            role = decl.direction
            for name in decl.names:
                self._add_node(name, role=role, width=decl.width(), kind="port")
        for decl in self.module.net_declarations():
            role = "reg" if decl.net_type == "reg" else "wire"
            for name in decl.names:
                if name in self.nodes:
                    # output reg declared both as port and as reg: keep the
                    # port role but remember the storage kind.
                    self.nodes[name]["storage"] = decl.net_type
                    continue
                self._add_node(name, role=role, width=decl.width(), kind="net")

    def _ensure_node(self, name: str) -> None:
        if name not in self.nodes:
            self._add_node(name, role="implicit", width=1, kind="implicit")

    # -- edges ------------------------------------------------------------
    def _add_edge(self, source: str, target: str, kind: str) -> None:
        self._ensure_node(source)
        edge = self.edges.get((source, target))
        if edge is not None:
            edge[0] += 1
            # A control use upgrades an existing data edge so the security
            # relevant role is never lost.
            if kind == "control":
                edge[1] = "control"
        else:
            self.edges[(source, target)] = [1, kind]

    def _add_expression_edges(self, target: str, expression: ast.Node, kind: str) -> None:
        """Add edges for an expression, treating ternary selects as control.

        Multiplexer select signals (the condition of ``cond ? a : b``) steer
        which value reaches ``target`` rather than contributing bits to it —
        exactly the role a Trojan trigger plays on a payload mux — so they
        are recorded as control edges regardless of the surrounding context.
        """
        if isinstance(expression, ast.Ternary):
            for source in _identifiers_in(expression.condition):
                self._add_edge(source, target, "control")
            self._add_expression_edges(target, expression.if_true, kind)
            self._add_expression_edges(target, expression.if_false, kind)
            return
        children = expression.children()
        if isinstance(expression, ast.Identifier):
            self._add_edge(expression.name, target, kind)
            return
        if not children:
            return
        for child in children:
            self._add_expression_edges(target, child, kind)

    def _add_data_edges(self, target: Optional[str], expression: ast.Node, kind: str) -> None:
        if target is None:
            return
        self._ensure_node(target)
        self._add_expression_edges(target, expression, kind)

    def _walk_statement(self, statement: ast.Node, conditions: List[ast.Node]) -> None:
        if isinstance(statement, ast.Block):
            for inner in statement.statements:
                self._walk_statement(inner, conditions)
        elif isinstance(statement, ast.If):
            nested = conditions + [statement.condition]
            self._walk_statement(statement.then_branch, nested)
            if statement.else_branch is not None:
                self._walk_statement(statement.else_branch, nested)
        elif isinstance(statement, ast.Case):
            nested = conditions + [statement.subject]
            for item in statement.items:
                self._walk_statement(item.body, nested)
        elif isinstance(statement, ast.ForLoop):
            self._walk_statement(statement.body, conditions + [statement.condition])
        elif isinstance(statement, (ast.BlockingAssign, ast.NonBlockingAssign)):
            target = _base_identifier(statement.target)
            self._add_data_edges(target, statement.value, kind="data")
            for condition in conditions:
                self._add_data_edges(target, condition, kind="control")
        # System tasks and other statements carry no data flow.

    def build(self) -> DataFlowGraph:
        """The module's data-flow graph."""
        self._add_signal_nodes()
        for item in self.module.items:
            if isinstance(item, ast.ContinuousAssign):
                target = _base_identifier(item.target)
                self._add_data_edges(target, item.value, kind="data")
            elif isinstance(item, ast.Always):
                clock_conditions: List[ast.Node] = []
                # Edge-triggered sensitivity signals act as control sources.
                for sens in item.sensitivity:
                    if sens.edge is not None:
                        clock_conditions.append(sens.signal)
                self._walk_statement(item.body, clock_conditions)
            elif isinstance(item, ast.Initial):
                self._walk_statement(item.body, [])
            elif isinstance(item, ast.Instantiation):
                self._add_instantiation_edges(item)
        self._annotate_sequential_nodes()
        edges = [(*pair, weight, kind) for pair, (weight, kind) in self.edges.items()]
        return DataFlowGraph(self.module.name, self.nodes, edges)

    def _add_instantiation_edges(self, inst: ast.Instantiation) -> None:
        """Connect instance connections through a pseudo-node for the instance."""
        instance_node = f"{inst.module_name}.{inst.instance_name}"
        self._add_node(instance_node, role="instance", width=0, kind="instance")
        for connection in inst.connections:
            if connection.expr is None:
                continue
            for signal in _identifiers_in(connection.expr):
                self._ensure_node(signal)
                # Direction is unknown without the child module: connect both ways.
                self.edges[(signal, instance_node)] = [1, "port"]
                self.edges[(instance_node, signal)] = [1, "port"]

    def _annotate_sequential_nodes(self) -> None:
        """Mark signals assigned in edge-triggered always blocks as sequential."""
        for always in self.module.always_blocks():
            if not always.is_sequential:
                continue
            for node in walk(always.body):
                if isinstance(node, ast.NonBlockingAssign):
                    target = _base_identifier(node.target)
                    if target is not None and target in self.nodes:
                        self.nodes[target]["sequential"] = True


def build_dataflow_graph(design: Union[str, ast.Module]) -> DataFlowGraph:
    """Build the signal data-flow graph for one design (source or parsed)."""
    module = parse_module(design) if isinstance(design, str) else design
    return DataFlowGraphBuilder(module).build()


def graph_summary(graph: DataFlowGraph) -> Dict[str, float]:
    """Tiny structural summary used for logging and sanity checks."""
    nodes = graph.nodes.values()
    return {
        "n_nodes": float(graph.number_of_nodes()),
        "n_edges": float(graph.number_of_edges()),
        "n_sequential": float(sum(1 for data in nodes if data.get("sequential"))),
        "n_inputs": float(sum(1 for data in nodes if data.get("role") == "input")),
        "n_outputs": float(sum(1 for data in nodes if data.get("role") == "output")),
    }
