"""Tabular (Euclidean) modality: code-branching features from the RTL AST.

This mirrors the Trust-Hub "code branching" feature dataset the paper uses
for its tabular modality: per-design scalar features summarising how the RTL
source branches, assigns and compares.  Trojan triggers show up here as
unusual comparison-against-wide-constant patterns, extra rare branches and
additional counters, without any feature explicitly encoding "is a Trojan".

The extractor is deterministic and purely structural (no simulation), so it
works on any design the :mod:`repro.hdl` front-end can parse.
"""

from __future__ import annotations

from typing import Dict, List, Union

import numpy as np

from ..hdl import ast_nodes as ast
from ..hdl.parser import parse_module

_COMPARISON_OPS = {"==", "!=", "===", "!==", "<", "<=", ">", ">="}
_LOGICAL_OPS = {"&&", "||"}
_XOR_OPS = {"^", "~^", "^~"}


def _scan_ast(module: ast.Module):
    """One pre-order walk computing everything the extractor needs.

    Returns ``(buckets, node_count, max_depth, branch_nesting_depth)``.
    Bucketing by concrete type is equivalent to per-type ``collect`` calls
    (the AST hierarchy is flat), and both depth statistics fold into the
    same traversal, so the whole module is visited exactly once.
    """
    buckets: Dict[type, List[ast.Node]] = {}
    count = 0
    deepest = 0
    branch_deepest = 0
    branching = (ast.If, ast.Case)
    # Stack entries: (node, depth-from-root, enclosing branch nesting).
    stack: List[tuple] = [(module, 0, 0)]
    while stack:
        node, depth, branch_depth = stack.pop()
        count += 1
        buckets.setdefault(type(node), []).append(node)
        if depth > deepest:
            deepest = depth
        if isinstance(node, branching):
            branch_depth += 1
            if branch_depth > branch_deepest:
                branch_deepest = branch_depth
        child_depth = depth + 1
        stack.extend(
            (child, child_depth, branch_depth) for child in reversed(node.children())
        )
    return buckets, count, deepest + 1, branch_deepest


def _is_constant_comparison(node: ast.BinaryOp) -> bool:
    return node.op in ("==", "!=") and (
        isinstance(node.left, ast.Number) or isinstance(node.right, ast.Number)
    )


def _constant_bitwidth(node: ast.BinaryOp) -> int:
    for side in (node.left, node.right):
        if isinstance(side, ast.Number):
            if side.width:
                return side.width
            if side.value:
                return max(1, int(side.value).bit_length())
    return 0


def _is_counter_increment(node: ast.Node) -> bool:
    """Detect ``x <= x + c`` / ``x = x + c`` self-increment patterns."""
    if not isinstance(node, (ast.NonBlockingAssign, ast.BlockingAssign)):
        return False
    target = node.target
    value = node.value
    if not isinstance(target, ast.Identifier) or not isinstance(value, ast.BinaryOp):
        return False
    if value.op not in ("+", "-"):
        return False
    sides = (value.left, value.right)
    has_self = any(isinstance(s, ast.Identifier) and s.name == target.name for s in sides)
    has_const = any(isinstance(s, ast.Number) for s in sides)
    return has_self and has_const


def extract_tabular_features(design: Union[str, ast.Module]) -> Dict[str, float]:
    """Extract the named code-branching feature dictionary for one design."""
    module = parse_module(design) if isinstance(design, str) else design

    always_blocks = module.always_blocks()
    sequential = [a for a in always_blocks if a.is_sequential]
    combinational = [a for a in always_blocks if not a.is_sequential]
    assigns = module.continuous_assigns()
    port_decls = module.port_declarations()
    net_decls = module.net_declarations()

    # One pre-order traversal buckets every node by concrete type and folds
    # in both depth statistics; the per-type lists below are dictionary
    # lookups instead of 15+ separate full-AST walks (the scan engine's
    # hottest tabular-modality path).
    buckets, n_nodes, ast_depth, branch_nesting = _scan_ast(module)

    ifs = buckets.get(ast.If, [])
    cases = buckets.get(ast.Case, [])
    case_items = buckets.get(ast.CaseItem, [])
    default_items = [c for c in case_items if c.is_default]
    ternaries = buckets.get(ast.Ternary, [])
    nonblocking = buckets.get(ast.NonBlockingAssign, [])
    blocking = buckets.get(ast.BlockingAssign, [])
    binaries = buckets.get(ast.BinaryOp, [])
    unaries = buckets.get(ast.UnaryOp, [])
    concats = buckets.get(ast.Concat, [])
    bit_selects = buckets.get(ast.BitSelect, [])
    part_selects = buckets.get(ast.PartSelect, [])
    numbers = buckets.get(ast.Number, [])
    identifiers = buckets.get(ast.Identifier, [])
    instantiations = module.instantiations()

    comparisons = [b for b in binaries if b.op in _COMPARISON_OPS]
    const_comparisons = [b for b in binaries if _is_constant_comparison(b)]
    wide_const_comparisons = [b for b in const_comparisons if _constant_bitwidth(b) >= 8]
    logical = [b for b in binaries if b.op in _LOGICAL_OPS]
    xors = [b for b in binaries if b.op in _XOR_OPS]
    arithmetic = [b for b in binaries if b.op in ("+", "-", "*", "/", "%")]
    shifts = [b for b in binaries if b.op in ("<<", ">>", "<<<", ">>>")]

    counter_increments = [
        n
        for bucket_type in (ast.NonBlockingAssign, ast.BlockingAssign)
        for n in buckets.get(bucket_type, [])
        if _is_counter_increment(n)
    ]

    inputs = [d for d in port_decls if d.direction == "input"]
    outputs = [d for d in port_decls if d.direction == "output"]
    wires = [d for d in net_decls if d.net_type == "wire"]
    regs = [d for d in net_decls if d.net_type == "reg"]
    reg_widths = [d.width() for d in regs] or [0]
    input_widths = [d.width() * len(d.names) for d in inputs] or [0]
    output_widths = [d.width() * len(d.names) for d in outputs] or [0]

    total_statements = len(nonblocking) + len(blocking) + len(assigns)
    total_branches = len(ifs) + len(case_items)
    unique_signals = {name for decl in port_decls + net_decls for name in decl.names}

    statements_per_always = (
        (len(nonblocking) + len(blocking)) / len(always_blocks) if always_blocks else 0.0
    )

    features: Dict[str, float] = {
        # Raw structural counts.
        "n_always": len(always_blocks),
        "n_sequential_always": len(sequential),
        "n_combinational_always": len(combinational),
        "n_continuous_assigns": len(assigns),
        "n_if": len(ifs),
        "n_case": len(cases),
        "n_case_items": len(case_items),
        "n_default_items": len(default_items),
        "n_ternary": len(ternaries),
        "n_nonblocking_assigns": len(nonblocking),
        "n_blocking_assigns": len(blocking),
        "n_instantiations": len(instantiations),
        "n_ports": len(module.ports),
        "n_inputs": sum(len(d.names) for d in inputs),
        "n_outputs": sum(len(d.names) for d in outputs),
        "n_wires": sum(len(d.names) for d in wires),
        "n_regs": sum(len(d.names) for d in regs),
        "n_parameters": len(module.parameters()),
        "n_unique_signals": len(unique_signals),
        "n_identifier_refs": len(identifiers),
        "n_numeric_literals": len(numbers),
        # Operator profile.
        "n_binary_ops": len(binaries),
        "n_unary_ops": len(unaries),
        "n_comparison_ops": len(comparisons),
        "n_constant_comparisons": len(const_comparisons),
        "n_wide_constant_comparisons": len(wide_const_comparisons),
        "n_logical_ops": len(logical),
        "n_xor_ops": len(xors),
        "n_arithmetic_ops": len(arithmetic),
        "n_shift_ops": len(shifts),
        "n_concats": len(concats),
        "n_bit_selects": len(bit_selects),
        "n_part_selects": len(part_selects),
        # Trigger-proxy features.
        "n_counter_increments": len(counter_increments),
        "max_constant_bitwidth": max(
            [_constant_bitwidth(b) for b in const_comparisons] or [0]
        ),
        # Structure / size.
        "ast_node_count": n_nodes,
        "ast_depth": ast_depth,
        "branch_nesting_depth": branch_nesting,
        "statements_per_always": statements_per_always,
        # Width profile.
        "total_input_width": float(sum(input_widths)),
        "total_output_width": float(sum(output_widths)),
        "total_reg_bits": float(sum(d.width() * len(d.names) for d in regs)),
        "max_reg_width": float(max(reg_widths)),
        # Densities (guarded against empty designs).
        "branch_density": total_branches / max(total_statements, 1),
        "comparison_density": len(comparisons) / max(n_nodes, 1),
        "assign_ratio": len(assigns) / max(total_statements, 1),
        "xor_density": len(xors) / max(n_nodes, 1),
        "constant_density": len(numbers) / max(n_nodes, 1),
    }
    return {key: float(value) for key, value in features.items()}


#: Canonical feature ordering, derived once from a trivial design so the
#: vectorised representation is stable across designs and library versions.
TABULAR_FEATURE_NAMES: List[str] = sorted(
    extract_tabular_features(
        "module __probe (clk, a, y); input clk; input [3:0] a; output y;\n"
        "  assign y = a == 4'd3;\nendmodule\n"
    )
)


def tabular_feature_vector(design: Union[str, ast.Module]) -> np.ndarray:
    """The code-branching features as a fixed-order numpy vector."""
    features = extract_tabular_features(design)
    return np.asarray([features[name] for name in TABULAR_FEATURE_NAMES], dtype=np.float64)


def tabular_feature_matrix(designs: List[Union[str, ast.Module]]) -> np.ndarray:
    """Stack feature vectors for a list of designs into an ``(N, F)`` matrix."""
    if not designs:
        return np.empty((0, len(TABULAR_FEATURE_NAMES)))
    return np.vstack([tabular_feature_vector(design) for design in designs])
