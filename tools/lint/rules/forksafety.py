"""R6 — fork/thread safety of worker entry points.

The scan engine fans work out to pool processes and helper threads.
A worker function that mutates module-level state is a correctness trap
twice over: under ``fork`` the mutation silently diverges from the
parent (and from every sibling), and under threads it races.  The rule:

1. finds worker entry points — functions passed as ``initializer=`` /
   ``target=`` keywords or as the callable argument of
   ``map``/``imap``/``imap_unordered``/``starmap``/``apply``/
   ``apply_async``/``submit``;
2. takes the call-graph closure of those entry points;
3. inside the closure, flags ``global NAME`` rebinding of a module-level
   name, and in-place mutation (mutator method calls, subscript stores)
   of module-level mutable containers.

A per-process-singleton pattern (a pool *initializer* installing a
module-level object once per worker process) still matches rule
mechanics — it is module state mutated from a worker — and is expected
to carry a waiver explaining why it is safe, keeping the pattern's
justification in version control.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from ..core import (
    CallGraph,
    LintConfig,
    Module,
    MUTATOR_METHOD_NAMES,
    Project,
    iter_own_nodes,
)
from ..registry import Finding, Rule, register

_DISPATCH_METHODS = {
    "map",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
    "map_async",
    "apply",
    "apply_async",
    "submit",
}
_CALLABLE_KEYWORDS = {"initializer", "target", "func"}
_MUTABLE_FACTORIES = {"dict", "list", "set", "deque", "defaultdict", "Counter", "OrderedDict"}


@register
class ForkSafetyRule(Rule):
    """Flag module-level state mutated from pool/thread worker functions."""

    rule_id = "R6"
    name = "fork-safety"
    description = (
        "functions dispatched to pool workers or threads must not mutate "
        "module-level state"
    )

    def check(
        self, project: Project, graph: CallGraph, config: LintConfig
    ) -> Iterator[Finding]:
        """Find worker entries per module, then police their closure."""
        entries: Set[Tuple[str, str]] = set()
        for info in project.functions.values():
            for node in iter_own_nodes(info.node):
                if isinstance(node, ast.Call):
                    entries.update(self._entry_targets(graph, info, node))
        if not entries:
            return
        closure = graph.reachable(sorted(entries))
        for key in sorted(closure):
            info = project.functions[key]
            yield from self._check_worker(info)

    @staticmethod
    def _entry_targets(
        graph: CallGraph, info, call: ast.Call
    ) -> Iterator[Tuple[str, str]]:
        """Yield function keys dispatched as workers by *call*."""
        candidates: List[ast.AST] = []
        for keyword in call.keywords:
            if keyword.arg in _CALLABLE_KEYWORDS:
                candidates.append(keyword.value)
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _DISPATCH_METHODS
            and call.args
        ):
            candidates.append(call.args[0])
        for candidate in candidates:
            if isinstance(candidate, ast.Name):
                resolved = graph.resolve_name(info.module, candidate.id)
                if resolved is not None:
                    yield resolved

    def _check_worker(self, info) -> Iterator[Finding]:
        """Flag module-state mutation inside one worker-reachable function."""
        module = info.module
        module_names = self._module_level_names(module)
        mutable_names = self._module_level_mutables(module)
        global_names: Set[str] = set()
        for node in iter_own_nodes(info.node):
            if isinstance(node, ast.Global):
                global_names.update(node.names)
        for node in iter_own_nodes(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    list(node.targets)
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = self._store_name(target)
                    if name is not None:
                        if name in global_names and name in module_names:
                            yield self.finding(
                                module.rel,
                                node,
                                f"worker-reachable code rebinds module global "
                                f"'{name}'; under fork this diverges per "
                                "process and under threads it races",
                                symbol=info.qualname,
                            )
                        continue
                    base = self._subscript_base(target)
                    if base is not None and base in mutable_names:
                        yield self.finding(
                            module.rel,
                            node,
                            f"worker-reachable code mutates module-level "
                            f"container '{base}'",
                            symbol=info.qualname,
                        )
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                owner = node.func.value
                if (
                    isinstance(owner, ast.Name)
                    and node.func.attr in MUTATOR_METHOD_NAMES
                    and owner.id in mutable_names
                    and owner.id not in self._local_shadow(info.node, owner.id)
                ):
                    yield self.finding(
                        module.rel,
                        node,
                        f"worker-reachable code mutates module-level "
                        f"container '{owner.id}' via .{node.func.attr}()",
                        symbol=info.qualname,
                    )

    @staticmethod
    def _store_name(target: ast.AST) -> Optional[str]:
        """The bare name stored to, if *target* is ``Name`` (not subscript)."""
        return target.id if isinstance(target, ast.Name) else None

    @staticmethod
    def _subscript_base(target: ast.AST) -> Optional[str]:
        """The bare name under a subscript store (``NAME[k] = v``)."""
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            return target.value.id
        return None

    @staticmethod
    def _module_level_names(module: Module) -> Set[str]:
        """Every name assigned at module top level."""
        names: Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        return names

    @staticmethod
    def _module_level_mutables(module: Module) -> Set[str]:
        """Module-level names bound to mutable containers."""
        names: Set[str] = set()
        for node in module.tree.body:
            value = None
            targets: List[ast.AST] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, list(node.targets)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None:
                continue
            is_mutable = isinstance(
                value, (ast.Dict, ast.List, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _MUTABLE_FACTORIES
            )
            if not is_mutable:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _local_shadow(func: ast.AST, name: str) -> Set[str]:
        """Names rebound locally in *func* (shadowing the module global)."""
        shadowed: Set[str] = set()
        globals_declared: Set[str] = set()
        for node in iter_own_nodes(func):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
        for node in iter_own_nodes(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id not in globals_declared:
                        shadowed.add(target.id)
        params = getattr(func, "args", None)
        if params is not None:
            for arg in (
                list(params.args)
                + list(params.posonlyargs)
                + list(params.kwonlyargs)
            ):
                shadowed.add(arg.arg)
        return shadowed
