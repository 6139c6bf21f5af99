"""TCL010: code a worker process may run must not write module globals."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set

from repro.lint.dataflow import CallGraph, terminal_name
from repro.lint.engine import Finding, LintContext, Rule

#: Functions whose bodies execute inside worker processes.  Everything
#: reachable from one of these (intra-module call graph) inherits the
#: constraint.  ``farm/worker.py`` is worker-side in its entirety.
_ENTRY_NAMES = {"dispatch_batch", "_run_sweep_cell", "_serve"}

#: In-place mutation methods of the builtin collections (+ deque).
_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

#: :mod:`repro.obs` registry methods that rewrite registry state (the
#: counters' ``inc``/``observe`` are process-safe by design and allowed).
_REGISTRY_MUTATORS = {"clear", "merge", "reset", "set_enabled"}

#: Constructor calls whose result is module-level mutable state.
_MUTABLE_CONSTRUCTORS = {
    "Counter",
    "OrderedDict",
    "defaultdict",
    "deque",
    "dict",
    "list",
    "set",
}


def _root_name(expr: ast.expr) -> Optional[str]:
    """The base ``Name`` of a ``Subscript``/``Attribute`` chain."""
    while isinstance(expr, (ast.Subscript, ast.Attribute)):
        expr = expr.value
    return expr.id if isinstance(expr, ast.Name) else None


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """All nodes of a function body, not descending into nested defs.

    Nested named functions are separate call-graph nodes and get their
    own walk when reachable; lambdas are not, so they stay included.
    """
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ForkUnsafeGlobal(Rule):
    """TCL010 fork-unsafe-global: workers may not mutate module state.

    The sweep pool and the farm fork (or spawn) worker processes; a
    write to module-level mutable state inside worker-side code mutates
    a *copy* that the parent never sees -- or, under ``fork``, state
    whose visibility depends on fork timing.  Either way the result
    depends on the execution backend, which is exactly what the
    serial/parallel identity gate forbids.  The rule builds the
    module's call graph, closes over the worker entry points
    (``_run_sweep_cell``, the kernel-or-scalar ``dispatch_batch``,
    ``FarmWorker._serve``, and every function in ``farm/worker.py``), and
    inside that region
    flags ``global`` rebindings, subscript/attribute stores and mutator
    method calls on module-level collections, and :mod:`repro.obs`
    registry rewrites (``set_enabled``/``reset``/``clear``/``merge``).
    Counter ``inc``/``observe`` calls are process-safe by design and
    never flagged.  Worker-side registry *synchronisation* is the one
    legitimate pattern; such sites carry an allowlisting pragma with a
    justification, audited in DESIGN.md section 15.

    Bad::

        _SEEN = {}

        def _run_sweep_cell(task):
            _SEEN[task.cell] = task.seed
            return task.seed

    Good::

        def _run_sweep_cell(task):
            seen = {}
            seen[task.cell] = task.seed
            return task.seed
    """

    rule_id = "TCL010"
    name = "fork-unsafe-global"
    summary = (
        "no module-level mutable state written in code reachable from "
        "worker entry points"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Close over worker entry points and police their writes."""
        if ctx.is_test_file:
            return
        graph = CallGraph.build(ctx.tree)
        if ctx.is_module("farm", "worker.py"):
            entries: Set[str] = set(graph.functions)
        else:
            entries = _ENTRY_NAMES
        reachable = graph.reachable(entries)
        if not reachable:
            return
        mutables, registries = self._module_state(ctx.tree)
        for name, func in graph.nodes_of(sorted(reachable)):
            yield from self._check_function(ctx, name, func, mutables, registries)

    @staticmethod
    def _module_state(tree: ast.Module) -> tuple[Set[str], Set[str]]:
        """Names of module-level mutable collections and obs registries."""
        mutables: Set[str] = set()
        registries: Set[str] = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if not names:
                continue
            if isinstance(value, (ast.Dict, ast.DictComp, ast.List,
                                  ast.ListComp, ast.Set, ast.SetComp)):
                mutables |= names
            elif isinstance(value, ast.Call):
                terminal = terminal_name(value.func)
                if terminal in _MUTABLE_CONSTRUCTORS:
                    mutables |= names
                elif terminal == "get_registry":
                    registries |= names
        return mutables, registries

    def _check_function(
        self,
        ctx: LintContext,
        name: str,
        func: ast.AST,
        mutables: Set[str],
        registries: Set[str],
    ) -> Iterator[Finding]:
        """Flag module-state writes in one worker-reachable function."""
        nodes = list(_own_nodes(func))
        local_registries = set(registries)
        stored: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.add(node.id)
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and terminal_name(node.value.func) == "get_registry"
            ):
                local_registries |= {
                    t.id for t in node.targets if isinstance(t, ast.Name)
                }
        for node in nodes:
            if isinstance(node, ast.Global):
                hot = [n for n in node.names if n in stored]
                if hot:
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}' is reachable from a worker entry point "
                        f"and rebinds module global(s) {', '.join(hot)}; "
                        "the write lands in the worker's copy of the "
                        "module and the result depends on the execution "
                        "backend -- return the value instead",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        root = _root_name(target)
                        if root in mutables:
                            yield self._mutation(ctx, name, root, node)
            elif isinstance(node, ast.AugAssign):
                if isinstance(node.target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(node.target)
                    if root in mutables:
                        yield self._mutation(ctx, name, root, node)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                if not isinstance(receiver, ast.Name):
                    continue
                if receiver.id in mutables and node.func.attr in _MUTATORS:
                    yield self._mutation(ctx, name, receiver.id, node)
                elif (
                    receiver.id in local_registries
                    and node.func.attr in _REGISTRY_MUTATORS
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}' is reachable from a worker entry point "
                        f"and rewrites obs registry state via "
                        f"'{receiver.id}.{node.func.attr}()'; registry "
                        "rewrites in worker processes diverge from the "
                        "parent's view -- if this is deliberate worker-"
                        "side sync, allowlist it with a justified pragma",
                    )

    def _mutation(
        self, ctx: LintContext, func_name: str, root: str, node: ast.AST
    ) -> Finding:
        return self.finding(
            ctx,
            node,
            f"'{func_name}' is reachable from a worker entry point and "
            f"mutates module-level '{root}'; the mutation is invisible "
            "to the parent process (or fork-timing dependent), so "
            "results differ across backends -- pass state in and return "
            "it instead",
        )
