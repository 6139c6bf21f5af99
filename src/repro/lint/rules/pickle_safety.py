"""TCL003: factories crossing the process-pool boundary must pickle."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List

from repro.lint.engine import Finding, LintContext, Rule

#: Callables whose arguments are shipped to worker processes (or stored
#: in specs that later are).  Matched on the terminal name, so both
#: ``engine.query_curve(...)`` and ``query_curve(...)`` hit.
BOUNDARY_CALLS = {
    "AlgorithmSpec",
    "Curve",
    "ModelSpec",
    "RegistryFactory",
    "query_curve",
    "baseline_curve",
    "mean_query_curve",
    "submit",
}

#: How a name bound in an enclosing scope poisons pickling.
_KIND_MESSAGES = {
    "lambda": "a lambda",
    "local-def": "a function defined inside another function",
    "local-class": "a class defined inside a function",
}


class _ScopeVisitor(ast.NodeVisitor):
    """Track lambda bindings and function-local defs along the scope stack."""

    def __init__(self, rule: "PickleSafety", ctx: LintContext) -> None:
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []
        #: One dict per open scope: name -> unpicklable kind.
        self.scopes: List[Dict[str, str]] = [{}]

    # -- scope bookkeeping ------------------------------------------------

    def _lookup(self, name: str) -> str | None:
        for scope in reversed(self.scopes):
            kind = scope.get(name)
            if kind is not None:
                return kind
        return None

    def _visit_function(self, node: ast.AST) -> None:
        self.scopes.append({})
        self.generic_visit(node)
        self.scopes.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Record nested defs as unpicklable, then open a child scope."""
        if len(self.scopes) > 1:
            self.scopes[-1][node.name] = "local-def"
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Same treatment as synchronous defs."""
        if len(self.scopes) > 1:
            self.scopes[-1][node.name] = "local-def"
        self._visit_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Record function-local classes as unpicklable."""
        if len(self.scopes) > 1:
            self.scopes[-1][node.name] = "local-class"
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track ``name = lambda ...`` bindings (unpicklable anywhere)."""
        if isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.scopes[-1][target.id] = "lambda"
        self.generic_visit(node)

    # -- the actual check -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        """Flag unpicklable values passed at a pool/spec boundary."""
        func = node.func
        terminal = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if terminal in BOUNDARY_CALLS:
            values = [arg for arg in node.args] + [
                kw.value for kw in node.keywords
            ]
            for value in values:
                if isinstance(value, ast.Lambda):
                    self.findings.append(
                        self.rule.finding(
                            self.ctx,
                            value,
                            f"lambda passed into {terminal}(): lambdas "
                            "don't pickle, so the sweep pool silently "
                            "falls back to serial; use a module-level "
                            "factory (repro.api.algorithm_factory / "
                            "ModelSpec)",
                        )
                    )
                elif isinstance(value, ast.Name):
                    kind = self._lookup(value.id)
                    if kind is not None:
                        self.findings.append(
                            self.rule.finding(
                                self.ctx,
                                value,
                                f"{_KIND_MESSAGES[kind]} "
                                f"('{value.id}') passed into "
                                f"{terminal}(): it won't pickle, so the "
                                "sweep pool silently falls back to "
                                "serial; hoist it to module level",
                            )
                        )
        self.generic_visit(node)


class PickleSafety(Rule):
    """TCL003 pickle-safety: no closures into specs or the sweep pool.

    The process-pool backend of :class:`SweepEngine` ships factories to
    worker processes with :mod:`pickle`.  Lambdas, functions defined
    inside other functions, and function-local classes cannot be
    pickled, so passing one into ``AlgorithmSpec`` / ``ModelSpec`` /
    ``RegistryFactory`` or a ``*_curve`` / ``submit`` call does not
    crash -- it silently degrades the sweep to serial execution, which
    is exactly the kind of quiet performance bug this linter exists to
    catch.

    Bad::

        def run(engine, xs, model_factory):
            return engine.query_curve(
                "2tbins", xs, lambda x: TwoTBins(), model_factory
            )

    Good::

        def run(engine, xs, model_factory):
            factory = algorithm_factory("2tbins")
            return engine.query_curve("2tbins", xs, factory, model_factory)
    """

    rule_id = "TCL003"
    name = "pickle-safety"
    summary = (
        "no lambdas/closures/local classes into AlgorithmSpec, ModelSpec, "
        "RegistryFactory, or SweepEngine submissions"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        """Run the scope-tracking visitor and yield its findings."""
        visitor = _ScopeVisitor(self, ctx)
        visitor.visit(ctx.tree)
        yield from visitor.findings
