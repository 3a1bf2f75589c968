"""Checker base class and shared AST helpers."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple, Union

from repro.lintkit.findings import Finding, source_line
from repro.lintkit.model import ModuleSource, Project


class Checker:
    """One invariant, checked over the whole project.

    Subclasses set :attr:`id`/:attr:`name`/:attr:`description`, a default
    path :attr:`scope` (+ :attr:`exempt`) relative to the linted root, and
    implement either :meth:`check_module` (the common, per-file case) or
    override :meth:`run` for whole-program analyses.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: Relpath prefixes the checker applies to ("" = whole tree).
    scope: Tuple[str, ...] = ("",)
    #: Relpath prefixes exempt from the checker.
    exempt: Tuple[str, ...] = ()

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.in_scope(self.scope, self.exempt):
            yield from self.check_module(module)

    def check_module(self, module: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError  # pragma: no cover - abstract

    def finding(self, module: ModuleSource, node: ast.AST, message: str
                ) -> Finding:
        """A :class:`Finding` at ``node``'s location in ``module``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            checker=self.id,
            path=module.relpath,
            line=line,
            col=col,
            message=message,
            snippet=source_line(module.lines, line),
        )


def enclosing_function(
    module: ModuleSource, node: ast.AST,
) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
    """The innermost enclosing function/async-function node, or ``None``."""
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def test_mentions_enabled(test: ast.AST) -> bool:
    """Whether an ``if`` test involves an ``.enabled`` flag (or bare name)."""
    for sub in ast.walk(test):
        if isinstance(sub, ast.Attribute) and sub.attr == "enabled":
            return True
        if isinstance(sub, ast.Name) and sub.id == "enabled":
            return True
    return False


def is_enabled_guarded(module: ModuleSource, node: ast.AST) -> bool:
    """Whether ``node`` executes only when a telemetry ``enabled`` flag holds.

    Two accepted shapes:

    * a lexical ``if <...enabled...>:`` ancestor;
    * an early return at the top of the enclosing function:
      ``if not <...>.enabled: return`` before the node's line.
    """
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, ast.If) and test_mentions_enabled(ancestor.test):
            return True
    func = enclosing_function(module, node)
    if func is not None:
        node_line = getattr(node, "lineno", 0)
        for stmt in func.body:
            if getattr(stmt, "lineno", 1 << 30) >= node_line:
                break
            if (
                isinstance(stmt, ast.If)
                and isinstance(stmt.test, ast.UnaryOp)
                and isinstance(stmt.test.op, ast.Not)
                and test_mentions_enabled(stmt.test.operand)
                and len(stmt.body) == 1
                and isinstance(stmt.body[0], ast.Return)
            ):
                return True
    return False
